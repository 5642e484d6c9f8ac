package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestSameSeedSameOutput runs the default seed twice: the sweep, the
// amplification figures and the lab table must be identical, and the
// sweep must find loops and the lab its vulnerable routers.
func TestSameSeedSameOutput(t *testing.T) {
	var first, second bytes.Buffer
	if err := run(&first); err != nil {
		t.Fatalf("%v\n%s", err, first.String())
	}
	if err := run(&second); err != nil {
		t.Fatalf("%v\n%s", err, second.String())
	}
	if first.String() != second.String() {
		t.Errorf("same seed, different output:\n%s\n---\n%s", first.String(), second.String())
	}
	for _, want := range []string{"loop-vulnerable last hops", "amplification factor", "lab routers vulnerable"} {
		if !strings.Contains(first.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, first.String())
		}
	}
	if strings.Contains(first.String(), " 0 loop-vulnerable last hops") {
		t.Errorf("the sweep found no loop:\n%s", first.String())
	}
}
