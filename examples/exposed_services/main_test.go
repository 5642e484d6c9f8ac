package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestSameSeedSameOutput runs the default seed twice: the output must be
// identical, and it must hold the discovery line and the census total
// this seed has always printed.
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
	for _, want := range []string{"discovered 401 last hops in 240c::/49-60", "Total      186    46.5"} {
		if !strings.Contains(first.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, first.String())
		}
	}
}
