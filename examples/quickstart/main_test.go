package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestSameSeedSameOutput runs the default seed twice: the output must be
// identical, and the scan must find every simulated periphery.
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
	const all = "discovered 50 of 50 simulated peripheries"
	if !strings.Contains(first.String(), all) {
		t.Errorf("output lacks %q:\n%s", all, first.String())
	}
}
