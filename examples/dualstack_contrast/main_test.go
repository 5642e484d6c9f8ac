package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestSameSeedSameOutput runs the default seed twice: the output must
// be identical, service lines included, and the IPv6 world must expose
// the services of two homes.
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
	const homes = "homes with globally reachable services: 2 "
	if !strings.Contains(first.String(), homes) {
		t.Errorf("output lacks %q:\n%s", homes, first.String())
	}
}
