package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestSameSeedSameOutput runs the default seed twice: the output must be
// identical, every ISP's inferred boundary must be the one its spec
// delegates, and the census must attribute hardware through EUI-64.
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
	for _, want := range []string{
		"inferred /64 (paper says /64;",
		"inferred /56 (paper says /56;",
		"inferred /60 (paper says /60;",
		"== Discovery census (Table II shape) ==",
		"== IID mix (Table III shape) ==",
		" MAC ",
	} {
		if !strings.Contains(first.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, first.String())
		}
	}
}
