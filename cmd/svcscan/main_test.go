package main

import (
	"bytes"
	"os"
	"testing"

	"repro/internal/topo"
)

// TestSeededCensusGolden: a seeded census is byte-identical to the
// committed golden through the CLI, and again with the deployment's
// compiled forwarding fast path switched off — every packet svcscan
// sends after discovery goes through Engine.Inject, so the two legs are
// the one-packet replay against the interpreter.
func TestSeededCensusGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/seed1_width10.golden")
	if err != nil {
		t.Fatal(err)
	}
	var out, errb bytes.Buffer
	args := []string{"-seed", "1", "-width", "10", "-max-devices", "300"}
	if err := run(args, &out, &errb); err != nil {
		t.Fatalf("run(%v): %v\nstderr:\n%s", args, err, errb.String())
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Errorf("census differs from testdata/seed1_width10.golden:\n%s", out.String())
	}

	// The same deployment the flags above describe (defaults included).
	off := false
	var interp bytes.Buffer
	if err := census(topo.Config{
		Seed: 1, Scale: 0.0005, WindowWidth: 10, MaxDevicesPerISP: 300,
		OnlyISPs: []int{13}, FastPath: &off,
	}, &interp); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(interp.Bytes(), want) {
		t.Errorf("census with FastPath off differs from the golden:\n%s", interp.String())
	}
}
