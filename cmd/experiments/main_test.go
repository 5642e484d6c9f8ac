package main

import (
	"bytes"
	"flag"
	"os"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/default.golden with the current output")

// TestDefaultOutputGolden pins the default run — Tables I-XII, the
// figures, the loop sweep and the amplification factor — byte for byte:
// a change to the simulator that bends any paper artifact fails here.
// Regenerate with `go test ./cmd/experiments -update`.
func TestDefaultOutputGolden(t *testing.T) {
	const golden = "testdata/default.golden"
	var out, errb bytes.Buffer
	if err := run(nil, &out, &errb); err != nil {
		t.Fatalf("run: %v\nstderr:\n%s", err, errb.String())
	}
	if *update {
		if err := os.WriteFile(golden, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(out.Bytes(), want) {
		return
	}
	got, exp := bytes.Split(out.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(got) || i < len(exp); i++ {
		var g, w []byte
		if i < len(got) {
			g = got[i]
		}
		if i < len(exp) {
			w = exp[i]
		}
		if !bytes.Equal(g, w) {
			t.Fatalf("output differs from %s at line %d:\ngot  %q\nwant %q\n(rerun with -update if the change is intended)",
				golden, i+1, g, w)
		}
	}
}
