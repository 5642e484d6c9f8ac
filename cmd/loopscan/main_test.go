package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestSeededRunDeterministic: a seeded sweep's stdout report and its
// -status-json snapshot are byte-identical across two in-process runs,
// and the loop.* counters in the snapshot agree with the report.
func TestSeededRunDeterministic(t *testing.T) {
	dir := t.TempDir()
	sweep := func(name string) (stdout string, status []byte) {
		t.Helper()
		path := filepath.Join(dir, name)
		var out, errb bytes.Buffer
		args := []string{"-seed", "7", "-width", "10", "-max-devices", "300", "-status-json", path}
		if err := run(args, &out, &errb); err != nil {
			t.Fatalf("run(%v): %v\nstderr:\n%s", args, err, errb.String())
		}
		status, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return out.String(), status
	}
	outA, statusA := sweep("a.json")
	outB, statusB := sweep("b.json")
	if outA != outB {
		t.Errorf("stdout differs across identical seeded runs:\n%s\nvs\n%s", outA, outB)
	}
	if !bytes.Equal(statusA, statusB) {
		t.Errorf("status JSON differs across identical seeded runs:\n%s\nvs\n%s", statusA, statusB)
	}

	const header = "ISP 12 (China Unicom), window 240c::/50-60: 1024 targets, 1024 responses, 224 loop-vulnerable last hops\n"
	if !strings.HasPrefix(outA, header) {
		t.Errorf("report header = %q, want %q", strings.SplitN(outA, "\n", 2)[0], header)
	}
	var snap struct {
		Counters map[string]uint64 `json:"counters"`
	}
	if err := json.Unmarshal(statusA, &snap); err != nil {
		t.Fatal(err)
	}
	for key, want := range map[string]uint64{
		"loop.probes": 1248, "loop.responses": 1248, "loop.confirmed": 224,
	} {
		if got := snap.Counters[key]; got != want {
			t.Errorf("%s = %d, want %d", key, got, want)
		}
	}
	if snap.Counters["sim.transmissions"] == 0 {
		t.Error("sim.transmissions = 0: engine collector not registered")
	}
}
