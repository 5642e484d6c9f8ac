package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestManifest holds BENCHMARK.json equal to the tables the program
// reports from, and the tables inside the driver's limits.
func TestManifest(t *testing.T) {
	onDisk, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var want, got any
	if err := json.Unmarshal(onDisk, &want); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(manifest()), &got); err != nil {
		t.Fatal(err)
	}
	if a, b := fmt.Sprint(want), fmt.Sprint(got); a != b {
		t.Errorf("BENCHMARK.json differs from the program's tables; regenerate with `go run . -manifest > ../BENCHMARK.json`\nfile:    %s\nprogram: %s", a, b)
	}

	seen := map[string]bool{}
	check := func(kind, name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("%s name %q is not [A-Za-z0-9_.-]{1,64}", kind, name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	for _, w := range workloads {
		check("workload", w.name)
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.name, len(w.why))
		}
	}
	hasSetup := false
	for _, m := range endToEnd {
		check("end-to-end metric", m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s [s, lower] end-to-end metric")
	}
	if len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics", len(perLayer))
	}
	for _, m := range perLayer {
		check("per-layer metric", m.Name)
	}
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better %q", m.Name, m.Better)
		}
	}
}

// TestGoldenEqualities checks the pinned default-seed outcomes name
// every workload and that the three sweeps of the cold window pin the
// same hit set.
func TestGoldenEqualities(t *testing.T) {
	gold, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		if g, ok := gold[w.name]; !ok || g.Targets == 0 || len(g.SetSHA) != 64 {
			t.Errorf("golden.json has no usable entry for %s: %+v", w.name, g)
		}
	}
	cold := gold["scan_cold"]
	for _, name := range []string{"scan_parallel", "scan_resumable"} {
		if gold[name] != cold {
			t.Errorf("golden %s %+v differs from scan_cold %+v", name, gold[name], cold)
		}
	}
}

// runDriverForm runs one workload through run() with the driver's
// arguments at the smoke size and returns the parsed last line.
func runDriverForm(t *testing.T, workload string, seed int, trace int) map[string]json.RawMessage {
	t.Helper()
	var out bytes.Buffer
	err := run([]string{
		"--workload", workload, "--seed", fmt.Sprint(seed), "--seconds", "1", "--trace", fmt.Sprint(trace),
		"-tiny", "-reps", "1", "-out", t.TempDir(),
	}, &out)
	if err != nil {
		t.Fatalf("%s trace=%d: %v\n%s", workload, trace, err, out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var last map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("%s: last line is not a JSON object: %v", workload, err)
	}
	return last
}

// TestSmoke runs every workload at a tiny size, untraced and traced,
// and asserts the result line carries exactly the contract's keys and
// exactly the metrics BENCHMARK.json lists for that pass — each once,
// finite, with its unit.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		for trace, defs := range [][]metricDef{endToEnd, perLayer} {
			last := runDriverForm(t, w.name, goldenSeed, trace)
			if len(last) != 4 {
				t.Errorf("%s trace=%d: result line has keys %v", w.name, trace, keys(last))
			}
			var r result
			dec := json.NewDecoder(bytes.NewReader(mustMarshal(t, last)))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&r); err != nil {
				t.Fatalf("%s trace=%d: %v", w.name, trace, err)
			}
			if !r.Correct || r.Attempted < 1 || r.Failed != 0 {
				t.Errorf("%s trace=%d: correct=%v attempted=%d failed=%d", w.name, trace, r.Correct, r.Attempted, r.Failed)
			}
			if len(r.Metrics) != len(defs) {
				t.Errorf("%s trace=%d: %d metrics, want %d", w.name, trace, len(r.Metrics), len(defs))
			}
			for _, d := range defs {
				v, ok := r.Metrics[d.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%d: metric %s missing", w.name, trace, d.Name)
				case v.Unit != d.Unit:
					t.Errorf("%s %s: unit %q, want %q", w.name, d.Name, v.Unit, d.Unit)
				case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
					t.Errorf("%s %s: value %v", w.name, d.Name, v.Value)
				case trace == 0 && v.Value <= 0:
					t.Errorf("%s %s: end-to-end value %v must be positive", w.name, d.Name, v.Value)
				}
			}
		}
	}
}

// TestOtherSeed runs the workloads with a cross-workload equality on a
// seed that has no golden: the hit set must still equal a plain sweep's
// and the recall floor must hold (runWorkload's own checks, surfaced as
// correct=true).
func TestOtherSeed(t *testing.T) {
	for _, name := range []string{"scan_parallel", "scan_resumable"} {
		last := runDriverForm(t, name, 2, 0)
		if string(last["correct"]) != "true" {
			t.Errorf("%s seed 2: correct=%s", name, last["correct"])
		}
	}
}

// TestTraceFile checks the traced pass leaves a Chrome-trace file whose
// events name every span of a scan workload and whose children lie
// inside their scan span.
func TestTraceFile(t *testing.T) {
	dir := t.TempDir()
	if err := run([]string{"--workload", "scan_resumable", "--trace", "1", "-tiny", "-reps", "1", "-out", dir}, io.Discard); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "trace-scan_resumable.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			Args struct {
				ID, Parent int
			} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("trace file is not JSON: %v", err)
	}
	names := map[string]int{}
	for _, ev := range doc.TraceEvents {
		names[ev.Name]++
		if ev.Args.Parent < 0 {
			continue
		}
		p := doc.TraceEvents[ev.Args.Parent]
		// checkpoint.hook starts where the previous child ended, which for
		// the first hook of a leg may precede the leg's scan span.
		if ev.Name != "checkpoint.hook" && (ev.Ts < p.Ts-0.001 || ev.Ts+ev.Dur > p.Ts+p.Dur+0.001) {
			t.Errorf("span %d (%s) [%f,+%f] is outside its parent %s [%f,+%f]", ev.Args.ID, ev.Name, ev.Ts, ev.Dur, p.Name, p.Ts, p.Dur)
		}
	}
	for _, want := range []string{"setup", "topo.Build", "scan", "netsim.SendBatch", "netsim.RecvBatch", "netsim.Release", "output.Write", "checkpoint.hook"} {
		if names[want] == 0 {
			t.Errorf("trace has no %q span (has %v)", want, names)
		}
	}
}

// TestCLIParity holds the harness to the shipped pipeline: scan_cold's
// configuration at the smoke width must produce a CSV byte-identical to
// cmd/xmap's for the same flags.
func TestCLIParity(t *testing.T) {
	if err := cliParity(goldenSeed, tinySize, t.TempDir(), io.Discard); err != nil {
		t.Fatal(err)
	}
}

func keys(m map[string]json.RawMessage) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}

func mustMarshal(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
