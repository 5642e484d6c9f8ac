package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// runOnce drives one full CLI invocation in-process.
func runOnce(t *testing.T, args ...string) (stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	if err := run(args, &out, &errb); err != nil {
		t.Fatalf("run(%v): %v\nstderr:\n%s", args, err, errb.String())
	}
	return out.String(), errb.String()
}

// TestStatusJSONDeterministic: the -status-json artifact of a seeded
// scan is byte-identical across two identical runs — the property that
// makes snapshots diffable in scripts and goldens.
func TestStatusJSONDeterministic(t *testing.T) {
	dir := t.TempDir()
	a := filepath.Join(dir, "a.json")
	b := filepath.Join(dir, "b.json")
	args := []string{"-max-targets", "20", "-quiet", "-seed", "7", "-status-json"}
	runOnce(t, append(args, a)...)
	runOnce(t, append(args, b)...)
	da, err := os.ReadFile(a)
	if err != nil {
		t.Fatal(err)
	}
	db, err := os.ReadFile(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(da) == 0 {
		t.Fatal("empty status JSON")
	}
	if !bytes.Equal(da, db) {
		t.Errorf("status JSON differs across identical seeded runs:\n%s\nvs\n%s", da, db)
	}

	var snap struct {
		Counters map[string]uint64 `json:"counters"`
		Gauges   map[string]int64  `json:"gauges"`
	}
	if err := json.Unmarshal(da, &snap); err != nil {
		t.Fatal(err)
	}
	if got := snap.Counters["scan.targets"]; got != 20 {
		t.Errorf("scan.targets = %d, want 20", got)
	}
	if got := snap.Counters["scan.sent"]; got != 20 {
		t.Errorf("scan.sent = %d, want 20", got)
	}
	if snap.Counters["sim.transmissions"] == 0 {
		t.Error("sim.transmissions = 0: engine collector not registered")
	}
	if snap.Counters["sim.fastpath.hits"]+snap.Counters["sim.fastpath.misses"] == 0 {
		t.Error("sim.fastpath.* all zero: fast-path counters not collected")
	}
	if snap.Counters["scan.received"] == 0 {
		t.Error("scan.received = 0: the fixture always answers some probes")
	}
	if got := snap.Gauges["scan.window"]; got != 64 {
		t.Errorf("scan.window gauge = %d, want the default drain window 64", got)
	}
	// The adversarial-defense counters are part of the snapshot schema,
	// and an honest deployment must leave every one at zero.
	for _, key := range []string{
		"scan.alias.detected", "scan.alias.cooldown", "scan.alias.blocked",
		"scan.replies.quarantined", "scan.shed",
	} {
		got, ok := snap.Counters[key]
		if !ok {
			t.Errorf("counter %s missing from the status snapshot", key)
		}
		if got != 0 {
			t.Errorf("%s = %d on an honest deployment, want 0", key, got)
		}
	}
}

// TestDefendFlag: -defend wires the adversarial defenses into the scan;
// on the honest generated deployment they must be inert — identical
// results to an undefended run and zero defense counters.
func TestDefendFlag(t *testing.T) {
	dir := t.TempDir()
	plain := filepath.Join(dir, "plain.json")
	defended := filepath.Join(dir, "defended.json")
	args := []string{"-max-targets", "200", "-quiet", "-seed", "7", "-status-json"}
	runOnce(t, append(args, plain)...)
	runOnce(t, append([]string{"-defend"}, append(args, defended)...)...)
	read := func(path string) map[string]uint64 {
		t.Helper()
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var snap struct {
			Counters map[string]uint64 `json:"counters"`
		}
		if err := json.Unmarshal(data, &snap); err != nil {
			t.Fatal(err)
		}
		return snap.Counters
	}
	pc, dc := read(plain), read(defended)
	for _, key := range []string{"scan.targets", "scan.sent", "scan.received", "scan.unique"} {
		if pc[key] != dc[key] {
			t.Errorf("%s = %d defended vs %d undefended; defenses must be inert on honest traffic",
				key, dc[key], pc[key])
		}
	}
	for _, key := range []string{"scan.alias.detected", "scan.alias.blocked", "scan.replies.quarantined", "scan.shed"} {
		if dc[key] != 0 {
			t.Errorf("%s = %d on an honest deployment with -defend, want 0", key, dc[key])
		}
	}
}

// TestMonitorLines: -monitor-every prints periodic status lines plus a
// final "done" line on stderr, and the final line's progress is 100% of
// what the run probes — across -parallel workers, each with its own
// -max-targets (at -parallel 3 worker 0 keeps two of the four window
// chunks, so 1500 cuts its part alone), and for one slice of a -shards
// scan.
func TestMonitorLines(t *testing.T) {
	percent := regexp.MustCompile(` ([0-9.]+)%; send:`)
	for _, args := range [][]string{
		{"-max-targets", "200"},
		{"-parallel", "2", "-max-targets", "1000"},
		{"-parallel", "3", "-max-targets", "1500"},
		{"-shards", "2", "-shard", "1"},
	} {
		_, errOut := runOnce(t, append(args, "-quiet", "-monitor-every", "64")...)
		lines := strings.Split(strings.TrimSpace(errOut), "\n")
		if len(lines) < 2 {
			t.Fatalf("%v: expected multiple monitor lines, got %q", args, errOut)
		}
		for _, l := range lines {
			if !strings.Contains(l, "send:") || !strings.Contains(l, "hit rate") {
				t.Errorf("%v: malformed monitor line %q", args, l)
			}
		}
		last := lines[len(lines)-1]
		if !strings.HasSuffix(last, "; done") {
			t.Errorf("%v: last line %q does not end in \"; done\"", args, last)
		}
		m := percent.FindStringSubmatch(last)
		if m == nil {
			t.Errorf("%v: last line %q shows no progress", args, last)
			continue
		}
		if p, err := strconv.ParseFloat(m[1], 64); err != nil || math.Abs(p-100) > 0.5 {
			t.Errorf("%v: the scan ends at %s%%, want 100.0%% ± 0.5", args, m[1])
		}
	}
}

// TestTraceDump: at full sampling the -trace-out dump covers every
// probe of a small scan — one sent span per target, each carrying its
// address, and the replies that came back.
func TestTraceDump(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.ndjson")
	runOnce(t, "-max-targets", "20", "-quiet", "-trace-sample", "0", "-trace-out", path)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[string]int{}
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		var span struct {
			Stream int    `json:"stream"`
			Kind   string `json:"kind"`
			Addr   string `json:"addr"`
		}
		if err := json.Unmarshal([]byte(line), &span); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", line, err)
		}
		if span.Stream != 0 {
			continue // the simulator's hop stream
		}
		kinds[span.Kind]++
		if span.Kind == "sent" && span.Addr == "" {
			t.Error("sent span without address")
		}
	}
	if kinds["sent"] != 20 {
		t.Errorf("trace has %d sent spans, want 20", kinds["sent"])
	}
	if kinds["reply"]+kinds["icmp-error"] == 0 {
		t.Error("trace has no reply spans")
	}
	// The flight-recorder flag is gone; -trace-out is its superset.
	var errb bytes.Buffer
	if err := run([]string{"-max-targets", "1", "-trace", path}, io.Discard, &errb); err == nil {
		t.Error("-trace still accepted")
	}
}

// TestProbeTraceNDJSONDeterministic: the -trace-out NDJSON artifact of
// a seeded scan is byte-identical across two identical runs (the
// sampler is a seed-keyed PRF and every span stream has a single
// ordered writer), and it carries the whole lifecycle: sent spans,
// simulator hop crossings, and replies.
func TestProbeTraceNDJSONDeterministic(t *testing.T) {
	dir := t.TempDir()
	a := filepath.Join(dir, "a.ndjson")
	b := filepath.Join(dir, "b.ndjson")
	args := []string{"-max-targets", "40", "-quiet", "-seed", "7", "-trace-sample", "0", "-trace-out"}
	runOnce(t, append(args, a)...)
	runOnce(t, append(args, b)...)
	da, err := os.ReadFile(a)
	if err != nil {
		t.Fatal(err)
	}
	db, err := os.ReadFile(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(da) == 0 {
		t.Fatal("empty probe trace")
	}
	if !bytes.Equal(da, db) {
		t.Error("probe trace differs across identical seeded runs")
	}
	kinds := map[string]int{}
	for _, line := range strings.Split(strings.TrimSpace(string(da)), "\n") {
		var span struct {
			Kind string `json:"kind"`
			Addr string `json:"addr"`
			Node string `json:"node"`
		}
		if err := json.Unmarshal([]byte(line), &span); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", line, err)
		}
		kinds[span.Kind]++
		if span.Kind == "hop" && span.Node == "" {
			t.Errorf("hop span without a node: %q", line)
		}
	}
	if kinds["sent"] != 40 {
		t.Errorf("trace has %d sent spans at full sampling, want 40", kinds["sent"])
	}
	if kinds["hop"] == 0 {
		t.Error("trace has no simulator hop crossings")
	}
	if kinds["reply"]+kinds["icmp-error"] == 0 {
		t.Error("trace has no reply spans")
	}
}

// TestProbeTracePerfettoFormat pins the Chrome-trace/Perfetto export: a
// .json -trace-out must be one {"traceEvents":[...]} document of
// instant events with the fields ui.perfetto.dev requires.
func TestProbeTracePerfettoFormat(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	runOnce(t, "-max-targets", "20", "-quiet", "-seed", "7", "-trace-sample", "0", "-trace-out", path)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(data, []byte(`{"traceEvents":[`)) {
		t.Fatalf("export does not open a traceEvents document: %.40q", data)
	}
	var doc struct {
		TraceEvents []struct {
			Name  string `json:"name"`
			Phase string `json:"ph"`
			Scope string `json:"s"`
			PID   int    `json:"pid"`
			TID   *int   `json:"tid"`
			TS    *int64 `json:"ts"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("export has no events")
	}
	tids := map[int]bool{}
	for _, e := range doc.TraceEvents {
		if e.Phase != "i" || e.Scope != "t" || e.PID != 1 || e.TID == nil || e.TS == nil || e.Name == "" {
			t.Fatalf("malformed event %+v", e)
		}
		tids[*e.TID] = true
	}
	if len(tids) < 2 {
		t.Errorf("events span %d tracks, want scanner and simulator streams separated", len(tids))
	}
}

// TestTraceStatusAndMonitor: with tracing attached, the status snapshot
// reports the span and exemplar totals and the monitor line grows a
// trace term; an honest deployment captures no anomaly exemplars.
func TestTraceStatusAndMonitor(t *testing.T) {
	path := filepath.Join(t.TempDir(), "status.json")
	_, errOut := runOnce(t, "-max-targets", "200", "-quiet", "-seed", "7",
		"-trace-sample", "0", "-monitor-every", "64", "-status-json", path)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var snap struct {
		TraceSpans     uint64 `json:"trace_spans"`
		TraceExemplars uint64 `json:"trace_exemplars"`
	}
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatal(err)
	}
	if snap.TraceSpans == 0 {
		t.Error("trace_spans = 0 with full sampling")
	}
	if snap.TraceExemplars != 0 {
		t.Errorf("trace_exemplars = %d on an honest deployment, want 0", snap.TraceExemplars)
	}
	if !strings.Contains(errOut, "; trace: ") || !strings.Contains(errOut, " spans, ") {
		t.Errorf("monitor output missing the trace term:\n%s", errOut)
	}
}

// TestWatchdogFlagQuiet: -watchdog on a healthy scan must never print a
// stall diagnosis.
func TestWatchdogFlagQuiet(t *testing.T) {
	_, errOut := runOnce(t, "-max-targets", "50", "-quiet", "-watchdog")
	if strings.Contains(errOut, "watchdog:") {
		t.Errorf("healthy scan produced a stall diagnosis:\n%s", errOut)
	}
}

// TestRunTwiceNoGlobalState: the FlagSet refactor must allow repeated
// in-process invocations (the old global flag.* panicked on the second
// definition).
func TestRunTwiceNoGlobalState(t *testing.T) {
	runOnce(t, "-max-targets", "5", "-quiet")
	runOnce(t, "-max-targets", "5", "-quiet", "-output", "json")
}

// TestBatchFlag: -batch sets the scanner's drain window (the send burst
// size, visible as the scan.window gauge), and every transmit flag is a
// throughput knob over one send path — per-probe bursts (-batch 1), paced
// sends (-rate), a transmission queue (-ring) and their combination with
// probe copies (-probes) must write the default run's rows byte for byte
// and count the same targets and responders. (Batched fast-path *replay*
// needs warm flows, i.e. repeated scans over one deployment; a single
// cold CLI pass probes each destination once, so that engagement is
// asserted by the engine and oracle tests instead.)
func TestBatchFlag(t *testing.T) {
	readSnap := func(path string) (map[string]uint64, map[string]int64) {
		t.Helper()
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var snap struct {
			Counters map[string]uint64 `json:"counters"`
			Gauges   map[string]int64  `json:"gauges"`
		}
		if err := json.Unmarshal(data, &snap); err != nil {
			t.Fatal(err)
		}
		return snap.Counters, snap.Gauges
	}

	dir := t.TempDir()
	base := []string{"-max-targets", "200", "-quiet", "-seed", "9", "-status-json"}
	deflt := filepath.Join(dir, "default.json")
	wantCSV, _ := runOnce(t, append(base, deflt)...)
	dc, dg := readSnap(deflt)
	if got := dg["scan.window"]; got != 64 {
		t.Errorf("scan.window gauge = %d, want the default drain window 64", got)
	}
	if dc["scan.sent"] != 200 {
		t.Errorf("scan.sent = %d, want 200", dc["scan.sent"])
	}
	for i, tc := range []struct {
		flags  []string
		probes uint64 // copies sent of each probe
	}{
		{[]string{"-batch", "1"}, 1},
		{[]string{"-rate", "2000000"}, 1},
		{[]string{"-ring", "8"}, 1},
		{[]string{"-rate", "2000000", "-probes", "3", "-ring", "8"}, 3},
	} {
		status := filepath.Join(dir, fmt.Sprintf("run%d.json", i))
		csv, _ := runOnce(t, append(append(tc.flags, base...), status)...)
		if csv != wantCSV {
			t.Errorf("%v: CSV differs from the default run's", tc.flags)
		}
		sc, sg := readSnap(status)
		keys := []string{"scan.targets", "scan.unique"}
		if tc.probes == 1 {
			keys = append(keys, "scan.sent", "scan.received")
		} else if sc["scan.sent"] != 200*tc.probes {
			t.Errorf("%v: scan.sent = %d, want %d", tc.flags, sc["scan.sent"], 200*tc.probes)
		}
		for _, key := range keys {
			if sc[key] != dc[key] {
				t.Errorf("%v: %s = %d vs %d by default; transmit flags must not change scan results",
					tc.flags, key, sc[key], dc[key])
			}
		}
		if tc.flags[0] == "-batch" && sg["scan.window"] != 1 {
			t.Errorf("scan.window gauge = %d, want the -batch value 1", sg["scan.window"])
		}
	}
}

// TestV4HonoursScanFlags: -v4window is the same run as a v6 scan, so
// every scan flag applies — here -checkpoint and -status-json — and
// neither changes the rows, pinned by the CSV's sha256 per seed.
func TestV4HonoursScanFlags(t *testing.T) {
	pinned := map[int]string{
		1: "6402e8cfa0ec060b5f77e1a63c3c36836b892b248cd454a6b3b0b040e08438f0",
		2: "a4b1fad894b0a8dd71a9e06b2359875e4977af1b8731109240379adc244e8d29",
		3: "60fe808c5be923c0cdce80406f87835b0f5b397129cf12d16b4c6b819c0fa6e8",
	}
	for seed, want := range pinned {
		dir := t.TempDir()
		ckpt, status := filepath.Join(dir, "v4.ckpt"), filepath.Join(dir, "v4.json")
		out, _ := runOnce(t, "-seed", strconv.Itoa(seed), "-quiet", "-v4window", "192.168.0.0/20-28",
			"-checkpoint", ckpt, "-status-json", status)
		for _, path := range []string{ckpt, status} {
			if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
				t.Errorf("seed %d: %s not written (%v)", seed, filepath.Base(path), err)
			}
		}
		if got := fmt.Sprintf("%x", sha256.Sum256([]byte(out))); got != want {
			t.Errorf("seed %d: v4 CSV sha256 %s, want %s:\n%s", seed, got, want, out)
		}
	}
}

// TestShardTraceStream: one slice of a distributed scan is a one-worker
// run, so its scanner spans go to scan stream 0 and leave the
// simulator's hop stream to the simulator.
func TestShardTraceStream(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.ndjson")
	runOnce(t, "-shards", "2", "-shard", "1", "-quiet", "-trace-sample", "0", "-trace-out", path)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[string]int{}
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		var span struct {
			Stream int    `json:"stream"`
			Kind   string `json:"kind"`
		}
		if err := json.Unmarshal([]byte(line), &span); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", line, err)
		}
		kinds[span.Kind]++
		if (span.Kind == "hop") != (span.Stream == 1) {
			t.Fatalf("%s span on stream %d: scanner spans belong on stream 0, hops on 1", span.Kind, span.Stream)
		}
	}
	if kinds["sent"] == 0 || kinds["hop"] == 0 {
		t.Errorf("trace kinds %v: want both sent and hop spans", kinds)
	}
}

// TestParallelShardsTheNetwork: -parallel 2 runs the network on two
// engine shards, one per worker, so the trace carries hop spans on both
// simulator streams (after the two scan streams) and scanner spans on
// both scan streams; a window with fewer chunks than workers is refused
// by name.
func TestParallelShardsTheNetwork(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.ndjson")
	runOnce(t, "-parallel", "2", "-max-targets", "200", "-quiet", "-trace-sample", "0", "-trace-out", path)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	hops, sent := map[int]int{}, map[int]int{}
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		var span struct {
			Stream int    `json:"stream"`
			Kind   string `json:"kind"`
		}
		if err := json.Unmarshal([]byte(line), &span); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", line, err)
		}
		switch span.Kind {
		case "hop":
			hops[span.Stream]++
		case "sent":
			sent[span.Stream]++
		}
	}
	if len(hops) != 2 || hops[2] == 0 || hops[3] == 0 {
		t.Errorf("hop spans per stream %v, want streams 2 and 3 (one per engine shard)", hops)
	}
	if len(sent) != 2 || sent[0] != 200 || sent[1] != 200 {
		t.Errorf("sent spans per stream %v, want 200 on each scan stream", sent)
	}
	var out, errb bytes.Buffer
	err = run([]string{"-parallel", "32", "-width", "4", "-quiet"}, &out, &errb)
	if err == nil || !strings.Contains(err.Error(), "-width 5 or more") {
		t.Errorf("-parallel 32 over a -width 4 window: err = %v, want a refusal naming the width it needs", err)
	}
}

// csvResponders is the sorted, distinct responder column of CSV scan
// outputs.
func csvResponders(csv string) []string {
	var out []string
	for _, line := range strings.Split(strings.TrimSpace(csv), "\n") {
		if responder, _, _ := strings.Cut(line, ","); responder != "responder" {
			out = append(out, responder)
		}
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// TestShardSlices: -shards/-shard combine with -checkpoint and
// -parallel. The two checkpointed slices together find what the whole
// scan finds, and cutting a slice among -parallel workers finds what
// the slice finds.
func TestShardSlices(t *testing.T) {
	whole, _ := runOnce(t, "-quiet")
	dir := t.TempDir()
	slice := map[string]string{}
	for _, k := range []string{"0", "1"} {
		slice[k], _ = runOnce(t, "-quiet", "-shards", "2", "-shard", k, "-checkpoint", filepath.Join(dir, k+".ckpt"))
	}
	if got, want := csvResponders(slice["0"]+slice["1"]), csvResponders(whole); !slices.Equal(got, want) {
		t.Errorf("the two slices find %d responders, the whole scan %d", len(got), len(want))
	}
	par, _ := runOnce(t, "-quiet", "-shards", "2", "-shard", "0", "-parallel", "2")
	if got, want := csvResponders(par), csvResponders(slice["0"]); !slices.Equal(got, want) {
		t.Errorf("slice 0 cut among 2 workers finds %d responders, the slice alone %d", len(got), len(want))
	}
}

// TestParallelStatusCountsRows: at -parallel 4 the workers share one
// seen-set, so -status-json's scan.unique is the number of CSV rows and
// scan.duplicates the rest of scan.received.
func TestParallelStatusCountsRows(t *testing.T) {
	path := filepath.Join(t.TempDir(), "status.json")
	out, _ := runOnce(t, "-quiet", "-parallel", "4", "-status-json", path)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var snap struct {
		Counters map[string]uint64 `json:"counters"`
	}
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatal(err)
	}
	rows := uint64(strings.Count(out, "\n") - 1) // less the header
	if got := snap.Counters["scan.unique"]; got != rows || rows == 0 {
		t.Errorf("scan.unique = %d, the CSV has %d rows", got, rows)
	}
	if got, want := snap.Counters["scan.duplicates"], snap.Counters["scan.received"]-rows; got != want {
		t.Errorf("scan.duplicates = %d, want scan.received - rows = %d", got, want)
	}
}
