package telemetry

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"
)

// addrN builds a deterministic test address from an index.
func addrN(i uint64) [16]byte {
	var a [16]byte
	binary.BigEndian.PutUint64(a[0:8], 0x20010db8<<32|i>>32)
	binary.BigEndian.PutUint64(a[8:16], i)
	return a
}

// TestSpanRingWraparoundBoundedMemory: fixed power-of-two storage,
// oldest spans overwritten, strict ordering preserved.
func TestSpanRingWraparoundBoundedMemory(t *testing.T) {
	r := newSpanRing(100) // rounds up to 128
	if r.Cap() != 128 {
		t.Fatalf("Cap = %d, want 128 (next power of two)", r.Cap())
	}
	for i := 0; i < 1000; i++ {
		r.record(Span{Kind: SpanSent, Clock: uint64(i), Arg: uint64(i)})
	}
	if r.Len() != 128 {
		t.Errorf("Len = %d, want capacity 128 after wrap", r.Len())
	}
	if r.Recorded() != 1000 {
		t.Errorf("Recorded = %d, want 1000", r.Recorded())
	}
	spans := r.AppendSpans(nil)
	if len(spans) != 128 {
		t.Fatalf("AppendSpans returned %d, want 128", len(spans))
	}
	// Oldest surviving span is #872, newest #999, strictly ordered.
	if spans[0].Seq != 872 || spans[127].Seq != 999 {
		t.Errorf("span range [%d,%d], want [872,999]", spans[0].Seq, spans[127].Seq)
	}
	for i := 1; i < len(spans); i++ {
		if spans[i].Seq != spans[i-1].Seq+1 {
			t.Fatalf("spans out of order at %d: %d after %d", i, spans[i].Seq, spans[i-1].Seq)
		}
	}
	if spans[0].Arg != 872 || spans[0].Clock != 872 {
		t.Errorf("oldest span payload = clock %d arg %d, want 872/872", spans[0].Clock, spans[0].Arg)
	}
}

// TestSamplerDeterministicRate pins the sampling contract: the same
// seed admits the identical target set (the property end-to-end trace
// stitching depends on), a different seed diverges, and the admit rate
// tracks 1/2^shift.
func TestSamplerDeterministicRate(t *testing.T) {
	const n = 1 << 16
	admitted := func(seed string, shift int) []uint64 {
		s := NewSampler([]byte(seed), shift)
		var out []uint64
		for i := uint64(0); i < n; i++ {
			if s.SampleAddr(addrN(i)) {
				out = append(out, i)
			}
		}
		return out
	}
	a, b := admitted("seed-a", 6), admitted("seed-a", 6)
	if len(a) != len(b) {
		t.Fatalf("same seed admitted %d vs %d targets", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at admit %d: %d vs %d", i, a[i], b[i])
		}
	}
	// 1/64 of 65536 = 1024 expected; allow ±35% (≈11σ would be a broken
	// PRF, this is a smoke bound, not a statistics test).
	if len(a) < 666 || len(a) > 1382 {
		t.Errorf("shift 6 admitted %d of %d, want ≈1024", len(a), n)
	}
	c := admitted("seed-b", 6)
	if len(a) == len(c) {
		same := true
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
		if same {
			t.Error("different seeds admitted identical target sets")
		}
	}
	// Shift 0 samples everything; SampleAddr must agree with Sample.
	all := NewSampler([]byte("x"), 0)
	for i := uint64(0); i < 100; i++ {
		a := addrN(i)
		if !all.SampleAddr(a) {
			t.Fatalf("shift 0 rejected target %d", i)
		}
		if all.Sample(binary.BigEndian.Uint64(a[0:8]), binary.BigEndian.Uint64(a[8:16])) != all.SampleAddr(a) {
			t.Fatal("Sample and SampleAddr disagree")
		}
	}
}

// fillTracer records a fixed span mix across two scan streams and one
// sim stream — the shape a sharded scan produces.
func fillTracer(tr *Tracer) {
	for i := uint64(0); i < 50; i++ {
		stream := int(i % 2)
		tr.Span(stream, SpanSent, i, addrN(i), 0)
		tr.Hop(tr.SimStream(0), 0x20010db8<<32, i, "router-1", "lan0", uint8(64-i%8), i%7 == 0)
		if i%5 == 0 {
			tr.Span(stream, SpanReply, i, addrN(i), 0)
		}
		if i%9 == 0 {
			tr.Span(stream, SpanRetry, i, addrN(i), 2)
		}
	}
	tr.Anomaly(AnomalyQuarantine, 0, 49, addrN(7))
}

// TestTracerNDJSONDeterministic: two tracers fed the identical seeded
// workload export byte-identical NDJSON, and the lines parse with the
// documented fields.
func TestTracerNDJSONDeterministic(t *testing.T) {
	opts := TracerOptions{Seed: []byte("ndjson"), ScanStreams: 2, SimStreams: 1, Depth: 256}
	var bufA, bufB bytes.Buffer
	trA, trB := NewTracer(opts), NewTracer(opts)
	fillTracer(trA)
	fillTracer(trB)
	if err := trA.WriteNDJSON(&bufA); err != nil {
		t.Fatal(err)
	}
	if err := trB.WriteNDJSON(&bufB); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bufA.Bytes(), bufB.Bytes()) {
		t.Fatal("identical workloads exported different NDJSON bytes")
	}
	lines := strings.Split(strings.TrimSpace(bufA.String()), "\n")
	if want := int(trA.SpansRecorded()); len(lines) != want {
		t.Fatalf("exported %d lines, recorded %d spans", len(lines), want)
	}
	hops := 0
	for _, line := range lines {
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", line, err)
		}
		if m["kind"] == "hop" {
			hops++
			if m["node"] != "router-1" || m["iface"] != "lan0" {
				t.Fatalf("hop span lost its location: %q", line)
			}
		}
	}
	if hops != 50 {
		t.Errorf("exported %d hop spans, want 50", hops)
	}
}

// TestTracerChromeTraceGolden pins the Perfetto/Chrome-trace export
// byte for byte on a tiny hand-built trace: one instant event per span,
// one track per stream, ts = sequence.
func TestTracerChromeTraceGolden(t *testing.T) {
	tr := NewTracer(TracerOptions{Seed: []byte("golden"), ScanStreams: 1, SimStreams: 1, Depth: 8})
	tr.Span(0, SpanSent, 3, addrN(1), 0)
	tr.Span(0, SpanRetry, 4, addrN(1), 2)
	tr.Hop(tr.SimStream(0), 0x20010db8<<32, 1, "cpe-0", "wan", 63, false)
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	want := `{"traceEvents":[
{"name":"sent","ph":"i","s":"t","pid":1,"tid":0,"ts":0,"args":{"clock":3,"addr":"2001:db8::1"}},
{"name":"retry","ph":"i","s":"t","pid":1,"tid":0,"ts":1,"args":{"clock":4,"addr":"2001:db8::1","arg":2}},
{"name":"hop","ph":"i","s":"t","pid":1,"tid":1,"ts":0,"args":{"clock":0,"addr":"2001:db8::1","node":"cpe-0","iface":"wan","hop":63,"drop":false}}
]}
`
	if buf.String() != want {
		t.Fatalf("Chrome trace drifted from the golden:\ngot:\n%s\nwant:\n%s", buf.String(), want)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) != 3 {
		t.Fatalf("parsed %d events, want 3", len(doc.TraceEvents))
	}
}

// TestTracerExemplarCapture: an anomaly freezes the firing stream's
// most recent spans into a slot, first-N slots capture, later anomalies
// only count.
func TestTracerExemplarCapture(t *testing.T) {
	tr := NewTracer(TracerOptions{Seed: []byte("ex"), ScanStreams: 1, Depth: 64, Exemplars: 2})
	for i := uint64(0); i < 40; i++ {
		tr.Span(0, SpanSent, i, addrN(i), 0)
	}
	tr.Anomaly(AnomalyAlias, 0, 40, addrN(3))
	ex := tr.Exemplars()
	if len(ex) != 1 {
		t.Fatalf("captured %d exemplars, want 1", len(ex))
	}
	e := ex[0]
	if e.Kind != AnomalyAlias || e.Clock != 40 || e.Stream != 0 || e.Addr != addrN(3) {
		t.Fatalf("exemplar header = %+v", e)
	}
	if e.N != ExemplarSpans {
		t.Fatalf("exemplar holds %d spans, want %d", e.N, ExemplarSpans)
	}
	// The tail must be the most recent ExemplarSpans spans, in order.
	for i := 0; i < e.N; i++ {
		if want := uint64(40 - ExemplarSpans + i); e.Spans[i].Clock != want {
			t.Fatalf("exemplar span %d has clock %d, want %d", i, e.Spans[i].Clock, want)
		}
	}
	for k := AnomalyKind(0); int(k) < 6; k++ {
		tr.Anomaly(AnomalyShed, 0, 41, addrN(0))
	}
	if got := tr.ExemplarCount(); got != 2 {
		t.Errorf("ExemplarCount = %d, want capacity 2", got)
	}
	if got := tr.AnomalyCount(); got != 7 {
		t.Errorf("AnomalyCount = %d, want 7 (every firing counted)", got)
	}
}

// TestTracerScanIndexStaysInScanStreams: a scan index past ScanStreams
// wraps into the scan streams, like Registry.Shard; it never evicts the
// simulator's hop spans from their stream.
func TestTracerScanIndexStaysInScanStreams(t *testing.T) {
	tr := NewTracer(TracerOptions{Seed: []byte("wrap"), ScanStreams: 2, SimStreams: 1, Depth: 16})
	tr.Hop(tr.SimStream(0), 1, 2, "node", "iface", 64, false)
	for i, stream := range []int{2, 3, 5, -1} {
		tr.Span(stream, SpanSent, uint64(i), addrN(uint64(i)), 0)
	}
	tr.Anomaly(AnomalyShed, 3, 9, addrN(0))
	want := map[int]int{0: 2, 1: 2, 2: 1}
	for stream, n := range want {
		if got := len(tr.AppendSpans(stream, nil)); got != n {
			t.Errorf("stream %d holds %d spans, want %d", stream, got, n)
		}
	}
	if sim := tr.AppendSpans(tr.SimStream(0), nil); sim[0].Kind != SpanHop {
		t.Errorf("sim stream holds %v, want only its hop span", sim)
	}
	for _, e := range tr.Exemplars() {
		if e.Stream != 1 {
			t.Errorf("exemplar on stream %d, want scan stream 1", e.Stream)
		}
	}
}

// TestTracerRecordAllocFree: the hot-path recording primitives — the
// sampling decision, span recording, hop recording — allocate nothing.
func TestTracerRecordAllocFree(t *testing.T) {
	tr := NewTracer(TracerOptions{Seed: []byte("alloc"), ScanStreams: 2, SimStreams: 1, Depth: 128})
	a := addrN(7)
	var i uint64
	allocs := testing.AllocsPerRun(1000, func() {
		i++
		tr.SampleAddr(a)
		tr.Span(0, SpanSent, i, a, 0)
		tr.Hop(tr.SimStream(0), 1, i, "node", "iface", 64, false)
	})
	if allocs != 0 {
		t.Errorf("recording allocates %.1f/op, want 0", allocs)
	}
}

// TestTracerNilSafe: every tracer and watchdog method is a no-op on a
// nil receiver — the detached fast path the scanner wires
// unconditionally.
func TestTracerNilSafe(t *testing.T) {
	var tr *Tracer
	if tr.Sample(1, 2) || tr.SampleAddr(addrN(1)) {
		t.Error("nil tracer sampled a target")
	}
	tr.Span(0, SpanSent, 1, addrN(1), 0)
	tr.Hop(0, 1, 2, "n", "i", 64, false)
	tr.Anomaly(AnomalyShed, 0, 1, addrN(1))
	if tr.SpansRecorded() != 0 || tr.ExemplarCount() != 0 || tr.AnomalyCount() != 0 {
		t.Error("nil tracer reports recorded state")
	}
	if tr.Exemplars() != nil || tr.LastKind(0) != 0 || tr.Streams() != 0 || tr.SimStream(3) != 0 ||
		tr.AppendSpans(0, nil) != nil {
		t.Error("nil tracer accessors returned non-zero values")
	}
	if err := tr.WriteNDJSON(io.Discard); err != nil {
		t.Error(err)
	}
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Error(err)
	}
	if buf.String() != "{\"traceEvents\":[]}\n" {
		t.Errorf("nil Chrome trace = %q", buf.String())
	}
	var wd *Watchdog
	wd.Stage(0, "send")
	wd.Beat(0, 1, 2, 3)
	if wd.Check(10) != nil {
		t.Error("nil watchdog diagnosed a stall")
	}
}

// TestTracerConcurrentStress hammers recording across streams together
// with anomalies and every reader; run under -race in CI, the test
// itself only asserts the lifetime counts survive.
func TestTracerConcurrentStress(t *testing.T) {
	tr := NewTracer(TracerOptions{Seed: []byte("race"), ScanStreams: 4, SimStreams: 2, Depth: 64, Exemplars: 4})
	const perStream = 2000
	var wg sync.WaitGroup
	for s := 0; s < 4; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := uint64(0); i < perStream; i++ {
				tr.Span(s, SpanSent, i, addrN(i), 0)
				if i%97 == 0 {
					tr.Anomaly(AnomalyRetryExhausted, s, i, addrN(i))
				}
			}
		}(s)
	}
	for s := 0; s < 2; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := uint64(0); i < perStream; i++ {
				tr.Hop(tr.SimStream(s), 1, i, "node", "iface", 64, false)
			}
		}(s)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			tr.SpansRecorded()
			tr.Exemplars()
			tr.LastKind(i % 6)
			_ = tr.WriteNDJSON(io.Discard)
			_ = tr.WriteChromeTrace(io.Discard)
		}
	}()
	wg.Wait()
	if got := tr.SpansRecorded(); got != 6*perStream {
		t.Errorf("SpansRecorded = %d, want %d", got, 6*perStream)
	}
	if got := tr.ExemplarCount(); got != 4 {
		t.Errorf("ExemplarCount = %d, want capacity 4", got)
	}
}

// TestWatchdogDiagnosis drives the full watchdog lifecycle: baseline,
// progress exemption, stall detection with the trace-stream last-span,
// recovery, and the StageDone exemption.
func TestWatchdogDiagnosis(t *testing.T) {
	tr := NewTracer(TracerOptions{Seed: []byte("wd"), ScanStreams: 2, Depth: 16})
	wd := NewWatchdog(2, 4, tr)
	wd.Stage(0, "send")
	wd.Stage(1, "send")
	tr.Span(1, SpanRingStall, 9, addrN(1), 3)

	// Clock 1 baselines; nothing can be diagnosed yet.
	if ds := wd.Check(1); len(ds) != 0 {
		t.Fatalf("first Check diagnosed %v", ds)
	}
	// Shard 0 makes progress each tick, shard 1 freezes at sent=5 — a
	// cursor move observed at clock 2, idle ever after.
	wd.Beat(1, 5, 7, 11)
	for clock := uint64(2); clock < 6; clock++ {
		wd.Beat(0, clock*10, 0, 0)
		if ds := wd.Check(clock); len(ds) != 0 {
			t.Fatalf("clock %d below threshold diagnosed %v", clock, ds)
		}
	}
	wd.Beat(0, 100, 0, 0)
	ds := wd.Check(6) // shard 1 idle since clock 2: 4 ticks = threshold
	if len(ds) != 1 {
		t.Fatalf("got %d diagnoses, want 1: %v", len(ds), ds)
	}
	d := ds[0]
	if d.Shard != 1 || d.Stage != "send" || d.Sent != 5 || d.RingDepth != 7 ||
		d.DrainAge != 11 || d.Beats != 1 || d.StalledFor != 4 || d.LastSpan != "ring-stall" {
		t.Fatalf("diagnosis = %+v", d)
	}
	want := `watchdog: shard 1 stalled in stage "send" for 4 ticks (sent=5, ring=7, drain-age=11, beats=1, last-span=ring-stall)`
	if d.String() != want {
		t.Errorf("String() = %q, want %q", d.String(), want)
	}
	// Progress clears the stall; StageDone exempts a frozen cursor.
	wd.Beat(1, 6, 0, 0)
	if ds := wd.Check(7); len(ds) != 0 {
		t.Fatalf("progress did not clear the stall: %v", ds)
	}
	wd.Stage(0, StageDone)
	wd.Stage(1, StageDone)
	if ds := wd.Check(100); len(ds) != 0 {
		t.Fatalf("done shard diagnosed: %v", ds)
	}
	if ds := wd.Check(1 << 40); len(ds) != 0 {
		t.Fatalf("done shard diagnosed at far clock: %v", ds)
	}
}

// TestWatchdogWithoutTracer: a watchdog with no tracer attached reports
// last-span "none" instead of panicking.
func TestWatchdogWithoutTracer(t *testing.T) {
	wd := NewWatchdog(1, 2, nil)
	wd.Stage(0, "drain")
	wd.Check(1)
	ds := wd.Check(3)
	if len(ds) != 1 {
		t.Fatalf("got %d diagnoses, want 1", len(ds))
	}
	if ds[0].LastSpan != "none" {
		t.Errorf("LastSpan = %q, want \"none\"", ds[0].LastSpan)
	}
}

// TestSpanKindNamesComplete mirrors TestCounterNamesComplete for the
// span and anomaly vocabularies.
func TestSpanKindNamesComplete(t *testing.T) {
	for k := SpanSent; k <= SpanCheckpoint; k++ {
		if k.String() == "unknown" {
			t.Errorf("span kind %d has no name", k)
		}
	}
	if SpanKind(0).String() != "unknown" || SpanKind(200).String() != "unknown" {
		t.Error("out-of-range span kinds must read unknown")
	}
	for k := AnomalyQuarantine; k <= AnomalyShed; k++ {
		if k.String() == "unknown" {
			t.Errorf("anomaly kind %d has no name", k)
		}
	}
	seen := map[string]bool{}
	for k := SpanSent; k <= SpanCheckpoint; k++ {
		if seen[k.String()] {
			t.Errorf("duplicate span kind name %q", k.String())
		}
		seen[k.String()] = true
	}
	_ = fmt.Sprintf("%v", SpanSent) // String wired into fmt
}
