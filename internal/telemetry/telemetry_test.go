package telemetry

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

func httpGet(url string) (string, error) {
	resp, err := http.Get(url)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("status %s", resp.Status)
	}
	body, err := io.ReadAll(resp.Body)
	return string(body), err
}

func TestHistBucketBoundaries(t *testing.T) {
	cases := []struct {
		v    uint64
		slot int
	}{
		{0, 0}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {7, 3}, {8, 4},
		{255, 8}, {256, 9}, {1 << 62, 63}, {^uint64(0), 64},
	}
	for _, c := range cases {
		if got := histBucket(c.v); got != c.slot {
			t.Errorf("histBucket(%d) = %d, want %d", c.v, got, c.slot)
		}
		lo, hi := histBucketBounds(histBucket(c.v))
		if c.v < lo || (c.v >= hi && c.v != ^uint64(0)) {
			t.Errorf("value %d outside its bucket bounds [%d,%d)", c.v, lo, hi)
		}
	}
}

func TestHistogramCountSumQuantiles(t *testing.T) {
	r := New(Options{})
	sh := r.Shard(0)
	// 100 samples of 1, 10 of 100, 1 of 10000.
	for i := 0; i < 100; i++ {
		sh.Observe(HistReplyLatency, 1)
	}
	for i := 0; i < 10; i++ {
		sh.Observe(HistReplyLatency, 100)
	}
	sh.Observe(HistReplyLatency, 10000)
	hs := mergeHist(r.shards, HistReplyLatency)
	if hs == nil {
		t.Fatal("mergeHist returned nil for a populated histogram")
	}
	if hs.Count != 111 {
		t.Errorf("Count = %d, want 111", hs.Count)
	}
	if want := uint64(100*1 + 10*100 + 10000); hs.Sum != want {
		t.Errorf("Sum = %d, want %d", hs.Sum, want)
	}
	// P50 lands in the bucket holding 1 (bucket [1,2) → upper bound 1).
	if hs.P50 != 1 {
		t.Errorf("P50 = %d, want 1", hs.P50)
	}
	// P99 ranks at sample 109 (0-based), inside the 100s bucket [64,128).
	if hs.P99 != 127 {
		t.Errorf("P99 = %d, want 127", hs.P99)
	}
	// The max sample's bucket caps the top quantile.
	if q := hs.Quantile(1.0); q < 8192 || q > 16383 {
		t.Errorf("Quantile(1.0) = %d, want within [8192,16384)", q)
	}
	if empty := mergeHist(r.shards, HistDrainBatch); empty != nil {
		t.Errorf("mergeHist of untouched histogram = %+v, want nil", empty)
	}
}

func TestConcurrentCounters(t *testing.T) {
	r := New(Options{Shards: 4})
	const goroutines = 8
	const perG = 10000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			sh := r.Shard(g)
			for i := 0; i < perG; i++ {
				sh.Inc(ScanSent)
				sh.Add(SimBytes, 3)
				sh.Observe(HistDrainBatch, uint64(i&0xff))
				if i%64 == 0 {
					_ = r.Snapshot() // concurrent readers must not race
				}
			}
		}(g)
	}
	wg.Wait()
	if got := r.CounterTotal(ScanSent); got != goroutines*perG {
		t.Errorf("ScanSent total = %d, want %d", got, goroutines*perG)
	}
	if got := r.CounterTotal(SimBytes); got != 3*goroutines*perG {
		t.Errorf("SimBytes total = %d, want %d", got, 3*goroutines*perG)
	}
	snap := r.Snapshot()
	if snap.Histograms[HistDrainBatch.String()].Count != goroutines*perG {
		t.Errorf("histogram count = %d, want %d",
			snap.Histograms[HistDrainBatch.String()].Count, goroutines*perG)
	}
}

func TestNilRegistryAndShardAreNoOps(t *testing.T) {
	var r *Registry
	sh := r.Shard(3)
	sh.Inc(ScanSent)
	sh.Add(ScanSent, 5)
	sh.SetGauge(GaugeWindow, 7)
	sh.Observe(HistDrainBatch, 1)
	if sh.Counter(ScanSent) != 0 || sh.Gauge(GaugeWindow) != 0 {
		t.Error("nil shard mutated state")
	}
	if r.CounterTotal(ScanSent) != 0 || r.NumShards() != 0 || r.Tracer() != nil {
		t.Error("nil registry not empty")
	}
	snap := r.Snapshot()
	if snap.Shards != 0 || len(snap.PerShard) != 0 {
		t.Errorf("nil registry snapshot = %+v", snap)
	}
	var m *Monitor
	m.Tick()
	m.Final()
	m.SetTotal(10)
	if m.Lines() != 0 {
		t.Error("nil monitor recorded lines")
	}
}

func TestSnapshotJSONDeterministic(t *testing.T) {
	build := func() *Registry {
		r := New(Options{Shards: 2})
		for i := 0; i < 2; i++ {
			sh := r.Shard(i)
			sh.Add(ScanSent, uint64(10*(i+1)))
			sh.Add(ScanUnique, uint64(i))
			sh.SetGauge(GaugeWindow, 64)
			sh.Observe(HistReplyHopLimit, 55)
		}
		r.Register(func(add func(Counter, uint64)) { add(SimEvents, 42) })
		return r
	}
	var a, b bytes.Buffer
	if err := build().WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := build().WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Errorf("identical registries serialize differently:\n%s\nvs\n%s", a.String(), b.String())
	}
	snap := build().Snapshot()
	if snap.Counters[ScanSent.String()] != 30 {
		t.Errorf("merged ScanSent = %d, want 30", snap.Counters[ScanSent.String()])
	}
	if snap.Counters[SimEvents.String()] != 42 {
		t.Errorf("collector total = %d, want 42", snap.Counters[SimEvents.String()])
	}
	if len(snap.PerShard) != 2 {
		t.Errorf("PerShard has %d entries, want 2", len(snap.PerShard))
	}
	if hr := snap.HitRate(); hr != float64(1)/30 {
		t.Errorf("HitRate = %v, want 1/30", hr)
	}
}

func TestDumpTraceJSON(t *testing.T) {
	r := New(Options{Shards: 1})
	var empty bytes.Buffer
	if err := r.DumpTrace(&empty); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(empty.String(), `"spans": []`) {
		t.Errorf("dump without a tracer is not the empty document:\n%s", empty.String())
	}
	tr := NewTracer(TracerOptions{Depth: 8})
	r.AttachTracer(tr)
	addr := [16]byte{0x20, 0x01, 0x0d, 0xb8}
	tr.Span(0, SpanSent, 7, addr, 1)
	tr.Span(0, SpanAIMD, 8, [16]byte{}, 128)
	var buf bytes.Buffer
	if err := r.DumpTrace(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{`"kind": "sent"`, `"addr": "2001:db8::"`, `"kind": "aimd-window"`, `"arg": 128`, `"recorded": 2`} {
		if !strings.Contains(out, want) {
			t.Errorf("trace dump missing %s:\n%s", want, out)
		}
	}
	// The window-change span has no address and must omit the field.
	if strings.Count(out, `"addr"`) != 1 {
		t.Errorf("zero addresses must be omitted:\n%s", out)
	}
}

func TestMonitorProbeClockCadence(t *testing.T) {
	r := New(Options{})
	sh := r.Shard(0)
	var buf bytes.Buffer
	m := NewMonitor(r, &buf, 100)
	base := time.Date(2021, 6, 1, 0, 0, 0, 0, time.UTC)
	now := base
	m.SetNow(func() time.Time { return now })
	m.SetTotal(400)

	m.Tick() // starts the wall clock; nothing due yet
	if m.Lines() != 0 {
		t.Fatalf("line printed before any targets")
	}
	sh.Add(ScanTargets, 99)
	m.Tick()
	if m.Lines() != 0 {
		t.Fatalf("line printed below the cadence threshold")
	}
	sh.Add(ScanTargets, 1) // 100 total
	sh.Add(ScanSent, 100)
	sh.Add(ScanUnique, 25)
	sh.SetGauge(GaugeWindow, 64)
	now = base.Add(2 * time.Second)
	m.Tick()
	if m.Lines() != 1 {
		t.Fatalf("Lines = %d after cadence hit, want 1", m.Lines())
	}
	m.Tick() // same probe clock: no duplicate line
	if m.Lines() != 1 {
		t.Fatalf("duplicate line at unchanged probe clock")
	}
	sh.Add(ScanTargets, 300) // jump straight to 400
	sh.Add(ScanSent, 300)
	now = base.Add(4 * time.Second)
	m.Tick()
	m.Final()
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d lines, want 3:\n%s", len(lines), buf.String())
	}
	first := lines[0]
	for _, want := range []string{"0:00:02", "25.0%", "send: 100", "50 p/s", "25 hits", "25.00% hit rate", "window: 64", "ETA 0:00:06"} {
		if !strings.Contains(first, want) {
			t.Errorf("first line missing %q: %s", want, first)
		}
	}
	if !strings.HasSuffix(lines[2], "; done") {
		t.Errorf("final line %q lacks done marker", lines[2])
	}
}

func TestMonitorTickAllocFree(t *testing.T) {
	r := New(Options{})
	m := NewMonitor(r, &bytes.Buffer{}, 1000000)
	r.Shard(0).Add(ScanTargets, 1)
	m.Tick()
	allocs := testing.AllocsPerRun(1000, func() { m.Tick() })
	if allocs != 0 {
		t.Errorf("Tick allocates %.1f/op on the not-due path, want 0", allocs)
	}
}

func TestShardModulo(t *testing.T) {
	r := New(Options{Shards: 2})
	if r.Shard(0) != r.Shard(2) || r.Shard(1) != r.Shard(3) {
		t.Error("Shard does not wrap modulo the shard count")
	}
	if r.Shard(-1) != r.Shard(0) {
		t.Error("negative index does not clamp to shard 0")
	}
}

func TestCounterNamesComplete(t *testing.T) {
	for c := Counter(0); c < NumCounters; c++ {
		if c.String() == "" || strings.Contains(c.String(), "?") {
			t.Errorf("counter %d has no name", c)
		}
	}
	for g := Gauge(0); g < NumGauges; g++ {
		if g.String() == "" || strings.Contains(g.String(), "?") {
			t.Errorf("gauge %d has no name", g)
		}
	}
	for h := Hist(0); h < NumHists; h++ {
		if h.String() == "" || strings.Contains(h.String(), "?") {
			t.Errorf("hist %d has no name", h)
		}
	}
	// Snapshot documents every counter, including zeros: the JSON doubles
	// as the schema.
	snap := New(Options{}).Snapshot()
	if len(snap.Counters) != int(NumCounters) {
		t.Errorf("snapshot has %d counters, want %d", len(snap.Counters), NumCounters)
	}
}

func TestFmtDuration(t *testing.T) {
	for d, want := range map[time.Duration]string{
		0:                            "0:00:00",
		83 * time.Second:             "0:01:23",
		2*time.Hour + 3*time.Minute:  "2:03:00",
		26*time.Hour + 5*time.Second: "26:00:05",
		-5 * time.Second:             "0:00:00",
		1500 * time.Millisecond:      "0:00:01",
	} {
		if got := fmtDuration(d); got != want {
			t.Errorf("fmtDuration(%v) = %q, want %q", d, got, want)
		}
	}
}

func TestHTTPHandler(t *testing.T) {
	r := New(Options{Shards: 1})
	r.Shard(0).Add(ScanSent, 3)
	tr := NewTracer(TracerOptions{Depth: 8})
	tr.Span(0, SpanReply, 1, [16]byte{}, 9)
	r.AttachTracer(tr)
	srv, addr, err := r.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	get := func(path string) string {
		t.Helper()
		resp, err := httpGet(fmt.Sprintf("http://%s%s", addr, path))
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		return resp
	}
	if body := get("/telemetry"); !strings.Contains(body, `"scan.sent": 3`) {
		t.Errorf("/telemetry missing counter:\n%s", body)
	}
	if body := get("/trace"); !strings.Contains(body, `"kind": "reply"`) {
		t.Errorf("/trace missing span:\n%s", body)
	}
	if body := get("/debug/vars"); !strings.Contains(body, "telemetry") {
		t.Errorf("/debug/vars missing published var:\n%s", body)
	}
}
