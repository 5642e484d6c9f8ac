// Package repro's benchmark harness regenerates every table and figure
// of the paper's evaluation (go test -bench=. -benchmem). The heavy
// measurement stages run once per process and are shared; each benchmark
// then times its aggregation step and prints the artifact.
package repro

import (
	"context"
	"crypto/hmac"
	"crypto/sha256"
	"fmt"
	"io"
	"math/rand"
	"os"
	"strconv"
	"sync"
	"testing"

	"repro/internal/analysis"
	"repro/internal/bloom"
	"repro/internal/edgy"
	"repro/internal/experiments"
	"repro/internal/ipv6"
	"repro/internal/loopscan"
	"repro/internal/lpm"
	"repro/internal/perm"
	"repro/internal/telemetry"
	"repro/internal/topo"
	"repro/internal/uint128"
	"repro/internal/xmap"
)

var (
	suiteOnce sync.Once
	suite     *experiments.Suite
)

// benchSuite returns the shared suite, sized between the unit-test Quick
// configuration and the full default so benches finish promptly.
func benchSuite() *experiments.Suite {
	suiteOnce.Do(func() {
		suite = experiments.New(experiments.Options{
			Seed: 2021, Scale: 0.0005, WindowWidth: 11, MaxDevicesPerISP: 400,
			BGPASes: 120, BGPWindowWidth: 7,
		})
	})
	return suite
}

var printed sync.Map

// printOnce emits an artifact a single time per process.
func printOnce(key, text string) {
	if _, loaded := printed.LoadOrStore(key, true); !loaded {
		fmt.Printf("\n%s\n", text)
	}
}

func benchArtifact(b *testing.B, key string, fn func() (string, error)) {
	b.Helper()
	s := benchSuite()
	_ = s
	// Warm the pipeline outside the timed region.
	text, err := fn()
	if err != nil {
		b.Fatal(err)
	}
	printOnce(key, text)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fn(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTableI(b *testing.B) {
	benchArtifact(b, "tableI", benchSuite().TableI)
}

func BenchmarkTableII(b *testing.B) {
	benchArtifact(b, "tableII", func() (string, error) {
		t, _, err := benchSuite().TableII()
		return t, err
	})
}

func BenchmarkTableIII(b *testing.B) {
	benchArtifact(b, "tableIII", func() (string, error) {
		t, _, err := benchSuite().TableIII()
		return t, err
	})
}

func BenchmarkTableIV(b *testing.B) {
	benchArtifact(b, "tableIV", benchSuite().TableIV)
}

func BenchmarkTableV(b *testing.B) {
	benchArtifact(b, "tableV", func() (string, error) {
		t, _, err := benchSuite().TableV()
		return t, err
	})
}

func BenchmarkTableVI(b *testing.B) {
	benchArtifact(b, "tableVI", benchSuite().TableVI)
}

func BenchmarkTableVII(b *testing.B) {
	benchArtifact(b, "tableVII", func() (string, error) {
		t, _, err := benchSuite().TableVII()
		return t, err
	})
}

func BenchmarkTableVIII(b *testing.B) {
	benchArtifact(b, "tableVIII", benchSuite().TableVIII)
}

func BenchmarkFigure2(b *testing.B) {
	benchArtifact(b, "figure2", benchSuite().Figure2)
}

func BenchmarkFigure3(b *testing.B) {
	benchArtifact(b, "figure3", benchSuite().Figure3)
}

func BenchmarkTableIX(b *testing.B) {
	benchArtifact(b, "tableIX", func() (string, error) {
		t, _, err := benchSuite().TableIX()
		return t, err
	})
}

func BenchmarkTableX(b *testing.B) {
	benchArtifact(b, "tableX", func() (string, error) {
		t, _, err := benchSuite().TableX()
		return t, err
	})
}

func BenchmarkFigure5(b *testing.B) {
	benchArtifact(b, "figure5", benchSuite().Figure5)
}

func BenchmarkTableXI(b *testing.B) {
	benchArtifact(b, "tableXI", func() (string, error) {
		t, _, err := benchSuite().TableXI()
		return t, err
	})
}

func BenchmarkFigure6(b *testing.B) {
	benchArtifact(b, "figure6", benchSuite().Figure6)
}

func BenchmarkTableXII(b *testing.B) {
	benchArtifact(b, "tableXII", func() (string, error) {
		t, _, err := benchSuite().TableXII()
		return t, err
	})
}

// benchBatch returns the scanner drain window (send burst size) the
// throughput benchmarks run with: the XMAP_BENCH_BATCH environment
// variable when set (CI exercises 1 — per-probe sends — against the
// default), otherwise 0 for the scanner's default window.
func benchBatch(b *testing.B) int {
	v := os.Getenv("XMAP_BENCH_BATCH")
	if v == "" {
		return 0
	}
	n, err := strconv.Atoi(v)
	if err != nil || n < 0 {
		b.Fatalf("bad XMAP_BENCH_BATCH %q", v)
	}
	return n
}

// BenchmarkScannerThroughput measures end-to-end probes per second
// against the simulator (Section IV-E: the paper sends 25 kpps against
// the real Internet; the simulated substrate is the bottleneck here).
func BenchmarkScannerThroughput(b *testing.B) {
	dep, err := topo.Build(topo.Config{
		Seed: 3, Scale: 0.0005, WindowWidth: 14, MaxDevicesPerISP: 4000, OnlyISPs: []int{13},
	})
	if err != nil {
		b.Fatal(err)
	}
	isp := dep.ISPs[0]
	drv := xmap.NewSimDriver(dep.Engine, dep.Edge)
	b.ResetTimer()
	sent := uint64(0)
	for sent < uint64(b.N) {
		scanner, err := xmap.New(xmap.Config{
			Window:     isp.Window,
			Seed:       []byte(fmt.Sprintf("tp-%d", sent)),
			DrainEvery: benchBatch(b),
			MaxTargets: uint64(b.N) - sent,
		}, drv)
		if err != nil {
			b.Fatal(err)
		}
		stats, err := scanner.Run(context.Background(), nil)
		if err != nil {
			b.Fatal(err)
		}
		if stats.Sent == 0 {
			b.Fatal("no probes sent")
		}
		sent += stats.Sent
	}
	b.ReportMetric(float64(sent), "probes")
	b.ReportMetric(float64(dep.Engine.Counters().Events)/float64(sent), "events/probe")
}

// BenchmarkScannerDefended is BenchmarkScannerThroughput with the
// adversarial defenses armed (Config.Defend): the alias detector rides
// every validated reply and the shedding check every drain. Against the
// honest benchmark deployment the detector's trie stays empty, so this
// measures the pure bookkeeping overhead — the contract is a few
// percent over BenchmarkScannerThroughput in the same run. (The name
// deliberately avoids bench.sh's gate pattern: the defended path is a
// contract between these two benchmarks, not a snapshot series.)
func BenchmarkScannerDefended(b *testing.B) {
	dep, err := topo.Build(topo.Config{
		Seed: 3, Scale: 0.0005, WindowWidth: 14, MaxDevicesPerISP: 4000, OnlyISPs: []int{13},
	})
	if err != nil {
		b.Fatal(err)
	}
	isp := dep.ISPs[0]
	drv := xmap.NewSimDriver(dep.Engine, dep.Edge)
	b.ReportAllocs()
	b.ResetTimer()
	sent := uint64(0)
	for sent < uint64(b.N) {
		scanner, err := xmap.New(xmap.Config{
			Window:     isp.Window,
			Seed:       []byte(fmt.Sprintf("tpd-%d", sent)),
			DrainEvery: benchBatch(b),
			MaxTargets: uint64(b.N) - sent,
			Defend:     true,
		}, drv)
		if err != nil {
			b.Fatal(err)
		}
		stats, err := scanner.Run(context.Background(), nil)
		if err != nil {
			b.Fatal(err)
		}
		if stats.Sent == 0 {
			b.Fatal("no probes sent")
		}
		if stats.AliasDetected != 0 || stats.Quarantined != 0 {
			b.Fatalf("defenses tripped on the honest deployment: detected=%d quarantined=%d",
				stats.AliasDetected, stats.Quarantined)
		}
		sent += stats.Sent
	}
	b.ReportMetric(float64(sent), "probes")
}

// BenchmarkScannerThroughputInterpreted is BenchmarkScannerThroughput
// with the compiled forwarding fast path disabled: every link crossing
// is its own pumped event. The gap between the two benchmarks — both
// in ns/op and in the events/probe metric — is the fast path's win, and
// the alloc gate holds the interpreted engine to zero steady-state
// allocations too.
func BenchmarkScannerThroughputInterpreted(b *testing.B) {
	dep, err := topo.Build(topo.Config{
		Seed: 3, Scale: 0.0005, WindowWidth: 14, MaxDevicesPerISP: 4000, OnlyISPs: []int{13},
	})
	if err != nil {
		b.Fatal(err)
	}
	dep.Engine.SetFastPath(false)
	isp := dep.ISPs[0]
	drv := xmap.NewSimDriver(dep.Engine, dep.Edge)
	b.ResetTimer()
	sent := uint64(0)
	for sent < uint64(b.N) {
		scanner, err := xmap.New(xmap.Config{
			Window:     isp.Window,
			Seed:       []byte(fmt.Sprintf("tpx-%d", sent)),
			DrainEvery: benchBatch(b),
			MaxTargets: uint64(b.N) - sent,
		}, drv)
		if err != nil {
			b.Fatal(err)
		}
		stats, err := scanner.Run(context.Background(), nil)
		if err != nil {
			b.Fatal(err)
		}
		if stats.Sent == 0 {
			b.Fatal("no probes sent")
		}
		sent += stats.Sent
	}
	b.ReportMetric(float64(sent), "probes")
	b.ReportMetric(float64(dep.Engine.Counters().Events)/float64(sent), "events/probe")
}

// BenchmarkScannerThroughputInstrumented is BenchmarkScannerThroughput
// with the full telemetry stack attached — sharded counters, histograms,
// the engine collector and a (quiet) monitor.
// The contract it guards: instrumentation stays allocation-free and
// within a few percent of the bare scanner (compare ns/op against
// BenchmarkScannerThroughput in the same run).
func BenchmarkScannerThroughputInstrumented(b *testing.B) {
	dep, err := topo.Build(topo.Config{
		Seed: 3, Scale: 0.0005, WindowWidth: 14, MaxDevicesPerISP: 4000, OnlyISPs: []int{13},
	})
	if err != nil {
		b.Fatal(err)
	}
	isp := dep.ISPs[0]
	drv := xmap.NewSimDriver(dep.Engine, dep.Edge)
	reg := telemetry.New(telemetry.Options{Shards: 1})
	drv.RegisterTelemetry(reg)
	// Cadence beyond b.N keeps the monitor on its allocation-free
	// not-due path, the steady state between status lines.
	mon := telemetry.NewMonitor(reg, io.Discard, 1<<30)
	b.ReportAllocs()
	b.ResetTimer()
	sent := uint64(0)
	for sent < uint64(b.N) {
		scanner, err := xmap.New(xmap.Config{
			Window:     isp.Window,
			Seed:       []byte(fmt.Sprintf("tpi-%d", sent)),
			DrainEvery: benchBatch(b),
			MaxTargets: uint64(b.N) - sent,
			Telemetry:  reg,
			Monitor:    mon,
		}, drv)
		if err != nil {
			b.Fatal(err)
		}
		stats, err := scanner.Run(context.Background(), nil)
		if err != nil {
			b.Fatal(err)
		}
		if stats.Sent == 0 {
			b.Fatal("no probes sent")
		}
		sent += stats.Sent
	}
	b.StopTimer()
	if got := reg.CounterTotal(telemetry.ScanSent); got != sent {
		b.Fatalf("telemetry counted %d sends, scanner sent %d", got, sent)
	}
	b.ReportMetric(float64(sent), "probes")
}

// BenchmarkScannerTraced is BenchmarkScannerThroughput with the
// probe-lifecycle tracer attached at the production sampling rate
// (1/1024) plus the stall watchdog's stage/beat bookkeeping. The
// contract it guards: tracing stays allocation-free (fixed-size span
// slots, no per-span boxing) and within a few percent of the bare
// scanner — compare ns/op against BenchmarkScannerThroughput in the
// same run. The bare benchmarks never attach a tracer, so the 423
// ns/probe gate measures the feature compiled in but switched off.
func BenchmarkScannerTraced(b *testing.B) {
	dep, err := topo.Build(topo.Config{
		Seed: 3, Scale: 0.0005, WindowWidth: 14, MaxDevicesPerISP: 4000, OnlyISPs: []int{13},
	})
	if err != nil {
		b.Fatal(err)
	}
	isp := dep.ISPs[0]
	drv := xmap.NewSimDriver(dep.Engine, dep.Edge)
	tracer := telemetry.NewTracer(telemetry.TracerOptions{
		Seed:        []byte("bench-trace"),
		SampleShift: 10, // 1/1024, the production default
		ScanStreams: 1,
		SimStreams:  1,
	})
	drv.RegisterTracer(tracer)
	wd := telemetry.NewWatchdog(1, 8, tracer)
	b.ReportAllocs()
	b.ResetTimer()
	sent := uint64(0)
	for sent < uint64(b.N) {
		scanner, err := xmap.New(xmap.Config{
			Window:     isp.Window,
			Seed:       []byte(fmt.Sprintf("tpt-%d", sent)),
			DrainEvery: benchBatch(b),
			MaxTargets: uint64(b.N) - sent,
			Tracer:     tracer,
			Watchdog:   wd,
		}, drv)
		if err != nil {
			b.Fatal(err)
		}
		stats, err := scanner.Run(context.Background(), nil)
		if err != nil {
			b.Fatal(err)
		}
		if stats.Sent == 0 {
			b.Fatal("no probes sent")
		}
		sent += stats.Sent
	}
	b.StopTimer()
	// At 1/1024 sampling a large-N run must have traced something; a
	// zero here means the sampler or the wiring silently detached.
	if b.N > 100000 && tracer.SpansRecorded() == 0 {
		b.Fatal("tracer recorded no spans")
	}
	b.ReportMetric(float64(sent), "probes")
	b.ReportMetric(float64(tracer.SpansRecorded()), "spans")
}

// BenchmarkScannerThroughputSharded is the same measurement against an
// 8-shard EngineGroup deployment: eight scanner goroutines pump eight
// serialization domains concurrently through a GroupDriver. Compare
// probes/sec against BenchmarkScannerThroughput for the sharding
// speedup.
func BenchmarkScannerThroughputSharded(b *testing.B) {
	const shards = 8
	dep, err := topo.Build(topo.Config{
		Seed: 3, Scale: 0.0005, WindowWidth: 14, MaxDevicesPerISP: 4000, OnlyISPs: []int{13},
		Shards: shards,
	})
	if err != nil {
		b.Fatal(err)
	}
	isp := dep.ISPs[0]
	drv := xmap.NewGroupDriver(dep.Group, dep.Edge)
	b.ResetTimer()
	sent := uint64(0)
	for sent < uint64(b.N) {
		remaining := uint64(b.N) - sent
		stats, err := xmap.ScanParallel(context.Background(), xmap.Config{
			Window:     isp.Window,
			Seed:       []byte(fmt.Sprintf("tps-%d", sent)),
			DrainEvery: benchBatch(b),
			MaxTargets: (remaining + shards - 1) / shards,
			RingSize:   1024,
		}, drv, shards, nil)
		if err != nil {
			b.Fatal(err)
		}
		if stats.Sent == 0 {
			b.Fatal("no probes sent")
		}
		sent += stats.Sent
	}
	b.ReportMetric(float64(sent), "probes")
	b.ReportMetric(float64(dep.Group.Counters().Events)/float64(sent), "events/probe")
}

// BenchmarkTopoBuild is the set-up a whole cmd/xmap sweep pays before its
// first probe: the 15-ISP, width-20 deployment of bench's scan_cold
// workload. Run it with -benchmem; B/op is the build's garbage. Run it
// with -cpu 1,2: topo.Build places and constructs whole ISPs on
// GOMAXPROCS workers while the calling goroutine attaches them, so -cpu
// 1 times the whole build's work on one core and -cpu 2 shows what the
// concurrent workers save. It is not in scripts/bench.sh's pattern: that
// script's -short -check mode runs every benchmark 10,000 times, which
// here would be about 25 minutes of builds.
func BenchmarkTopoBuild(b *testing.B) {
	cfg := topo.Config{Seed: 1, Scale: 0.0005, WindowWidth: 20, MaxDevicesPerISP: 4000}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := topo.Build(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// benchResponses is a periphery-shaped result stream for the output
// benchmarks: full-length SLAAC responders, each probed at another /64 of
// the same block, as a dense window reports them.
func benchResponses() []xmap.Response {
	rng := rand.New(rand.NewSource(9))
	rs := make([]xmap.Response, 1024)
	for i := range rs {
		hi := 0x2401_0db8_0000_0000 | uint64(rng.Intn(1<<20))
		rs[i] = xmap.Response{
			Responder: ipv6.AddrFrom128(uint128.New(hi, rng.Uint64())),
			ProbeDst:  ipv6.AddrFrom128(uint128.New(hi+1, rng.Uint64())),
			Kind:      xmap.KindDestUnreach,
			Code:      3,
		}
	}
	return rs
}

func benchOutputWrite(b *testing.B, out xmap.OutputModule) {
	rs := benchResponses()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := out.Write(rs[i%len(rs)]); err != nil {
			b.Fatal(err)
		}
	}
	if err := out.Flush(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkCSVOutputWrite is the cost of one result row through the CSV
// module, buffer flushes included. The contract bench.sh gates: zero
// allocations per row, like every scanner row above.
func BenchmarkCSVOutputWrite(b *testing.B) {
	out, err := xmap.NewCSVOutput(io.Discard)
	if err != nil {
		b.Fatal(err)
	}
	benchOutputWrite(b, out)
}

// BenchmarkJSONOutputWrite is BenchmarkCSVOutputWrite for NDJSON.
func BenchmarkJSONOutputWrite(b *testing.B) {
	benchOutputWrite(b, xmap.NewJSONOutput(io.Discard))
}

// BenchmarkAddrAppendTo formats one address into a reused buffer — the
// formatter under both output modules and Addr.String.
func BenchmarkAddrAppendTo(b *testing.B) {
	rs := benchResponses()
	buf := make([]byte, 0, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = rs[i%len(rs)].Responder.AppendTo(buf[:0])
	}
	if len(buf) == 0 {
		b.Fatal("nothing formatted")
	}
}

// BenchmarkAmplification measures the per-packet cost of the loop attack
// and prints the achieved amplification factor (Section VI-A: >200).
func BenchmarkAmplification(b *testing.B) {
	dep, err := topo.Build(topo.Config{
		Seed: 5, Scale: 0.0005, WindowWidth: 10, MaxDevicesPerISP: 200, OnlyISPs: []int{12},
	})
	if err != nil {
		b.Fatal(err)
	}
	var victim *topo.Device
	for _, d := range dep.ISPs[0].Devices {
		if d.VulnLAN {
			victim = d
			break
		}
	}
	if victim == nil {
		b.Fatal("no vulnerable device")
	}
	drv := xmap.NewSimDriver(dep.Engine, dep.Edge)
	deleg := victim.CPE.Delegated()
	n, _ := deleg.NumSub(64)
	sub, err := deleg.Sub(64, n.Sub64(1))
	if err != nil {
		b.Fatal(err)
	}
	target := ipv6.SLAAC(sub, 0xbad)
	res, err := loopscan.MeasureAmplification(drv, target, victim.AccessLink)
	if err != nil {
		b.Fatal(err)
	}
	printOnce("amplification", fmt.Sprintf(
		"Amplification: one packet moved %d packets (%d bytes) on the victim link -> %.0fx",
		res.LinkPackets, res.LinkBytes, res.Factor))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := loopscan.MeasureAmplification(drv, target, victim.AccessLink); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.Factor, "amp-factor")
}

// --- Ablation benches (DESIGN.md "design choices") ---

// BenchmarkAblationIteration compares the cyclic-group permutation
// against sequential iteration, and prints the subnet-load dispersal
// that justifies the permutation (the paper's "traffic is spread to
// different sub-networks").
func BenchmarkAblationIteration(b *testing.B) {
	size := uint128.One.Lsh(24)
	b.Run("cyclic", func(b *testing.B) {
		c, err := perm.NewCycle(size, []byte("ablate"))
		if err != nil {
			b.Fatal(err)
		}
		it := c.Iterate()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, ok := it.Next(); !ok {
				it = c.Iterate()
			}
		}
	})
	b.Run("sequential", func(b *testing.B) {
		it := perm.NewSequential(size)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, ok := it.Next(); !ok {
				it = perm.NewSequential(size)
			}
		}
	})

	// Dispersal: among the first 4096 targets, the worst-case number
	// landing in one /8-of-the-space bucket.
	burst := func(next func() (uint128.Uint128, bool)) int {
		counts := map[uint64]int{}
		worst := 0
		for i := 0; i < 4096; i++ {
			v, ok := next()
			if !ok {
				break
			}
			bucket := v.Rsh(16).Lo // 256 buckets over the 2^24 space
			counts[bucket]++
			if counts[bucket] > worst {
				worst = counts[bucket]
			}
		}
		return worst
	}
	c, err := perm.NewCycle(size, []byte("ablate"))
	if err != nil {
		b.Fatal(err)
	}
	itC := c.Iterate()
	itS := perm.NewSequential(size)
	printOnce("ablate-iter", fmt.Sprintf(
		"Ablation(iteration): worst per-/8-bucket load in first 4096 probes: cyclic=%d sequential=%d",
		burst(itC.Next), burst(itS.Next)))
}

// BenchmarkAblationDedup compares exact-map and Bloom-filter response
// dedup.
func BenchmarkAblationDedup(b *testing.B) {
	mkAddrs := func(n int) []ipv6.Addr {
		rng := rand.New(rand.NewSource(1))
		out := make([]ipv6.Addr, n)
		for i := range out {
			out[i] = ipv6.AddrFrom128(uint128.New(rng.Uint64(), rng.Uint64()))
		}
		return out
	}
	addrs := mkAddrs(1 << 16)
	b.Run("map", func(b *testing.B) {
		m := make(map[ipv6.Addr]struct{}, len(addrs))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			a := addrs[i%len(addrs)]
			if _, ok := m[a]; !ok {
				m[a] = struct{}{}
			}
		}
	})
	b.Run("bloom", func(b *testing.B) {
		f, err := bloom.New(uint64(len(addrs)), 1e-4)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			a := addrs[i%len(addrs)]
			u := a.Uint128()
			if !f.ContainsUint64Pair(u.Hi, u.Lo) {
				f.AddUint64Pair(u.Hi, u.Lo)
			}
		}
	})
}

// BenchmarkAblationValidation compares stateless HMAC validation against
// a stateful per-target table, the ZMap design decision XMap inherits.
func BenchmarkAblationValidation(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	targets := make([]ipv6.Addr, 1<<16)
	for i := range targets {
		targets[i] = ipv6.AddrFrom128(uint128.New(rng.Uint64(), rng.Uint64()))
	}
	b.Run("stateless-hmac", func(b *testing.B) {
		key := []byte("seed")
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			mac := hmac.New(sha256.New, key)
			a := targets[i%len(targets)].Bytes()
			mac.Write(a[:])
			_ = mac.Sum(nil)
		}
	})
	b.Run("stateful-table", func(b *testing.B) {
		// The alternative: remember every in-flight probe.
		table := make(map[ipv6.Addr]uint32, len(targets))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			a := targets[i%len(targets)]
			table[a] = uint32(i)
			_ = table[a]
		}
		b.ReportMetric(float64(len(table)*24), "state-bytes")
	})
}

// BenchmarkAblationLPM compares the routing trie against a linear table.
func BenchmarkAblationLPM(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	type entry struct {
		p ipv6.Prefix
		v int
	}
	entries := make([]entry, 4096)
	trie := lpm.New[int]()
	for i := range entries {
		p := ipv6.MustPrefix(ipv6.AddrFrom128(uint128.New(rng.Uint64(), 0)), 32+rng.Intn(33))
		entries[i] = entry{p, i}
		trie.Insert(p, i)
	}
	addrs := make([]ipv6.Addr, 1024)
	for i := range addrs {
		addrs[i] = ipv6.AddrFrom128(uint128.New(rng.Uint64(), rng.Uint64()))
	}
	b.Run("trie", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			trie.Lookup(addrs[i%len(addrs)])
		}
	})
	b.Run("linear", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			a := addrs[i%len(addrs)]
			best, bits := -1, -1
			for _, e := range entries {
				if e.p.Bits() > bits && e.p.Contains(a) {
					best, bits = e.v, e.p.Bits()
				}
			}
			_ = best
		}
	})
}

// BenchmarkDiscoveryEndToEnd is the full Table II pipeline: deployment
// scan at bench scale, per probe.
func BenchmarkDiscoveryEndToEnd(b *testing.B) {
	dep, err := topo.Build(topo.Config{
		Seed: 9, Scale: 0.0005, WindowWidth: 12, MaxDevicesPerISP: 1000, OnlyISPs: []int{13},
	})
	if err != nil {
		b.Fatal(err)
	}
	isp := dep.ISPs[0]
	drv := xmap.NewSimDriver(dep.Engine, dep.Edge)
	b.ResetTimer()
	done := 0
	for done < b.N {
		scanner, err := xmap.New(xmap.Config{
			Window:     isp.Window,
			Seed:       []byte(fmt.Sprintf("e2e-%d", done)),
			MaxTargets: uint64(b.N - done),
		}, drv)
		if err != nil {
			b.Fatal(err)
		}
		var recs []*analysis.PeripheryRecord
		stats, err := scanner.Run(context.Background(), func(r xmap.Response) {
			recs = append(recs, analysis.Enrich(r, dep.OUI, isp.Spec.Index))
		})
		if err != nil {
			b.Fatal(err)
		}
		done += int(stats.Sent)
		if stats.Sent == 0 {
			break
		}
	}
}

// BenchmarkBaselineComparison reproduces the Section III efficiency
// claim: probes spent per discovered periphery, XMap's
// unreachable-message technique vs the traceroute baseline ([77]).
func BenchmarkBaselineComparison(b *testing.B) {
	dep, err := topo.Build(topo.Config{
		Seed: 61, Scale: 0.0005, WindowWidth: 10, MaxDevicesPerISP: 200, OnlyISPs: []int{13},
	})
	if err != nil {
		b.Fatal(err)
	}
	isp := dep.ISPs[0]
	drv := xmap.NewSimDriver(dep.Engine, dep.Edge)

	var targets []ipv6.Addr
	size, _ := isp.Window.Size()
	for i := uint64(0); i < size.Lo; i++ {
		sub, err := isp.Window.Sub(uint128.From64(i))
		if err != nil {
			b.Fatal(err)
		}
		targets = append(targets, ipv6.SLAAC(sub, 0x7777_0000|i))
	}

	b.Run("traceroute-baseline", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tr := edgy.NewTracer(drv)
			census, err := tr.Discover(targets)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(census.ProbesPerLastHop(), "probes/lasthop")
			printOnce("baseline", fmt.Sprintf(
				"Baseline comparison: traceroute spent %d probes for %d last hops (%.1f/hop, %d transit interfaces as noise)",
				census.Probes, len(census.LastHops), census.ProbesPerLastHop(), len(census.Interfaces)))
		}
	})
	b.Run("xmap", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			scanner, err := xmap.New(xmap.Config{Window: isp.Window, Seed: []byte(fmt.Sprintf("cmp%d", i))}, drv)
			if err != nil {
				b.Fatal(err)
			}
			stats, err := scanner.Run(context.Background(), nil)
			if err != nil {
				b.Fatal(err)
			}
			if stats.Unique > 0 {
				b.ReportMetric(float64(stats.Sent)/float64(stats.Unique), "probes/lasthop")
				printOnce("baseline-xmap", fmt.Sprintf(
					"Baseline comparison: xmap spent %d probes for %d last hops (%.1f/hop)",
					stats.Sent, stats.Unique, float64(stats.Sent)/float64(stats.Unique)))
			}
		}
	})
}
