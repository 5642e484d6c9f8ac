package xmap

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/ipv6"
	"repro/internal/telemetry"
	"repro/internal/topo"
	"repro/internal/uint128"
)

// sendOnlyDriver hides SimDriver's batch entry points so tests can
// force the per-packet compatibility path through AdaptPacketDriver.
type sendOnlyDriver struct {
	d *SimDriver
}

func (s *sendOnlyDriver) Send(pkt []byte) error { return s.d.Send(pkt) }
func (s *sendOnlyDriver) Recv() [][]byte        { return s.d.Recv() }
func (s *sendOnlyDriver) SourceAddr() ipv6.Addr { return s.d.SourceAddr() }

// TestScanBatchedMatchesUnbatched: the batched fast path must be
// invisible in results — same responders, same send count as a scan
// forced through the per-packet adapter.
func TestScanBatchedMatchesUnbatched(t *testing.T) {
	fPlain := buildFixture(t)
	statsPlain, plain := runScan(t,
		Config{Window: window(t, fPlain), Seed: []byte("batch"), DedupExact: true},
		AdaptPacketDriver(&sendOnlyDriver{d: fPlain.drv}))

	fBatch := buildFixture(t)
	statsBatch, batched := runScan(t,
		Config{Window: window(t, fBatch), Seed: []byte("batch"), DedupExact: true},
		fBatch.drv)

	if statsPlain.Sent != statsBatch.Sent {
		t.Errorf("sent: plain %d, batched %d", statsPlain.Sent, statsBatch.Sent)
	}
	if statsPlain.Unique != statsBatch.Unique {
		t.Errorf("unique: plain %d, batched %d", statsPlain.Unique, statsBatch.Unique)
	}
	set := func(rs []Response) map[ipv6.Addr]bool {
		m := map[ipv6.Addr]bool{}
		for _, r := range rs {
			m[r.Responder] = true
		}
		return m
	}
	a, b := set(plain), set(batched)
	for addr := range a {
		if !b[addr] {
			t.Errorf("batched scan missed %s", addr)
		}
	}
	if len(a) != len(b) {
		t.Errorf("responder sets differ: %d vs %d", len(a), len(b))
	}
}

// TestScanBatchRespectsMaxTargets: the flush path must not lose probes
// accumulated before an early exit.
func TestScanBatchRespectsMaxTargets(t *testing.T) {
	f := buildFixture(t)
	stats, _ := runScan(t, Config{
		Window: window(t, f), Seed: []byte("mt"), MaxTargets: 10, DrainEvery: 64,
	}, f.drv)
	if stats.Targets != 10 {
		t.Errorf("targets = %d, want 10", stats.Targets)
	}
	if stats.Sent != 10 {
		t.Errorf("sent = %d, want 10 (batch not flushed on MaxTargets exit?)", stats.Sent)
	}
}

// TestScanParallelSumsShardDuplicates pins the accounting identity the
// old code violated by dropping per-scanner duplicate counts: every
// validated response is first-seen exactly once, so
// Received == Unique + Duplicates must hold across shards.
func TestScanParallelSumsShardDuplicates(t *testing.T) {
	f := buildFixture(t)
	// The ISP router answers unreachable for all ~250 unassigned
	// sub-prefixes, so every worker meets the ISP router again after
	// the first one admitted it to the run's seen-set.
	stats, err := ScanParallel(context.Background(),
		Config{Window: window(t, f), Seed: []byte("dup")}, f.drv, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Duplicates == 0 {
		t.Fatal("no duplicates recorded on a window dominated by one responder")
	}
	if got := stats.Unique + stats.Duplicates; got != stats.Received {
		t.Errorf("Unique(%d) + Duplicates(%d) = %d, want Received(%d)",
			stats.Unique, stats.Duplicates, got, stats.Received)
	}
}

// TestScanParallelHandlerSerialized: the documented contract — the
// handler needs no synchronization of its own — must survive the
// striped dedup rework.
func TestScanParallelHandlerSerialized(t *testing.T) {
	f := buildFixture(t)
	inHandler := 0
	var maxSeen int
	var mu sync.Mutex // only to make the race detector's job honest
	_, err := ScanParallel(context.Background(),
		Config{Window: window(t, f), Seed: []byte("ser")}, f.drv, 4,
		func(r Response) {
			mu.Lock()
			inHandler++
			if inHandler > maxSeen {
				maxSeen = inHandler
			}
			mu.Unlock()
			mu.Lock()
			inHandler--
			mu.Unlock()
		})
	if err != nil {
		t.Fatal(err)
	}
	if maxSeen > 1 {
		t.Errorf("handler ran %d-way concurrent; contract promises serialization", maxSeen)
	}
}

// sentTargets lists the probe destinations a memDriver received.
func sentTargets(d *memDriver) map[ipv6.Addr]int {
	d.mu.Lock()
	defer d.mu.Unlock()
	m := map[ipv6.Addr]int{}
	for _, pkt := range d.pkts {
		m[ipv6.AddrFrom128(uint128.FromBytes(pkt[24:40]))]++
	}
	return m
}

// TestScanParallelSliceIndependentOfWorkers: ScanParallel scans slice
// ShardIndex of Shards whatever its worker count — the same targets as a
// lone scanner of that slice — and the slices partition the window.
func TestScanParallelSliceIndependentOfWorkers(t *testing.T) {
	w, err := ipv6.NewWindow(ipv6.MustParsePrefix("2001:db8::/48"), 57)
	if err != nil {
		t.Fatal(err)
	}
	const slices = 3
	all := map[ipv6.Addr]int{}
	for k := 0; k < slices; k++ {
		cfg := Config{Window: w, Seed: []byte("slice"), Shards: slices, ShardIndex: k}
		lone := &memDriver{}
		runScan(t, cfg, lone)
		want := sentTargets(lone)
		for a, n := range want {
			all[a] += n
		}
		for _, n := range []int{1, 2, 4} {
			drv := &memDriver{}
			if _, err := ScanParallel(context.Background(), cfg, drv, n, nil); err != nil {
				t.Fatal(err)
			}
			got := sentTargets(drv)
			if len(got) != len(want) {
				t.Errorf("slice %d, %d workers: %d targets, a lone scanner of the slice probes %d", k, n, len(got), len(want))
			}
			for a, c := range got {
				if want[a] == 0 || c != 1 {
					t.Errorf("slice %d, %d workers: %s probed %d times, lone scanner %d", k, n, a, c, want[a])
					break
				}
			}
		}
	}
	if len(all) != 512 {
		t.Errorf("slices probe %d distinct targets, want the window's 512", len(all))
	}
	for a, n := range all {
		if n != 1 {
			t.Errorf("%s probed by %d slices", a, n)
		}
	}
	for _, bad := range []Config{{Window: w, Shards: 2, ShardIndex: 2}, {Window: w, ShardIndex: 1}, {Window: w, ShardIndex: -1}} {
		if _, err := ScanParallel(context.Background(), bad, &memDriver{}, 2, nil); err == nil {
			t.Errorf("slice %d of %d accepted", bad.ShardIndex, bad.Shards)
		}
	}
}

// TestScanParallelWorkerPositions: a slice's workers write the trace
// streams, telemetry shards, watchdog slots and checkpoint states of
// their place in the run, never of their global shard index.
func TestScanParallelWorkerPositions(t *testing.T) {
	w, err := ipv6.NewWindow(ipv6.MustParsePrefix("2001:db8::/48"), 57)
	if err != nil {
		t.Fatal(err)
	}
	tr := telemetry.NewTracer(telemetry.TracerOptions{Seed: []byte("pos"), ScanStreams: 2, SimStreams: 1})
	reg := telemetry.New(telemetry.Options{Shards: 4})
	wd := telemetry.NewWatchdog(3, 8, nil)
	var mu sync.Mutex
	states := map[int]bool{}
	cfg := Config{
		Window: w, Seed: []byte("pos"), Shards: 3, ShardIndex: 2,
		Tracer: tr, Telemetry: reg, Watchdog: wd,
		OnCheckpoint: func(st ShardState) { mu.Lock(); states[st.Shard] = true; mu.Unlock() },
	}
	if _, err := ScanParallel(context.Background(), cfg, &memDriver{}, 2, nil); err != nil {
		t.Fatal(err)
	}
	for stream, wantSpans := range []bool{true, true, false} {
		if got := len(tr.AppendSpans(stream, nil)) > 0; got != wantSpans {
			t.Errorf("trace stream %d has spans: %v, want %v", stream, got, wantSpans)
		}
	}
	for shard := 0; shard < 4; shard++ {
		got := reg.Shard(shard).Counter(telemetry.ScanTargets) > 0
		if want := shard < 2; got != want {
			t.Errorf("telemetry shard %d counted targets: %v, want %v", shard, got, want)
		}
	}
	// Slots 0 and 1 finished; slot 2, which no worker owns, never beat.
	wd.Check(1)
	if ds := wd.Check(100); len(ds) != 1 || ds[0].Shard != 2 {
		t.Errorf("watchdog diagnoses %v, want only the unowned slot 2", ds)
	}
	if len(states) != 2 || !states[0] || !states[1] {
		t.Errorf("checkpoint states for workers %v, want 0 and 1", states)
	}
}

// TestValidationAndTargetForStable: the reusable HMAC state must not
// leak between calls — interleaved Validation/TargetFor calls on one
// scanner agree with a fresh scanner computing each value in isolation.
func TestValidationAndTargetForStable(t *testing.T) {
	f := buildFixture(t)
	cfg := Config{Window: window(t, f), Seed: []byte("stable")}
	s1, err := New(cfg, f.drv)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 32; i++ {
		target, err := s1.TargetFor(uint128.From64(i))
		if err != nil {
			t.Fatal(err)
		}
		val := s1.Validation(target)

		fresh, err := New(cfg, f.drv)
		if err != nil {
			t.Fatal(err)
		}
		wantTarget, err := fresh.TargetFor(uint128.From64(i))
		if err != nil {
			t.Fatal(err)
		}
		if target != wantTarget {
			t.Fatalf("idx %d: target %s, fresh scanner says %s", i, target, wantTarget)
		}
		fresh2, err := New(cfg, f.drv)
		if err != nil {
			t.Fatal(err)
		}
		if want := fresh2.Validation(target); val != want {
			t.Fatalf("idx %d: validation %08x, fresh scanner says %08x", i, val, want)
		}
	}
}

// workerTargets lists, per worker, the targets a fully sampled tracer
// saw it send.
func workerTargets(tr *telemetry.Tracer, n int) []map[ipv6.Addr]int {
	out := make([]map[ipv6.Addr]int, n)
	for i := range out {
		out[i] = map[ipv6.Addr]int{}
		for _, sp := range tr.AppendSpans(i, nil) {
			if sp.Kind == telemetry.SpanSent {
				out[i][ipv6.AddrFromBytes(sp.Addr[:])]++
			}
		}
	}
	return out
}

// TestScanParallelPartitionsSlice is a property test of the worker
// split: for random window widths, slices and every worker count from 1
// to 5 (non-powers of two, and more workers than the window has cells,
// among them), the workers' target sets are disjoint, together are the
// slice a lone scanner of it probes, and worker i's targets all lie in
// window chunks c of 2^⌈log2 n⌉ (fewer when the window has fewer cells)
// with c mod n == i — the chunks a topo.Config.Shards: n build gives
// engine shard i.
func TestScanParallelPartitionsSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(0x9a7))
	base := ipv6.MustParsePrefix("2001:db8::/48")
	for iter := 0; iter < 24; iter++ {
		width := 1 + rng.Intn(10)
		if iter < 4 {
			width = 1 + iter%2 // up to five workers over two or four cells
		}
		w, err := ipv6.NewWindow(base, base.Bits()+width)
		if err != nil {
			t.Fatal(err)
		}
		slices := 1 + rng.Intn(4)
		cfg := Config{Window: w, Seed: []byte(fmt.Sprintf("part-%d", iter)), Shards: slices, ShardIndex: rng.Intn(slices)}
		lone := &memDriver{}
		runScan(t, cfg, lone)
		want := sentTargets(lone)
		for n := 1; n <= 5; n++ {
			name := fmt.Sprintf("width %d, slice %d/%d, %d workers", width, cfg.ShardIndex, slices, n)
			bits := 0
			for 1<<bits < n {
				bits++
			}
			shift := uint(width - min(bits, width))
			wcfg := cfg
			wcfg.Tracer = telemetry.NewTracer(telemetry.TracerOptions{Seed: cfg.Seed, ScanStreams: n})
			if _, err := ScanParallel(context.Background(), wcfg, &memDriver{}, n, nil); err != nil {
				t.Fatal(err)
			}
			union := map[ipv6.Addr]int{}
			for i, got := range workerTargets(wcfg.Tracer, n) {
				for a, k := range got {
					union[a] += k
					idx := a.Uint128().Rsh(uint(128-w.To)).Lo & (1<<width - 1)
					if c := idx >> shift; c%uint64(n) != uint64(i) {
						t.Errorf("%s: worker %d probed %s in chunk %d", name, i, a, c)
					}
				}
			}
			if len(union) != len(want) {
				t.Errorf("%s: workers probe %d targets, a lone scanner of the slice %d", name, len(union), len(want))
			}
			for a, k := range union {
				if k != 1 || want[a] == 0 {
					t.Errorf("%s: %s probed %d times, by the lone scanner %d", name, a, k, want[a])
					break
				}
			}
		}
	}
}

// TestScanParallelShardAffinity: over a Shards: 2 deployment, worker i
// of ScanParallel(2) probes only targets engine shard i owns, so each of
// its bursts lands in one engine. The exceptions are the /64s topo pins
// to the shard of the device holding them: a dual-/64 CPE's LAN outside
// its WAN's chunk.
func TestScanParallelShardAffinity(t *testing.T) {
	dep, err := topo.Build(topo.Config{Seed: 1, Scale: 0.05, WindowWidth: 10, MaxDevicesPerISP: 200, OnlyISPs: []int{2}, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	isp := dep.ISPs[0]
	lans := map[uint64]bool{} // top words of the dual-/64 CPEs' LANs
	for _, d := range isp.Devices {
		if d.CPE != nil && d.CPE.Delegated().Bits() == 64 {
			lans[d.CPE.Delegated().Addr().Uint128().Hi] = true
		}
	}
	tr := telemetry.NewTracer(telemetry.TracerOptions{Seed: []byte("affinity"), ScanStreams: 2})
	cfg := Config{Window: isp.Window, Seed: []byte("affinity"), DedupExact: true, Tracer: tr}
	if _, err := ScanParallel(context.Background(), cfg, NewGroupDriver(dep.Group, dep.Edge), 2, nil); err != nil {
		t.Fatal(err)
	}
	sent, pinned := 0, 0
	for worker, got := range workerTargets(tr, 2) {
		for a := range got {
			sent++
			switch shard := dep.Group.ShardFor(a); {
			case shard == worker:
			case lans[a.Uint128().Hi]:
				pinned++
			default:
				t.Errorf("worker %d probed %s, which engine shard %d owns", worker, a, shard)
			}
		}
	}
	if sent != 1<<10 {
		t.Errorf("the workers traced %d targets, want the window's %d", sent, 1<<10)
	}
	if pinned == 0 {
		t.Error("no worker probed a /64 pinned to the other shard: the test does not reach the exception")
	}
	t.Logf("%d targets, %d of them on /64s pinned across shards", sent, pinned)
}
