package xmap

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/ipv6"
	"repro/internal/uint128"
	"repro/internal/wire"
)

// throttleDriver accepts at most maxPerCall packets per SendBatch — a
// deterministic ENOBUFS-style short-write driver. Everything accepted
// reaches the wrapped simulator.
type throttleDriver struct {
	d          *SimDriver
	maxPerCall int
	calls      int
}

func (t *throttleDriver) SendBatch(pkts [][]byte) (int, error) {
	t.calls++
	n := len(pkts)
	if n > t.maxPerCall {
		n = t.maxPerCall
	}
	return t.d.SendBatch(pkts[:n])
}
func (t *throttleDriver) RecvBatch(buf [][]byte) [][]byte { return t.d.RecvBatch(buf) }
func (t *throttleDriver) SourceAddr() ipv6.Addr           { return t.d.SourceAddr() }

// TestScanRetriesShortWrites: a driver that accepts only a couple of
// packets per call must not cost the scan anything — the scanner retries
// the unsent tail until the whole burst is through, with no drops, no
// double counts, and no spurious send errors.
func TestScanRetriesShortWrites(t *testing.T) {
	fRef := buildFixture(t)
	statsRef, refResults := runScan(t,
		Config{Window: window(t, fRef), Seed: []byte("sw"), DedupExact: true}, fRef.drv)

	f := buildFixture(t)
	throttled := &throttleDriver{d: f.drv, maxPerCall: 3}
	stats, results := runScan(t,
		Config{Window: window(t, f), Seed: []byte("sw"), DedupExact: true}, throttled)

	if stats.Sent != statsRef.Sent {
		t.Errorf("sent = %d, reference %d (short writes dropped or double-counted probes)",
			stats.Sent, statsRef.Sent)
	}
	if stats.SendErrors != 0 {
		t.Errorf("send errors = %d, want 0: short writes are backpressure, not errors", stats.SendErrors)
	}
	if stats.Unique != statsRef.Unique {
		t.Errorf("unique = %d, reference %d", stats.Unique, statsRef.Unique)
	}
	if len(results) != len(refResults) {
		t.Errorf("results = %d, reference %d", len(results), len(refResults))
	}
	if throttled.calls <= int(stats.Sent)/throttled.maxPerCall {
		t.Errorf("driver saw %d calls for %d probes; the tail was not retried per-burst",
			throttled.calls, stats.Sent)
	}
}

// faultyDriver fails every failEvery-th packet (1-based, counted across
// calls) with a hard error, following the SendBatch contract: pkts[:n]
// sent, pkts[n] is the failed one.
type faultyDriver struct {
	d         *SimDriver
	failEvery int
	seen      int
	failed    int
}

var errInjected = errors.New("injected send failure")

func (f *faultyDriver) SendBatch(pkts [][]byte) (int, error) {
	for i := range pkts {
		f.seen++
		if f.seen%f.failEvery == 0 {
			if n, err := f.d.SendBatch(pkts[:i]); err != nil {
				return n, err
			}
			f.failed++
			return i, errInjected
		}
	}
	return f.d.SendBatch(pkts)
}
func (f *faultyDriver) RecvBatch(buf [][]byte) [][]byte { return f.d.RecvBatch(buf) }
func (f *faultyDriver) SourceAddr() ipv6.Addr           { return f.d.SourceAddr() }

// TestScanCountsFailedSendsOnce: a hard per-packet error costs exactly
// that packet — one SendError, no retry of it, and the rest of the burst
// still goes out. Sent + SendErrors must equal the probes the scan
// attempted.
func TestScanCountsFailedSendsOnce(t *testing.T) {
	f := buildFixture(t)
	faulty := &faultyDriver{d: f.drv, failEvery: 5}
	stats, _ := runScan(t,
		Config{Window: window(t, f), Seed: []byte("err"), DedupExact: true}, faulty)

	attempted := stats.Targets // ProbesPerTarget = 1
	if got := stats.Sent + stats.SendErrors; got != attempted {
		t.Errorf("Sent(%d) + SendErrors(%d) = %d, want attempted %d",
			stats.Sent, stats.SendErrors, got, attempted)
	}
	if uint64(faulty.failed) != stats.SendErrors {
		t.Errorf("driver failed %d packets, scanner counted %d send errors",
			faulty.failed, stats.SendErrors)
	}
	if stats.SendErrors == 0 {
		t.Fatal("fault injection never fired")
	}
	if stats.Unique == 0 {
		t.Error("no responders found; surviving packets were not transmitted")
	}
}

// wedgedDriver accepts nothing, forever: the pathological peer the
// maxSendStalls bound exists for.
type wedgedDriver struct {
	d *SimDriver
}

func (w *wedgedDriver) SendBatch(pkts [][]byte) (int, error) { return 0, nil }
func (w *wedgedDriver) RecvBatch(buf [][]byte) [][]byte      { return buf }
func (w *wedgedDriver) SourceAddr() ipv6.Addr                { return w.d.SourceAddr() }

// TestScanSurvivesWedgedDriver: a driver stuck at zero progress must not
// hang the scan; the stall bound declares the burst failed and the scan
// completes with every probe accounted as a send error.
func TestScanSurvivesWedgedDriver(t *testing.T) {
	f := buildFixture(t)
	stats, _ := runScan(t, Config{
		Window: window(t, f), Seed: []byte("wedge"), MaxTargets: 4, DrainEvery: 4,
	}, &wedgedDriver{d: f.drv})
	if stats.Sent != 0 {
		t.Errorf("sent = %d through a driver that accepts nothing", stats.Sent)
	}
	if stats.SendErrors != stats.Targets {
		t.Errorf("send errors = %d, want %d (every probe)", stats.SendErrors, stats.Targets)
	}
}

// TestRingScanSurvivesWedgedDriver: the same wedged driver behind a
// ring. The pump's forward shares the scanner's short-write bound, so
// the scan ends, every probe accepted into the ring fails there, and the
// run reports each as a send error.
func TestRingScanSurvivesWedgedDriver(t *testing.T) {
	f := buildFixture(t)
	s, err := New(Config{
		Window: window(t, f), Seed: []byte("wedge"), MaxTargets: 16, DrainEvery: 4, RingSize: 64,
	}, &wedgedDriver{d: f.drv})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan Stats, 1)
	go func() {
		stats, _ := s.Run(context.Background(), nil)
		done <- stats
	}()
	select {
	case stats := <-done:
		if stats.Sent != 16 {
			t.Errorf("sent = %d, want 16 accepted into the ring", stats.Sent)
		}
		if stats.SendErrors != stats.Sent {
			t.Errorf("send errors = %d, want %d (every accepted probe)", stats.SendErrors, stats.Sent)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("scan through a ring over a wedged driver did not finish")
	}
}

// TestPacedScanRecyclesEachBufferOnce: a paced scan flushes every probe
// copy on its own, and each flush must not push the copy's buffer onto
// the free list again — the list stays at the one or two buffers the
// scan actually cycles.
func TestPacedScanRecyclesEachBufferOnce(t *testing.T) {
	f := buildFixture(t)
	s, err := New(Config{
		Window: window(t, f), Seed: []byte("paced"), Rate: 2_000_000, ProbesPerTarget: 3,
	}, f.drv)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := s.Run(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Sent != 3*256 {
		t.Fatalf("sent = %d, want %d", stats.Sent, 3*256)
	}
	if len(s.free) > 2 {
		t.Errorf("free list holds %d buffers after %d targets, want <= 2", len(s.free), stats.Targets)
	}
}

// TestAdapterReportsPartialBatch pins the adapter half of the contract:
// a failing per-packet Send surfaces as (packets-before-failure, err).
func TestAdapterReportsPartialBatch(t *testing.T) {
	fails := 0
	pd := &funcPacketDriver{
		send: func(pkt []byte) error {
			fails++
			if fails == 3 {
				return errInjected
			}
			return nil
		},
	}
	drv := AdaptPacketDriver(pd)
	n, err := drv.SendBatch([][]byte{{1}, {2}, {3}, {4}})
	if n != 2 || !errors.Is(err, errInjected) {
		t.Errorf("SendBatch = (%d, %v), want (2, errInjected)", n, err)
	}
}

// gapProbe builds an echo request into sub-prefix i of the fixture's
// block, one the ISP never delegated (the CPEs hold 0..4 and 200), so
// the ISP router answers with a Destination Unreachable, which the
// engine builds in a pooled buffer.
func gapProbe(t *testing.T, f *scanFixture, i uint64) []byte {
	t.Helper()
	gap, err := f.block.Sub(64, uint128.From64(i))
	if err != nil {
		t.Fatal(err)
	}
	probe, err := wire.BuildEchoRequest(f.drv.SourceAddr(), ipv6.SLAAC(gap, 1), 64, 7, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	return probe
}

// TestAdapterOwnsRecvBatch: the adapter's RecvBatch hands its caller
// packets it owns (a scan keeps a UDP reply's Payload), though
// SimDriver's Recv lends its packets only until the next Recv and then
// builds later replies in them.
func TestAdapterOwnsRecvBatch(t *testing.T) {
	f := buildFixture(t)
	drv := AdaptPacketDriver(f.drv)
	var first, want []byte
	for i := uint64(100); i < 104; i++ {
		if _, err := drv.SendBatch([][]byte{gapProbe(t, f, i)}); err != nil {
			t.Fatal(err)
		}
		got := drv.RecvBatch(nil)
		if len(got) != 1 {
			t.Fatalf("probe %d: %d replies, want 1", i, len(got))
		}
		if first == nil {
			first, want = got[0], bytes.Clone(got[0])
		}
	}
	if !bytes.Equal(first, want) {
		t.Errorf("a later Recv rewrote the first reply RecvBatch returned:\n got % x\nwant % x", first, want)
	}
}

// funcPacketDriver is a closure-backed PacketDriver for contract tests.
type funcPacketDriver struct {
	send func(pkt []byte) error
	recv func() [][]byte
}

func (f *funcPacketDriver) Send(pkt []byte) error {
	if f.send == nil {
		return nil
	}
	return f.send(pkt)
}
func (f *funcPacketDriver) Recv() [][]byte {
	if f.recv == nil {
		return nil
	}
	return f.recv()
}
func (f *funcPacketDriver) SourceAddr() ipv6.Addr { return ipv6.Addr{} }

// TestRecvRecyclesAllocs: a warm Send/Recv loop over SimDriver allocates
// nothing. Each Recv hands the previous drain's buffers back to the
// engine, which builds the next reply in one of them, and drains into
// the driver's own slice.
func TestRecvRecyclesAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	f := buildFixture(t)
	probe := gapProbe(t, f, 100)
	replies := 0
	exchange := func() {
		if err := f.drv.Send(probe); err != nil {
			t.Fatal(err)
		}
		replies += len(f.drv.Recv())
	}
	// AllocsPerRun truncates its average, so warm up past the first
	// exchanges: the buffer that carried the first probe is a spare that
	// hides one allocation even when nothing is recycled.
	for range 3 {
		exchange()
	}
	allocs := testing.AllocsPerRun(200, exchange)
	if replies != 204 {
		t.Fatalf("%d replies to 204 probes", replies)
	}
	if allocs != 0 {
		t.Errorf("Send+Recv allocates %.1f times per probe, want 0", allocs)
	}
}
