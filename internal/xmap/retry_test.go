package xmap

import (
	"testing"
	"time"

	"repro/internal/ipv6"
	"repro/internal/uint128"
)

func retryAddr(i uint64) ipv6.Addr {
	return ipv6.AddrFrom128(uint128.New(0x2001_0db8_0000_0000, i))
}

func TestRetryRingFIFOAndDueGating(t *testing.T) {
	r := newRetryRing(8)
	for i := uint64(0); i < 4; i++ {
		if !r.push(retryEntry{idx: uint128.From64(i), dst: retryAddr(i), due: 10 * (i + 1), attempts: 1}) {
			t.Fatalf("push %d refused", i)
		}
	}
	if _, ok := r.popDue(9); ok {
		t.Fatal("entry popped before its due tick")
	}
	e, ok := r.popDue(10)
	if !ok || e.dst != retryAddr(0) {
		t.Fatalf("popDue(10) = %v %v, want first entry", e.dst, ok)
	}
	// Head gating is FIFO: entry 1 (due 20) blocks entry 2 even at
	// clock 25... but once popped, 2 (due 30) is not yet due.
	e, ok = r.popDue(25)
	if !ok || e.dst != retryAddr(1) {
		t.Fatalf("popDue(25) = %v %v, want second entry", e.dst, ok)
	}
	if _, ok := r.popDue(25); ok {
		t.Fatal("entry with due 30 popped at clock 25")
	}
	if due, ok := r.nextDue(); !ok || due != 30 {
		t.Fatalf("nextDue = %d %v, want 30", due, ok)
	}
}

func TestRetryRingAnsweredTombstones(t *testing.T) {
	r := newRetryRing(4)
	for i := uint64(0); i < 3; i++ {
		r.push(retryEntry{idx: uint128.From64(i), dst: retryAddr(i), due: 1, attempts: 1})
	}
	e0, ok0 := r.answered(retryAddr(0))
	_, ok2 := r.answered(retryAddr(2))
	if !ok0 || !ok2 {
		t.Fatal("answered() did not find pending entries")
	}
	if e0.dst != retryAddr(0) || e0.due != 1 {
		t.Fatalf("answered() returned entry %+v, want the resolved one", e0)
	}
	if _, ok := r.answered(retryAddr(0)); ok {
		t.Fatal("answered() resolved the same entry twice")
	}
	if r.pending != 1 {
		t.Fatalf("pending = %d, want 1", r.pending)
	}
	e, ok := r.popDue(100)
	if !ok || e.dst != retryAddr(1) {
		t.Fatalf("popDue skipped to %v %v, want the unanswered middle entry", e.dst, ok)
	}
	if _, ok := r.popDue(100); ok {
		t.Fatal("tombstoned entries popped as due")
	}
}

func TestRetryRingOverflowDrops(t *testing.T) {
	r := newRetryRing(2)
	r.push(retryEntry{dst: retryAddr(0), due: 1, attempts: 1})
	r.push(retryEntry{dst: retryAddr(1), due: 1, attempts: 1})
	if r.push(retryEntry{dst: retryAddr(2), due: 1, attempts: 1}) {
		t.Fatal("push into a full ring succeeded")
	}
	if r.dropped != 1 {
		t.Fatalf("dropped = %d, want 1", r.dropped)
	}
	// Tombstones still occupy slots until reclaimed at the head; a
	// reclaim makes room again.
	r.answered(retryAddr(0))
	r.skipAnswered()
	if !r.push(retryEntry{dst: retryAddr(3), due: 1, attempts: 1}) {
		t.Fatal("push refused after head reclaim")
	}
}

func TestRetryRingStateRoundTrip(t *testing.T) {
	s := mustScanner(t)
	r := newRetryRing(8)
	it := s.cycle.Shard(0, 1)
	for i := 0; i < 3; i++ {
		idx, _ := it.Next()
		dst, err := s.TargetFor(idx)
		if err != nil {
			t.Fatal(err)
		}
		r.push(retryEntry{idx: idx, dst: dst, due: uint64(100 + i), attempts: uint8(i + 1)})
	}
	// A tombstone must not survive serialization.
	idx, _ := it.Next()
	dst, _ := s.TargetFor(idx)
	r.push(retryEntry{idx: idx, dst: dst, due: 999, attempts: 1})
	r.answered(dst)

	state := r.appendState(nil)
	restored := newRetryRing(8)
	if err := restored.restoreState(state, s.TargetFor); err != nil {
		t.Fatal(err)
	}
	if restored.pending != 3 {
		t.Fatalf("restored pending = %d, want 3", restored.pending)
	}
	for i := 0; i < 3; i++ {
		want, _ := r.popDue(^uint64(0))
		got, ok := restored.popDue(^uint64(0))
		if !ok || got != want {
			t.Fatalf("entry %d: restored %+v, want %+v", i, got, want)
		}
	}
}

func TestRetryRingRestoreRejects(t *testing.T) {
	s := mustScanner(t)
	good := func() []byte {
		r := newRetryRing(8)
		it := s.cycle.Shard(0, 1)
		idx, _ := it.Next()
		dst, _ := s.TargetFor(idx)
		r.push(retryEntry{idx: idx, dst: dst, due: 5, attempts: 2})
		return r.appendState(nil)
	}()
	cases := map[string][]byte{
		"empty":     {},
		"short":     good[:2],
		"truncated": good[:len(good)-3],
		"trailing":  append(append([]byte{}, good...), 0xff),
	}
	for name, data := range cases {
		r := newRetryRing(8)
		if err := r.restoreState(data, s.TargetFor); err == nil {
			t.Errorf("%s input accepted", name)
		}
	}
	// Zero attempts is never serialized; reject it.
	bad := append([]byte{}, good...)
	bad[len(bad)-1] = 0
	if err := newRetryRing(8).restoreState(bad, s.TargetFor); err == nil {
		t.Error("zero-attempts entry accepted")
	}
	// More entries than the ring can hold.
	if err := newRetryRing(0).restoreState(good, s.TargetFor); err == nil {
		t.Error("state larger than ring capacity accepted")
	}
}

// mustScanner builds a scanner over the fixture window purely for
// TargetFor/cycle access.
func mustScanner(t *testing.T) *Scanner {
	t.Helper()
	f := buildFixture(t)
	s, err := New(Config{Window: window(t, f), Seed: []byte("ring")}, f.drv)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestRetrySchedulerRecoversLossEfficiently: adaptive retries reach the
// blind multi-probe hit count while spending probes only on silent
// targets.
func TestRetrySchedulerRecoversLossEfficiently(t *testing.T) {
	blind := func() Stats {
		f := buildLossyFixture(t, 0.4)
		stats, _ := runScan(t, Config{
			Window: window(t, f), Seed: []byte("retry"),
			ProbesPerTarget: 4,
		}, f.drv)
		return stats
	}()
	adaptive := func() Stats {
		f := buildLossyFixture(t, 0.4)
		stats, _ := runScan(t, Config{
			Window: window(t, f), Seed: []byte("retry"),
			Retries: 3,
		}, f.drv)
		return stats
	}()
	if adaptive.Unique < uint64(fixtureCPEs) {
		t.Errorf("adaptive scan found %d responders, want >= %d", adaptive.Unique, fixtureCPEs)
	}
	if adaptive.Sent >= blind.Sent {
		t.Errorf("adaptive sent %d probes, blind %d — retries are not saving probes", adaptive.Sent, blind.Sent)
	}
	if adaptive.Retried == 0 {
		t.Error("no retries fired at 40% loss")
	}
	if adaptive.HitRate() < blind.HitRate() {
		t.Errorf("adaptive hit rate %.4f below blind %.4f", adaptive.HitRate(), blind.HitRate())
	}
}

// TestRetryTerminalAccounting: under total loss every target resolves to
// exactly one terminal counter — dropped at the ring, exhausted after
// every retry, or abandoned at the cooldown deadline.
func TestRetryTerminalAccounting(t *testing.T) {
	f := buildLossyFixture(t, 1.0)
	smallRetryRing(t, 8)
	stats, _ := runScan(t, Config{
		Window: window(t, f), Seed: []byte("dead"),
		Retries: 2,
	}, f.drv)
	if stats.Targets != 256 {
		t.Fatalf("targets = %d", stats.Targets)
	}
	if stats.RetryDropped == 0 {
		t.Error("a ring of 8 never overflowed across 256 dead targets")
	}
	got := stats.RetryDropped + stats.RetryExhausted + stats.RetryAbandoned
	if got != 256 {
		t.Errorf("dropped %d + exhausted %d + abandoned %d = %d, want 256",
			stats.RetryDropped, stats.RetryExhausted, stats.RetryAbandoned, got)
	}
}

// smallRetryRing shrinks the scanners' retry ring to n for the rest of
// t.
func smallRetryRing(t *testing.T, n int) {
	old := retryRingCap
	retryRingCap = n
	t.Cleanup(func() { retryRingCap = old })
}

// TestRetryNoFalseRetries: on a clean link every target answers, so the
// scheduler should fire (almost) nothing.
func TestRetryNoFalseRetries(t *testing.T) {
	f := buildFixture(t)
	stats, _ := runScan(t, Config{
		Window: window(t, f), Seed: []byte("clean"),
		Retries: 3,
	}, f.drv)
	if stats.Sent != 256 {
		t.Errorf("sent = %d, want 256 (no retries on a clean link)", stats.Sent)
	}
	if stats.Retried != 0 || stats.RetryExhausted != 0 || stats.RetryAbandoned != 0 {
		t.Errorf("clean link produced retry activity: %+v", stats)
	}
}

func TestAIMDController(t *testing.T) {
	a := newAIMD(64)
	w := a.update(64, 60) // healthy window establishes the baseline
	if w <= 64 {
		t.Fatalf("clean window did not grow: %d", w)
	}
	w = a.update(uint64(w), 1) // collapse: ratio far below best/2
	if w >= 64 {
		t.Fatalf("lossy window did not shrink: %d", w)
	}
	if a.downs != 1 || a.ups != 1 {
		t.Fatalf("ups/downs = %d/%d, want 1/1", a.ups, a.downs)
	}
	// Repeated collapse bottoms out at the floor.
	for i := 0; i < 10; i++ {
		w = a.update(64, 0)
	}
	if w != a.min {
		t.Fatalf("window %d did not clamp to min %d", w, a.min)
	}
	// Recovery ramps additively back to the cap.
	for i := 0; i < 100; i++ {
		w = a.update(uint64(w), uint64(w))
	}
	if w != a.max {
		t.Fatalf("window %d did not ramp to max %d", w, a.max)
	}
	// Sub-sample windows are ignored.
	before := a.window
	if got := a.update(aimdMinSample-1, 0); got != before {
		t.Fatalf("tiny window changed the rate: %d -> %d", before, got)
	}
}

func TestAIMDBacksOffUnderRateLimit(t *testing.T) {
	// An ICMPv6-rate-limited path answers in bursts then goes silent;
	// AIMD must record multiplicative decreases while a clean path must
	// not.
	clean := func() Stats {
		f := buildFixture(t)
		stats, _ := runScan(t, Config{
			Window: window(t, f), Seed: []byte("aimd"), AIMD: true,
		}, f.drv)
		return stats
	}()
	if clean.RateDown != 0 {
		t.Errorf("clean link triggered %d backoffs", clean.RateDown)
	}
	if clean.RateUp == 0 {
		t.Error("clean link never ramped up")
	}
	lossy := func() Stats {
		f := buildLossyFixture(t, 0.9)
		stats, _ := runScan(t, Config{
			Window: window(t, f), Seed: []byte("aimd"), AIMD: true, DrainEvery: 16,
		}, f.drv)
		return stats
	}()
	if lossy.RateDown == 0 {
		t.Error("90% loss never triggered a backoff")
	}
}

func TestRateLimiterBatchedRefill(t *testing.T) {
	// At high rates the limiter must not sleep per probe: 10k sends at
	// 10 Mpps are 1ms of traffic and must finish in far less than the
	// 10k-sleep worst case (even a 50µs-granularity timer would need
	// 500ms).
	rl := newRateLimiter(10_000_000)
	if rl.batch < 1000 {
		t.Fatalf("batch = %d at 10Mpps, want >= 1000", rl.batch)
	}
	done := make(chan struct{})
	go func() {
		for i := 0; i < 10_000; i++ {
			rl.wait()
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("10k rate-limited sends at 10Mpps did not finish in time")
	}
}
