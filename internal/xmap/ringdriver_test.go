package xmap

import (
	"context"
	"encoding/binary"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/ipv6"
)

// memDriver is a concurrency-safe recording driver for ring tests. It
// can inject hard failures (failEvery) and short writes (maxPerCall).
type memDriver struct {
	mu         sync.Mutex
	pkts       [][]byte
	maxPerCall int
	failEvery  int
	seen       int
	failed     int
}

func (m *memDriver) SendBatch(pkts [][]byte) (int, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	limit := len(pkts)
	if m.maxPerCall > 0 && limit > m.maxPerCall {
		limit = m.maxPerCall
	}
	for i := 0; i < limit; i++ {
		m.seen++
		if m.failEvery > 0 && m.seen%m.failEvery == 0 {
			m.failed++
			return i, errInjected
		}
		cp := make([]byte, len(pkts[i]))
		copy(cp, pkts[i])
		m.pkts = append(m.pkts, cp)
	}
	return limit, nil
}
func (m *memDriver) RecvBatch(buf [][]byte) [][]byte { return buf }
func (m *memDriver) SourceAddr() ipv6.Addr           { return ipv6.Addr{} }

func (m *memDriver) count() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.pkts)
}

// TestRingDriverDeliversInOrder: packets pushed through the ring arrive
// at the underlying driver complete and in order, and Flush is the
// barrier that makes them all visible.
func TestRingDriverDeliversInOrder(t *testing.T) {
	under := &memDriver{}
	rd := NewRingDriver(under, 8)
	defer rd.Close()

	const total = 500
	for i := 0; i < total; i++ {
		pkt := []byte{byte(i), byte(i >> 8)}
		if n, err := rd.SendBatch([][]byte{pkt}); n != 1 || err != nil {
			t.Fatalf("SendBatch = (%d, %v)", n, err)
		}
	}
	rd.Flush()
	if rd.Pending() != 0 {
		t.Fatalf("Pending = %d after Flush", rd.Pending())
	}
	under.mu.Lock()
	defer under.mu.Unlock()
	if len(under.pkts) != total {
		t.Fatalf("underlying driver saw %d packets, want %d", len(under.pkts), total)
	}
	for i, p := range under.pkts {
		if int(p[0])|int(p[1])<<8 != i {
			t.Fatalf("packet %d out of order: got %v", i, p)
		}
	}
}

// TestRingDriverCopiesPackets: the caller may overwrite its slice the
// moment SendBatch returns; the ring must have copied.
func TestRingDriverCopiesPackets(t *testing.T) {
	under := &memDriver{}
	rd := NewRingDriver(under, 8)
	defer rd.Close()

	pkt := []byte{42}
	rd.SendBatch([][]byte{pkt})
	pkt[0] = 99 // caller reuses the buffer immediately
	rd.Flush()
	under.mu.Lock()
	defer under.mu.Unlock()
	if len(under.pkts) != 1 || under.pkts[0][0] != 42 {
		t.Fatalf("underlying saw %v, want the pre-overwrite copy [42]", under.pkts)
	}
}

// TestRingDriverRetriesShortWrites: the pump follows the same SendBatch
// contract as the scanner — a short-writing underlying driver costs
// nothing but extra calls.
func TestRingDriverRetriesShortWrites(t *testing.T) {
	under := &memDriver{maxPerCall: 3}
	rd := NewRingDriver(under, 64)
	defer rd.Close()

	batch := make([][]byte, 40)
	for i := range batch {
		batch[i] = []byte{byte(i)}
	}
	rd.SendBatch(batch)
	rd.Flush()
	if got := under.count(); got != 40 {
		t.Fatalf("underlying saw %d packets, want 40", got)
	}
	if rd.Failed() != 0 {
		t.Fatalf("Failed = %d on a short-writing (not erroring) driver", rd.Failed())
	}
}

// TestRingDriverCountsHardFailures: a hard underlying error drops
// exactly the failed packet; Failed reports it and Flush still
// terminates (completed + failed catches up with pushed).
func TestRingDriverCountsHardFailures(t *testing.T) {
	under := &memDriver{failEvery: 7}
	rd := NewRingDriver(under, 64)
	defer rd.Close()

	batch := make([][]byte, 50)
	for i := range batch {
		batch[i] = []byte{byte(i)}
	}
	rd.SendBatch(batch)
	rd.Flush()
	if rd.Pending() != 0 {
		t.Fatalf("Pending = %d after Flush", rd.Pending())
	}
	wantFailed := uint64(50 / 7)
	if rd.Failed() != wantFailed {
		t.Errorf("Failed = %d, want %d", rd.Failed(), wantFailed)
	}
	if got := under.count(); uint64(got)+rd.Failed() != 50 {
		t.Errorf("delivered %d + failed %d != 50 pushed", got, rd.Failed())
	}
}

// TestRingDriverCloseDrains: packets queued when Close is called are
// flushed, not dropped.
func TestRingDriverCloseDrains(t *testing.T) {
	under := &memDriver{}
	rd := NewRingDriver(under, 1024)
	batch := make([][]byte, 300)
	for i := range batch {
		batch[i] = []byte{byte(i)}
	}
	rd.SendBatch(batch)
	rd.Close() // no Flush first: Close itself must drain
	if got := under.count(); got != 300 {
		t.Fatalf("underlying saw %d packets after Close, want 300", got)
	}
}

// TestRingDriverBackpressure: a ring smaller than the burst forces
// SendBatch to wait on the pump; everything still arrives, and the stall
// counter records the backpressure.
func TestRingDriverBackpressure(t *testing.T) {
	under := &memDriver{maxPerCall: 2}
	rd := NewRingDriver(under, 4)
	defer rd.Close()

	batch := make([][]byte, 200)
	for i := range batch {
		batch[i] = []byte{byte(i)}
	}
	rd.SendBatch(batch)
	rd.Flush()
	if got := under.count(); got != 200 {
		t.Fatalf("underlying saw %d packets, want 200", got)
	}
}

// gateDriver holds every SendBatch until gate is closed, announcing on
// entered that the pump is inside one.
type gateDriver struct {
	memDriver
	entered chan struct{}
	gate    chan struct{}
}

func (g *gateDriver) SendBatch(pkts [][]byte) (int, error) {
	select {
	case g.entered <- struct{}{}:
	default:
	}
	<-g.gate
	return g.memDriver.SendBatch(pkts)
}

// TestRingDriverFlushWaitsForForward pins Flush's barrier: once the pump
// has taken the queue it is empty, but its packets are not transmitted
// until the underlying SendBatch returns. Flush must wait for that, and
// Pending must still count them.
func TestRingDriverFlushWaitsForForward(t *testing.T) {
	under := &gateDriver{entered: make(chan struct{}, 1), gate: make(chan struct{})}
	rd := NewRingDriver(under, 8)
	defer rd.Close()
	release := sync.OnceFunc(func() { close(under.gate) })
	defer release() // before Close, which waits for the held pump

	rd.SendBatch([][]byte{{1}, {2}})
	<-under.entered // the pump holds the whole queue inside SendBatch
	if got := rd.Pending(); got != 2 {
		t.Errorf("Pending = %d while the pump forwards 2 packets", got)
	}
	flushed := make(chan struct{})
	go func() {
		rd.Flush()
		close(flushed)
	}()
	select {
	case <-flushed:
		t.Fatal("Flush returned before the underlying SendBatch did")
	case <-time.After(50 * time.Millisecond):
	}
	release()
	<-flushed
	if got := under.count(); got != 2 {
		t.Fatalf("underlying saw %d packets after Flush, want 2", got)
	}
}

// TestRingDriverStress drives rings of capacity 2–8 with random bursts
// of random-length packets over a driver that short-writes and fails
// every k-th packet, flushing after every burst. Delivery must keep
// order and content, each failure must be counted once, and Flush must
// leave nothing pending. The caller overwrites its packet buffers after
// every SendBatch.
func TestRingDriverStress(t *testing.T) {
	bursts := 2000
	if testing.Short() || raceEnabled {
		bursts = 300
	}
	rng := rand.New(rand.NewSource(7))
	scratch := make([][]byte, 24)
	for i := range scratch {
		scratch[i] = make([]byte, 200)
	}
	for capacity := 2; capacity <= 8; capacity++ {
		k := 3 + rng.Intn(8)
		under := &memDriver{maxPerCall: 1 + rng.Intn(3), failEvery: k}
		rd := NewRingDriver(under, capacity)
		var seq uint32
		for b := 0; b < bursts; b++ {
			burst := scratch[:1+rng.Intn(len(scratch))]
			for i := range burst {
				seq++
				n := 4 + int(seq%197)
				burst[i] = burst[i][:n]
				binary.BigEndian.PutUint32(burst[i], seq)
				for j := 4; j < n; j++ {
					burst[i][j] = byte(seq) ^ byte(j)
				}
			}
			if n, err := rd.SendBatch(burst); n != len(burst) || err != nil {
				t.Fatalf("cap %d: SendBatch = (%d, %v), want (%d, nil)", capacity, n, err, len(burst))
			}
			for i := range burst {
				clear(burst[i])
			}
			rd.Flush()
			if p := rd.Pending(); p != 0 {
				t.Fatalf("cap %d burst %d: Pending = %d after Flush", capacity, b, p)
			}
			if got, want := rd.Failed(), uint64(seq)/uint64(k); got != want {
				t.Fatalf("cap %d burst %d: Failed = %d, want %d", capacity, b, got, want)
			}
		}
		rd.Close()
		var want uint32 = 1
		for i, p := range under.pkts {
			if want%uint32(k) == 0 {
				want++ // the failed packet never arrives
			}
			if len(p) != 4+int(want%197) || binary.BigEndian.Uint32(p) != want {
				t.Fatalf("cap %d: delivery %d is packet %d of length %d, want %d of length %d",
					capacity, i, binary.BigEndian.Uint32(p), len(p), want, 4+int(want%197))
			}
			for j := 4; j < len(p); j++ {
				if p[j] != byte(want)^byte(j) {
					t.Fatalf("cap %d: packet %d corrupted at byte %d", capacity, want, j)
				}
			}
			want++
		}
		if got, total := uint64(len(under.pkts))+rd.Failed(), uint64(seq); got != total {
			t.Fatalf("cap %d: delivered %d + failed %d != %d sent", capacity, len(under.pkts), rd.Failed(), total)
		}
	}
}

// TestScanThroughRingMatchesDirect: end to end, a scan through a
// RingDriver-wrapped simulator finds exactly what the direct scan finds.
func TestScanThroughRingMatchesDirect(t *testing.T) {
	fDirect := buildFixture(t)
	statsDirect, direct := runScan(t,
		Config{Window: window(t, fDirect), Seed: []byte("ring"), DedupExact: true}, fDirect.drv)

	fRing := buildFixture(t)
	rd := NewRingDriver(fRing.drv, 256)
	statsRing, ringed := runScan(t,
		Config{Window: window(t, fRing), Seed: []byte("ring"), DedupExact: true}, rd)
	rd.Close()

	if statsRing.Sent != statsDirect.Sent {
		t.Errorf("sent: ring %d, direct %d", statsRing.Sent, statsDirect.Sent)
	}
	if statsRing.Unique != statsDirect.Unique {
		t.Errorf("unique: ring %d, direct %d", statsRing.Unique, statsDirect.Unique)
	}
	if rd.Failed() != 0 {
		t.Errorf("ring failed %d packets against a lossless simulator", rd.Failed())
	}
	set := func(rs []Response) map[ipv6.Addr]bool {
		m := map[ipv6.Addr]bool{}
		for _, r := range rs {
			m[r.Responder] = true
		}
		return m
	}
	a, b := set(direct), set(ringed)
	if len(a) != len(b) {
		t.Fatalf("responder sets differ: direct %d, ring %d", len(a), len(b))
	}
	for addr := range a {
		if !b[addr] {
			t.Errorf("ring scan missed %s", addr)
		}
	}
}

// TestScanParallelWithRings: the RingSize config knob wires a ring per
// shard; results match the ringless sharded scan.
func TestScanParallelWithRings(t *testing.T) {
	fPlain := buildFixture(t)
	statsPlain, err := ScanParallel(context.Background(),
		Config{Window: window(t, fPlain), Seed: []byte("pr")}, fPlain.drv, 4, nil)
	if err != nil {
		t.Fatal(err)
	}

	fRing := buildFixture(t)
	statsRing, err := ScanParallel(context.Background(),
		Config{Window: window(t, fRing), Seed: []byte("pr"), RingSize: 64}, fRing.drv, 4, nil)
	if err != nil {
		t.Fatal(err)
	}

	if statsRing.Sent != statsPlain.Sent {
		t.Errorf("sent: ring %d, plain %d", statsRing.Sent, statsPlain.Sent)
	}
	if statsRing.Unique != statsPlain.Unique {
		t.Errorf("unique: ring %d, plain %d", statsRing.Unique, statsPlain.Unique)
	}
	if statsRing.SendErrors != 0 {
		t.Errorf("send errors = %d against a lossless simulator", statsRing.SendErrors)
	}
}
