package netsim

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/ipv6"
	"repro/internal/wire"
)

// TestHeapOrdersByDueThenSeq: equal dues (which odd deferred dues can
// produce) must resolve to the earliest enqueue, reproducing the old
// linear scan's tie-break.
func TestHeapOrdersByDueThenSeq(t *testing.T) {
	var h dheap
	in := []delivery{
		{due: 9, seq: 3},
		{due: 4, seq: 1},
		{due: 9, seq: 2},
		{due: 12, seq: 5},
		{due: 4, seq: 4},
	}
	for _, d := range in {
		h.push(d)
	}
	want := []uint64{1, 4, 2, 3, 5}
	for i, w := range want {
		if got := h.pop().seq; got != w {
			t.Fatalf("pop %d: seq %d, want %d", i, got, w)
		}
	}
	if h.len() != 0 {
		t.Fatalf("heap len %d after draining", h.len())
	}
}

// TestPooledBuffersDoNotCorruptEdge: the edge retains delivered buffers
// (PacketRetainer), so replies accumulated across many injections —
// while the pool recycles every intermediate buffer — must stay intact.
func TestPooledBuffersDoNotCorruptEdge(t *testing.T) {
	eng := New()
	edge := NewEdge("e", ipv6.MustParseAddr("2001:beef::100"))
	r := NewRouter("r", ErrorPolicy{})
	rif := r.AddIface(ipv6.MustParseAddr("2001:100::1"), "r:up")
	eng.Connect(edge.Iface(), rif)

	const probes = 100
	for i := 0; i < probes; i++ {
		pkt, err := wire.BuildEchoRequest(edge.Addr(), rif.Addr(), 64, 7, uint16(i), nil)
		if err != nil {
			t.Fatal(err)
		}
		eng.Inject(edge.Iface(), pkt)
	}
	replies := edge.DrainInto(nil)
	if len(replies) != probes {
		t.Fatalf("%d replies, want %d", len(replies), probes)
	}
	seen := map[uint16]bool{}
	for _, raw := range replies {
		s, err := wire.ParsePacket(raw)
		if err != nil {
			t.Fatalf("retained reply corrupted: %v", err)
		}
		e, err := wire.ParseEcho(s.ICMP.Body)
		if err != nil {
			t.Fatal(err)
		}
		if seen[e.Seq] {
			t.Fatalf("echo seq %d delivered twice — buffer aliasing", e.Seq)
		}
		seen[e.Seq] = true
	}
}

// TestPoolRecyclesBuffers: after a pumped run the freelists hold
// buffers.
func TestPoolRecyclesBuffers(t *testing.T) {
	eng := New()
	// Interpreted: a replayed error is built straight from the caller's
	// packet, so only the interpreter copies the request into an engine
	// buffer for the router to consume.
	eng.SetFastPath(false)
	edge := NewEdge("e", ipv6.MustParseAddr("2001:beef::100"))
	r := NewRouter("r", ErrorPolicy{})
	rif := r.AddIface(ipv6.MustParseAddr("2001:100::1"), "r:up")
	eng.Connect(edge.Iface(), rif)

	// Probe an address the router has no route for: the request buffer
	// is consumed at the router (fresh error reply comes back), so it
	// must land in the pool.
	pkt, err := wire.BuildEchoRequest(edge.Addr(), ipv6.MustParseAddr("2001:dead::1"), 64, 7, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	eng.Inject(edge.Iface(), pkt)
	if eng.pooledBufs() == 0 {
		t.Fatal("no buffers recycled after a consumed delivery")
	}
	edge.DrainInto(nil)
}

// pooledBufs counts the buffers on both freelists.
func (e *Engine) pooledBufs() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.retMu.Lock()
	defer e.retMu.Unlock()
	return len(e.pool) + len(e.returned)
}

// TestReleaseBufsBypassesInjectLock: ReleaseBufs returns while an
// injection holds the engine lock (its fault layer is blocked), the
// returned list stays bounded, and once the pool runs dry the next
// injection copies its packet into a released buffer instead of
// allocating one.
func TestReleaseBufsBypassesInjectLock(t *testing.T) {
	eng := New()
	edge := NewEdge("e", ipv6.MustParseAddr("2001:beef::100"))
	r := NewRouter("r", ErrorPolicy{})
	rif := r.AddIface(ipv6.MustParseAddr("2001:100::1"), "r:up")
	eng.Connect(edge.Iface(), rif)
	pkt, err := wire.BuildEchoRequest(edge.Addr(), rif.Addr(), 64, 7, 1, nil)
	if err != nil {
		t.Fatal(err)
	}

	entered, gate := make(chan struct{}), make(chan struct{})
	var once sync.Once
	eng.SetFault(func(*Iface, []byte) FaultOutcome {
		once.Do(func() {
			close(entered)
			<-gate
		})
		return FaultOutcome{}
	})
	injected := make(chan struct{})
	go func() {
		eng.InjectBatch(edge.Iface(), [][]byte{pkt})
		close(injected)
	}()
	<-entered // the injection now holds mu

	released := map[*byte]bool{}
	var bufs [][]byte
	for i := 0; i < 2*maxPooledBuffers; i++ {
		b := make([]byte, 0, 256)
		bufs = append(bufs, b)
		released[bufBase(b[:1])] = true
	}
	done := make(chan struct{})
	go func() {
		eng.ReleaseBufs(bufs)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		close(gate) // let both goroutines finish
		t.Fatal("ReleaseBufs waited behind an injection holding the engine lock")
	}
	eng.retMu.Lock()
	n := len(eng.returned)
	eng.retMu.Unlock()
	if n != maxPooledBuffers {
		t.Fatalf("returned list holds %d buffers, want the cap %d", n, maxPooledBuffers)
	}
	close(gate)
	<-injected
	eng.SetFault(nil)
	edge.DrainInto(nil)

	// The rest of that run may have refilled the pool from the returned
	// list and recycled its own buffers on top; keep only released ones.
	eng.mu.Lock()
	eng.pool = slices.DeleteFunc(eng.pool, func(b []byte) bool { return !released[bufBase(b[:1])] })
	eng.mu.Unlock()
	var first *byte
	eng.SetTap(func(from *Iface, p []byte, _ bool) {
		if first == nil {
			first = bufBase(p)
		}
	})
	eng.Inject(edge.Iface(), pkt)
	eng.SetTap(nil)
	if !released[first] {
		t.Fatal("injection with an empty pool allocated instead of reusing a released buffer")
	}
	if got := len(edge.DrainInto(nil)); got != 1 {
		t.Fatalf("%d replies, want 1", got)
	}
}

// TestPumpOrderPinned pins the pump's delivery order under a fixed
// reorder + duplicate fault layer: a short burst into the Figure 1a net
// whose CPE loops the not-used LAN prefix, so duplicated and deferred
// copies of one probe share the queue with each other for dozens of
// hops. The digests of every transmission (in pump order, via a tap)
// and of the edge's arrivals, and the engine counters, were taken from
// the ring-plus-heap queue with hop chaining that the single heap
// replaced; any change to deferral order moves them.
func TestPumpOrderPinned(t *testing.T) {
	n := buildTestNet(t, CPEBehavior{VulnLAN: true}, ErrorPolicy{})
	k := 0
	n.eng.SetFault(func(*Iface, []byte) FaultOutcome {
		k++
		switch {
		case k%13 == 0:
			return FaultOutcome{Deliveries: []int{0, 2}}
		case k%5 == 0:
			return FaultOutcome{Deliveries: []int{k%3 + 1}}
		case k%29 == 0:
			return FaultOutcome{Drop: true}
		}
		return FaultOutcome{}
	})
	tx := sha256.New()
	n.eng.SetTap(func(from *Iface, pkt []byte, dropped bool) {
		fmt.Fprintf(tx, "%s %t %x\n", from.Name(), dropped, pkt)
	})
	var burst [][]byte
	for i, dst := range []ipv6.Addr{
		ipv6.MustParseAddr("2001:db8:4321:8769::77"), // loops
		lanHost,
		ipv6.MustParseAddr("2001:db8:4321:876a::1"), // loops
		wanAddr,
		ipv6.MustParseAddr("2001:db8:aaaa::1"), // unassigned: unreachable
		lanAddr,
	} {
		pkt, err := wire.BuildEchoRequest(scannerAddr, dst, 24, 0xbeef, uint16(i), []byte("order"))
		if err != nil {
			t.Fatal(err)
		}
		burst = append(burst, pkt)
	}
	n.eng.InjectBatch(n.scanner.Iface(), burst)
	rx := sha256.New()
	arrivals := n.scanner.DrainInto(nil)
	for _, pkt := range arrivals {
		fmt.Fprintf(rx, "%x\n", pkt)
	}
	const (
		wantTx = "c496312288d850d404d71a15f0c0fe49d49846234853b60968bf93337b204b0e"
		wantRx = "ff6188026260b64fa3c00837c08e052acb09981c196891e2271a2aecdf3a75f5"
	)
	wantC := Counters{Events: 132, Transmissions: 136, Bytes: 8264, Dropped: 4, FastPathInvalidations: 8}
	if got := hex.EncodeToString(tx.Sum(nil)); got != wantTx {
		t.Errorf("transmission order digest %s, want %s", got, wantTx)
	}
	if got := hex.EncodeToString(rx.Sum(nil)); got != wantRx {
		t.Errorf("edge arrival digest %s over %d arrivals, want %s", got, len(arrivals), wantRx)
	}
	if c := n.eng.Counters(); c != wantC {
		t.Errorf("counters %+v, want %+v", c, wantC)
	}
}
