package netsim

import (
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/ipv6"
	"repro/internal/wire"
)

// TestRingWrapAndGrow pushes enough to force wrap-around and a grow
// mid-stream, expecting strict FIFO throughout.
func TestRingWrapAndGrow(t *testing.T) {
	var r ring
	next, popped := uint64(0), uint64(0)
	push := func(k int) {
		for i := 0; i < k; i++ {
			r.push(delivery{seq: next})
			next++
		}
	}
	pop := func(k int) {
		for i := 0; i < k; i++ {
			d := r.pop()
			if d.seq != popped {
				t.Fatalf("popped seq %d, want %d", d.seq, popped)
			}
			popped++
		}
	}
	push(10)
	pop(7)   // head advances into the middle
	push(20) // wraps, then grows past the initial 16
	pop(23)
	if r.len() != 0 {
		t.Fatalf("ring len %d after draining", r.len())
	}
}

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
	eng := New(5)
	edge := NewEdge("e", ipv6.MustParseAddr("2001:beef::100"))
	r := NewRouter("r", ErrorPolicy{})
	rif := r.AddIface(ipv6.MustParseAddr("2001:100::1"), "r:up")
	eng.Connect(edge.Iface(), rif, 0)

	const probes = 100
	for i := 0; i < probes; i++ {
		pkt, err := wire.BuildEchoRequest(edge.Addr(), rif.Addr(), 64, 7, uint16(i), nil)
		if err != nil {
			t.Fatal(err)
		}
		eng.Inject(edge.Iface(), pkt)
	}
	replies := edge.Drain()
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
	eng := New(5)
	edge := NewEdge("e", ipv6.MustParseAddr("2001:beef::100"))
	r := NewRouter("r", ErrorPolicy{})
	rif := r.AddIface(ipv6.MustParseAddr("2001:100::1"), "r:up")
	eng.Connect(edge.Iface(), rif, 0)

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
	edge.Drain()
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
	eng := New(5)
	edge := NewEdge("e", ipv6.MustParseAddr("2001:beef::100"))
	r := NewRouter("r", ErrorPolicy{})
	rif := r.AddIface(ipv6.MustParseAddr("2001:100::1"), "r:up")
	eng.Connect(edge.Iface(), rif, 0)
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
	edge.Drain()

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
	if got := len(edge.Drain()); got != 1 {
		t.Fatalf("%d replies, want 1", got)
	}
}
