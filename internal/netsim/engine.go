// Package netsim is the packet-level IPv6 network simulator the scanner
// runs against: the substitute for the real Internet vantage the paper
// used. Nodes (routers, customer-premises equipment, user equipment)
// exchange raw IPv6 packets over point-to-point links; forwarding,
// hop-limit handling and ICMPv6 error generation follow RFC 8200 and
// RFC 4443, including the flawed CPE routing implementations the paper
// measures (Section VI).
package netsim

import (
	"fmt"
	"sync"

	"repro/internal/ipv6"
)

// Emission is a packet a node wants to transmit out of one of its
// interfaces. Ownership of Pkt passes to the engine, which may recycle
// the buffer once it has been consumed.
type Emission struct {
	Out *Iface
	Pkt []byte
}

// Node is anything attached to the network.
type Node interface {
	// Name identifies the node in diagnostics.
	Name() string
	// Handle processes a packet that arrived on in and returns the
	// packets to transmit. Implementations may mutate pkt in place and
	// may pass it on inside an Emission (the whole slice, not a
	// re-slice), but must not keep a reference past the call unless
	// they implement PacketRetainer: the engine recycles delivered
	// buffers.
	Handle(in *Iface, pkt []byte) []Emission
}

// PacketRetainer marks nodes whose Handle keeps delivered packet
// buffers past the call (the Edge does: it hands them to the driver via
// DrainInto). The engine never recycles buffers delivered to such nodes
// on its own; they come back only through ReleaseBufs.
type PacketRetainer interface {
	RetainsPackets() bool
}

func retainsPackets(n Node) bool {
	r, ok := n.(PacketRetainer)
	return ok && r.RetainsPackets()
}

// Iface is one end of a point-to-point link, bound to a node and holding
// the interface's unicast address.
type Iface struct {
	node Node
	addr ipv6.Addr
	name string
	link *Link
	end  int // which end of link this iface is (0 or 1)
	// eng is set by Connect; node handlers use it to build reply packets
	// into pooled buffers (they run with the engine lock held).
	eng *Engine
	// fpID is the engine-local flow-cache key component, assigned by
	// Connect (0 = never connected).
	fpID uint32
}

// NewIface creates an unbound interface for node with the given unicast
// address. Bind it with Engine.Connect.
func NewIface(node Node, addr ipv6.Addr, name string) *Iface {
	return &Iface{node: node, addr: addr, name: name}
}

// Node returns the owning node.
func (i *Iface) Node() Node { return i.node }

// Addr returns the interface's unicast address.
func (i *Iface) Addr() ipv6.Addr { return i.addr }

// Name returns the interface label.
func (i *Iface) Name() string { return i.name }

// Peer returns the interface at the other end of the link, or nil if the
// interface is not connected.
func (i *Iface) Peer() *Iface {
	if i.link == nil {
		return nil
	}
	return i.link.ends[1-i.end]
}

// buf borrows a packet buffer of length n from the engine the interface
// is connected to, for a node building a reply while that engine runs
// it (the engine lock is held). An unconnected interface — a node
// driven directly — lends nil, and the wire builders allocate.
func (i *Iface) buf(n int) []byte {
	if i == nil || i.eng == nil {
		return nil
	}
	return i.eng.getBufLocked(n)
}

// unbuf hands back a buffer borrowed with buf that carries no packet.
func (i *Iface) unbuf(b []byte) {
	if i != nil && i.eng != nil {
		i.eng.putBufLocked(b)
	}
}

// Link is a point-to-point link between two interfaces.
type Link struct {
	ends  [2]*Iface
	stats [2]LinkStats
}

// LinkStats counts traffic sent from one end of a link.
type LinkStats struct {
	Packets uint64
	Bytes   uint64
}

// StatsFrom returns the counters for traffic transmitted by iface into
// the link. It panics if iface is not an endpoint.
func (l *Link) StatsFrom(iface *Iface) LinkStats {
	switch iface {
	case l.ends[0]:
		return l.stats[0]
	case l.ends[1]:
		return l.stats[1]
	}
	panic("netsim: StatsFrom on foreign interface")
}

// Ends returns the two endpoint interfaces of the link.
func (l *Link) Ends() [2]*Iface { return l.ends }

// TotalPackets returns the packets carried in both directions.
func (l *Link) TotalPackets() uint64 {
	return l.stats[0].Packets + l.stats[1].Packets
}

// delivery is a queued packet arrival. due orders deliveries: it is
// derived from the enqueue sequence number, optionally pushed forward
// by a fault layer to model reordering; seq breaks due ties in favor of
// the earliest enqueue.
type delivery struct {
	to  *Iface
	pkt []byte
	due uint64
	seq uint64
}

// FaultOutcome is a fault layer's decision for one transmission.
type FaultOutcome struct {
	// Drop discards the packet after link stats are counted: the
	// engine's only way to lose a packet.
	Drop bool
	// Deliveries, when non-empty, replaces the single in-order delivery:
	// one copy of the packet is enqueued per element, deferred past that
	// many subsequently enqueued deliveries (0 = in order). A
	// multi-element slice models duplication; a single positive element
	// models reordering. Empty means one in-order delivery. The engine
	// only reads the slice and keeps no reference to it, so a fault
	// layer may return the same slice for many transmissions.
	Deliveries []int
}

// FaultFunc inspects one link transmission and decides its fate. It is
// called with the engine lock held and must not call back into the
// engine or retain pkt.
type FaultFunc func(from *Iface, pkt []byte) FaultOutcome

// TapFunc observes every link transmission, after the fault layer's
// decision; dropped reports whether the packet was discarded. Taps run
// with the engine lock held and must not call back into the engine or
// retain pkt (copy what you need: buffers are recycled).
type TapFunc func(from *Iface, pkt []byte, dropped bool)

// Engine owns one simulation shard: links, the event queue, and the
// virtual pump. All methods are safe for concurrent use; the engine
// serializes internally, so a run is deterministic for a given
// injection order and fault layer. For multi-core scaling across
// disjoint subtrees, see EngineGroup.
type Engine struct {
	mu    sync.Mutex
	queue dheap // pending deliveries, popped in (due, seq) order
	links []*Link
	steps uint64
	seq   uint64
	fault FaultFunc
	tap   TapFunc
	// Engine-wide traffic totals (the LinkStats aggregate). Kept as
	// plain counters under mu — transmissions far outnumber probes, so
	// per-transmission atomics would be measurable; telemetry folds
	// these in at snapshot time via a collector (merge-on-read).
	txPackets uint64
	txBytes   uint64
	txDropped uint64

	// pool is the packet-buffer freelist. Buffers never escape the
	// engine's serialization domain, so a plain slice under mu beats
	// sync.Pool (which would allocate a boxed header per Put).
	pool [][]byte
	// owner identifies the buffer of the delivery currently inside
	// Handle; ownerReused is set when the node re-emits that buffer, in
	// which case the pump must not recycle it.
	owner       *byte
	ownerReused bool

	// ftr observes sampled flow crossings (trace.go).
	ftr FlowTracer

	// fp is the compiled forwarding fast path (flowcache.go);
	// fpScratchH/fpScratchC are the hot/cold halves of the entry under
	// compilation and fpScratchR the region a node's decide fills, kept
	// off the stack so a compile never allocates.
	fp         flowCache
	fpScratchH flowHot
	fpScratchC flowCold
	fpScratchR region
	// inj is the batched-injection scratch (inject.go).
	inj injScratch

	// returned is the second freelist, fed by ReleaseBufs under retMu
	// alone so a drain never waits behind an injection holding mu;
	// getBufLocked swaps it in when pool runs dry (lock order: mu, then
	// retMu). Kept last, away from the fields the pump touches under mu,
	// because another goroutine writes it.
	retMu    sync.Mutex
	returned [][]byte
}

// eventBudget bounds the events one injected packet may cause;
// loop-attack packets terminate via hop limit well before this.
const eventBudget = 1 << 22

// maxPooledBuffers bounds each freelist (pool and returned) so a
// one-off burst does not pin memory forever.
const maxPooledBuffers = 256

// New creates an empty engine with the fast path enabled.
func New() *Engine {
	return &Engine{fp: flowCache{enabled: true, gen: 1}}
}

// Connect joins two interfaces with a link. Links never lose packets by
// themselves: loss is a fault layer's Drop (SetFault). It panics if
// either interface is already connected.
func (e *Engine) Connect(a, b *Iface) *Link {
	if a.link != nil || b.link != nil {
		panic(fmt.Sprintf("netsim: interface %s or %s already connected", a.name, b.name))
	}
	l := &Link{ends: [2]*Iface{a, b}}
	a.link, a.end = l, 0
	b.link, b.end = l, 1
	a.eng, b.eng = e, e
	for _, ifc := range l.ends {
		if n, ok := ifc.node.(interface{ attach(*Engine) }); ok {
			n.attach(e)
		}
	}
	e.mu.Lock()
	e.links = append(e.links, l)
	e.fp.assignIDLocked(a)
	e.fp.assignIDLocked(b)
	e.fp.bumpLocked() // topology changed: compiled paths are stale
	e.mu.Unlock()
	return l
}

// Links returns the engine's links in connection order (read-only view
// for observers; per-direction stats via Link.StatsFrom).
func (e *Engine) Links() []*Link {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.links
}

// SetFault installs (or, with nil, removes) a fault-injection layer
// consulted on every link transmission: the engine's only source of
// loss, duplication and reordering. Simulation tests use it for seeded
// loss, duplication, reordering and outage windows. While a layer is
// installed every packet is interpreted; the flows compiled before
// stay valid for when it is removed.
func (e *Engine) SetFault(f FaultFunc) {
	e.mu.Lock()
	e.fault = f
	e.mu.Unlock()
}

// SetFastPath enables or disables the compiled forwarding fast path
// (flowcache.go). Enabled by default; disabling frees the flow table
// and forces every packet onto the interpreted path.
func (e *Engine) SetFastPath(on bool) {
	e.mu.Lock()
	if e.fp.enabled != on {
		e.fp.enabled = on
		e.fp.bumpLocked()
		if !on {
			e.fp.tags = nil
			e.fp.hot = nil
			e.fp.cold = nil
			e.fp.free = nil
			e.fp.mask = 0
		}
	}
	e.mu.Unlock()
}

// InvalidateFlows discards every compiled flow. Nodes call it (via
// their mutators) when routing state changes; tests use it to pin
// invalidation behavior.
func (e *Engine) InvalidateFlows() {
	e.mu.Lock()
	e.fp.bumpLocked()
	e.mu.Unlock()
}

// SetTap installs (or, with nil, removes) an observer of every link
// transmission. Invariant checkers hook in here. While a tap is
// installed every packet is interpreted, crossing by crossing.
func (e *Engine) SetTap(t TapFunc) {
	e.mu.Lock()
	e.tap = t
	e.mu.Unlock()
}

// Inject copies pkt and delivers it as if transmitted by from into its
// link, then pumps the network to quiescence. It returns the number of
// events processed.
func (e *Engine) Inject(from *Iface, pkt []byte) int {
	e.mu.Lock()
	defer e.mu.Unlock()
	one := [1][]byte{pkt}
	return e.injectLocked(from, one[:])
}

// InjectBatch is Inject for multiple packets from the same interface
// under one lock acquisition. Observable behavior is exactly as if the
// packets were injected one Inject call at a time — every stat charge
// and fault decision lands identically — which is what lets the batched
// scanner path be diffed against the per-packet path under fault
// injection.
func (e *Engine) InjectBatch(from *Iface, pkts [][]byte) int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.injectLocked(from, pkts)
}

// injectLocked is the body of Inject and InjectBatch: runs the flow
// cache can answer are replayed whole (inject.go), every other packet is
// interpreted to quiescence before the next is looked at.
func (e *Engine) injectLocked(from *Iface, pkts [][]byte) int {
	n := 0
	for i := 0; i < len(pkts); {
		if k, ev := e.injectFastLocked(from, pkts[i:]); k > 0 {
			n += ev
			i += k
			continue
		}
		pkt := pkts[i]
		cp := e.getBufLocked(len(pkt))
		copy(cp, pkt)
		e.transmitLocked(from, cp)
		n += e.runLocked()
		i++
	}
	return n
}

// Counters is an engine's cumulative traffic view: events pumped plus
// the all-links transmission totals. It exists so observers (telemetry
// collectors) read one consistent aggregate instead of walking links.
type Counters struct {
	// Events is the deliveries pumped since creation.
	Events uint64
	// Transmissions counts packets pushed onto any link, duplicates
	// included; Bytes is their payload total.
	Transmissions uint64
	Bytes         uint64
	// Dropped counts transmissions discarded by a fault layer's Drop
	// decision.
	Dropped uint64
	// FastPathHits and FastPathMisses partition the packets offered to
	// the flow cache — every injection while the fast path is enabled
	// and the engine has neither a fault layer nor a tap: a hit replayed
	// a flow compiled earlier — a probe to a node's own address too,
	// whatever the node answered and however its answer went back — and
	// a miss compiled first, met a negative entry, failed a replay guard
	// (source address; a hop limit that dies before the terminal, or on
	// another turn of a loop entry's cycle; an ICMP-error probe) or
	// belonged to a traced flow.
	// FastPathInvalidations counts generation bumps (each discards
	// every compiled flow).
	// FastPathCompiles counts route-compilation walks and
	// FastPathEvictions live entries overwritten because the table was
	// full: compiles near the probe count, or any evictions, mean the
	// cache is thrashing rather than caching.
	FastPathHits          uint64
	FastPathMisses        uint64
	FastPathInvalidations uint64
	FastPathCompiles      uint64
	FastPathEvictions     uint64
}

// Counters returns the engine totals, consistent under the engine lock.
func (e *Engine) Counters() Counters {
	e.mu.Lock()
	defer e.mu.Unlock()
	return Counters{
		Events:                e.steps,
		Transmissions:         e.txPackets,
		Bytes:                 e.txBytes,
		Dropped:               e.txDropped,
		FastPathHits:          e.fp.hits,
		FastPathMisses:        e.fp.misses,
		FastPathInvalidations: e.fp.invalidations,
		FastPathCompiles:      e.fp.compiles,
		FastPathEvictions:     e.fp.evictions,
	}
}

// getBufLocked returns a packet buffer of length n, reusing a pooled
// buffer when one fits. An empty pool refills from the returned list.
func (e *Engine) getBufLocked(n int) []byte {
	if len(e.pool) == 0 {
		e.retMu.Lock()
		e.pool, e.returned = e.returned, e.pool
		e.retMu.Unlock()
	}
	if l := len(e.pool); l > 0 {
		b := e.pool[l-1]
		e.pool[l-1] = nil
		e.pool = e.pool[:l-1]
		if cap(b) >= n {
			return b[:n]
		}
		// Too small: let it go and allocate fresh below, so the pool
		// self-cleans when the workload's packet size grows.
	}
	const minBuf = 128
	if n < minBuf {
		return make([]byte, n, minBuf)
	}
	return make([]byte, n)
}

// putBufLocked returns a buffer to the freelist.
func (e *Engine) putBufLocked(b []byte) { putBuf(&e.pool, b) }

// putBuf appends b to a freelist unless b is empty or the list is full.
func putBuf(list *[][]byte, b []byte) {
	if cap(b) == 0 || len(*list) >= maxPooledBuffers {
		return
	}
	*list = append(*list, b[:0])
}

// ReleaseBufs returns packet buffers to the engine's returned list.
// Callers that drain a retaining node (an Edge) use it to hand exhausted
// buffers back instead of leaving them to the garbage collector; the
// buffers must no longer be referenced. It never takes the engine lock,
// so it does not wait behind an injection in progress.
func (e *Engine) ReleaseBufs(pkts [][]byte) {
	e.retMu.Lock()
	for _, p := range pkts {
		putBuf(&e.returned, p)
	}
	e.retMu.Unlock()
}

// bufBase identifies a packet buffer by the address of its first
// element (nil for empty buffers, which are never pooled).
func bufBase(b []byte) *byte {
	if len(b) == 0 {
		return nil
	}
	return &b[0]
}

// discardLocked recycles a dropped packet's buffer unless it is the
// delivery currently being handled — that one is reclaimed by runLocked
// after the node returns, and may still be re-emitted.
func (e *Engine) discardLocked(pkt []byte) {
	if b := bufBase(pkt); b != nil && b != e.owner {
		e.putBufLocked(pkt)
	}
}

// transmitLocked pushes pkt from iface onto its link (consulting the
// fault layer) and hands the arrival at the peer to the event queue.
// The engine owns pkt from here on.
func (e *Engine) transmitLocked(from *Iface, pkt []byte) {
	l := from.link
	if l == nil {
		return // unconnected interface: packet vanishes
	}
	st := &l.stats[from.end]
	st.Packets++
	st.Bytes += uint64(len(pkt))
	e.txPackets++
	e.txBytes += uint64(len(pkt))
	var out FaultOutcome
	if e.fault != nil {
		out = e.fault(from, pkt)
	}
	if e.tap != nil {
		e.tap(from, pkt, out.Drop)
	}
	if e.ftr != nil {
		e.traceCrossingLocked(from, pkt, out.Drop)
	}
	if out.Drop {
		e.txDropped++
		e.discardLocked(pkt)
		return
	}
	to := l.ends[1-from.end]
	if len(out.Deliveries) == 0 {
		e.enqueueLocked(to, pkt, 0)
		return
	}
	for i, delay := range out.Deliveries {
		cp := pkt
		if i > 0 {
			// Nodes may mutate delivered packets, so every duplicate
			// needs its own copy; it also crosses the link.
			cp = e.getBufLocked(len(pkt))
			copy(cp, pkt)
			st.Packets++
			st.Bytes += uint64(len(pkt))
			e.txPackets++
			e.txBytes += uint64(len(pkt))
		}
		e.enqueueLocked(to, cp, delay)
	}
}

// enqueueLocked adds one delivery, deferred past delay subsequently
// enqueued deliveries.
func (e *Engine) enqueueLocked(to *Iface, pkt []byte, delay int) {
	e.seq++
	// Dues advance in steps of two so a deferred delivery can land
	// strictly after the delay-th subsequent enqueue (the +1 breaks the
	// tie against it).
	due := 2 * e.seq
	if delay > 0 {
		due += 2*uint64(delay) + 1
	}
	if b := bufBase(pkt); b != nil && b == e.owner {
		e.ownerReused = true
	}
	e.queue.push(delivery{to: to, pkt: pkt, due: due, seq: e.seq})
}

// runLocked pumps queued deliveries in (due, seq) order until the
// network is quiescent or the event budget is exhausted, returning
// events processed.
func (e *Engine) runLocked() int {
	n := 0
	for ; e.queue.len() > 0 && n < eventBudget; n++ {
		d := e.queue.pop()
		e.steps++
		e.owner, e.ownerReused = bufBase(d.pkt), false
		for _, em := range d.to.node.Handle(d.to, d.pkt) {
			e.transmitLocked(em.Out, em.Pkt)
		}
		if e.owner != nil && !e.ownerReused && !retainsPackets(d.to.node) {
			e.putBufLocked(d.pkt)
		}
		e.owner = nil
	}
	if e.queue.len() > 0 {
		// Budget exceeded: drop the remainder. The buffers are left to
		// the garbage collector — this path only fires on runaway loops.
		e.queue.reset()
	}
	return n
}
