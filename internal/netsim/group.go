package netsim

import (
	"fmt"
	"slices"
	"sync"

	"repro/internal/ipv6"
)

// EngineGroup shards one simulated internet across several independent
// Engines so injections can pump concurrently. Each shard is its own
// serialization domain holding a disjoint subtree of the topology
// (topo.Build replicates the core/border spine per shard and assigns
// subscriber prefixes by contiguous window chunk, chunk c to shard
// c mod n); a prefix table routes each injected
// packet to the shard owning its destination, where it is injected at
// that shard's entry interface.
//
// Determinism contract: each shard is a deterministic engine — the
// same per-shard injection sequence replays bit-identically. A
// single-goroutine caller therefore gets fully deterministic runs.
// Concurrent callers (xmap.ScanParallel) interleave injections
// nondeterministically across goroutines, but because shards share no
// state the multiset of per-shard outcomes — responder sets, link
// counters, event totals — is unchanged without a fault layer; only
// arrival order at the edge varies.
//
// The routing table is built before pumping starts and read-only
// afterwards, so ShardFor needs no lock.
type EngineGroup struct {
	shards  []*Engine
	entries []*Iface
	// Routes are /64 or shorter, so the top 64 destination bits decide,
	// through coarse (the routes shorter than /64, a block and a few
	// window chunks per ISP, longest first) and pin64 (the /64 routes:
	// device prefixes topo.Build places outside their device's chunk). A
	// pin outranks every coarse route, but ShardFor reads pin64 only
	// behind the first coarse match whose pinned flag says a pin lies
	// inside it, or, with no match, when pinOutside records that a pin
	// was routed while no coarse route held it. Flags are never cleared:
	// one set too often costs a map miss, never a wrong shard.
	pin64      map[uint64]int
	coarse     []coarseRoute
	pinOutside bool
	// bucketPool recycles InjectBatch's per-shard partition scratch
	// across concurrent callers.
	bucketPool sync.Pool
}

// coarseRoute matches a dst whose top word agrees with hi under mask;
// pinned is set once any /64 pin lies inside it.
type coarseRoute struct {
	hi, mask uint64
	shard    int
	pinned   bool
}

func (r *coarseRoute) covers(hi uint64) bool { return (hi^r.hi)&r.mask == 0 }

// NewEngineGroup creates n independent shard engines.
func NewEngineGroup(n int) *EngineGroup {
	if n < 1 {
		n = 1
	}
	g := &EngineGroup{pin64: make(map[uint64]int)}
	for i := 0; i < n; i++ {
		g.shards = append(g.shards, New())
	}
	g.entries = make([]*Iface, n)
	return g
}

// NumShards returns the number of shard engines.
func (g *EngineGroup) NumShards() int { return len(g.shards) }

// Shard returns shard engine i.
func (g *EngineGroup) Shard(i int) *Engine { return g.shards[i] }

// SetEntry declares the interface injections destined for shard i enter
// through (the edge's attachment in that shard).
func (g *EngineGroup) SetEntry(shard int, ifc *Iface) {
	g.entries[shard] = ifc
}

// Route assigns a destination prefix, /64 or shorter, to a shard. Must
// not be called concurrently with injection.
func (g *EngineGroup) Route(p ipv6.Prefix, shard int) {
	if shard < 0 || shard >= len(g.shards) {
		panic(fmt.Sprintf("netsim: Route to nonexistent shard %d", shard))
	}
	if p.Bits() > 64 {
		panic(fmt.Sprintf("netsim: Route of %v, longer than /64", p))
	}
	hi := p.Addr().Uint128().Hi
	if p.Bits() == 64 {
		g.pin64[hi] = shard
		inside := false
		for i := range g.coarse {
			if r := &g.coarse[i]; r.covers(hi) {
				r.pinned, inside = true, true
			}
		}
		g.pinOutside = g.pinOutside || !inside
		return
	}
	// Ahead of the first route no longer than it (a shorter prefix has
	// the smaller mask), so a re-routed prefix shadows its old entry.
	r := coarseRoute{hi: hi, mask: ^uint64(0) << (64 - p.Bits()), shard: shard}
	for h := range g.pin64 {
		if r.covers(h) {
			r.pinned = true
			break
		}
	}
	i := slices.IndexFunc(g.coarse, func(c coarseRoute) bool { return c.mask <= r.mask })
	if i < 0 {
		i = len(g.coarse)
	}
	g.coarse = slices.Insert(g.coarse, i, r)
}

// ShardFor returns the shard owning dst (longest-prefix match; shard 0
// on a miss). A dst can equal a pin only inside every coarse route
// holding that pin, so the first coarse match's pinned flag (or, with
// no match, pinOutside) says whether pin64 can answer at all.
func (g *EngineGroup) ShardFor(dst ipv6.Addr) int {
	hi := dst.Uint128().Hi
	for i := range g.coarse {
		if r := &g.coarse[i]; r.covers(hi) {
			if r.pinned {
				if s, ok := g.pin64[hi]; ok {
					return s
				}
			}
			return r.shard
		}
	}
	if g.pinOutside {
		if s, ok := g.pin64[hi]; ok {
			return s
		}
	}
	return 0
}

// shardForPacket routes a raw packet by its destination address field.
// Malformed packets fall through to shard 0.
func (g *EngineGroup) shardForPacket(pkt []byte) int {
	if len(pkt) < 40 || pkt[0]>>4 != 6 {
		return 0
	}
	return g.ShardFor(ipv6.AddrFromBytes(pkt[24:40]))
}

// InjectBatch partitions pkts by owning shard, preserving per-shard
// order, and injects each partition as one batch at that shard's entry
// interface, pumping the shard to quiescence. It returns the events
// processed. Safe for concurrent use; injections to different shards
// proceed in parallel.
func (g *EngineGroup) InjectBatch(pkts [][]byte) int {
	if len(g.shards) == 1 {
		return g.shards[0].InjectBatch(g.entries[0], pkts)
	}
	n := 0
	bp, _ := g.bucketPool.Get().(*[][][]byte)
	if bp == nil {
		b := make([][][]byte, len(g.shards))
		bp = &b
	}
	buckets := *bp
	for _, pkt := range pkts {
		s := g.shardForPacket(pkt)
		buckets[s] = append(buckets[s], pkt)
	}
	for s, b := range buckets {
		if len(b) > 0 {
			n += g.shards[s].InjectBatch(g.entries[s], b)
			clear(b)
			buckets[s] = b[:0]
		}
	}
	g.bucketPool.Put(bp)
	return n
}

// ReleaseBufs hands exhausted packet buffers back to the shard
// freelists, each to the shard whose returned list is then shortest.
// Buffer ownership is not tracked per shard (any shard can reuse any
// buffer), and the shard that last swapped that list into its empty
// pool is the one consuming, so the buffers follow the load when one
// shard is busier than the others for a while.
func (g *EngineGroup) ReleaseBufs(pkts [][]byte) {
	for _, e := range g.shards {
		e.retMu.Lock()
	}
	for _, p := range pkts {
		low := g.shards[0]
		for _, e := range g.shards[1:] {
			if len(e.returned) < len(low.returned) {
				low = e
			}
		}
		putBuf(&low.returned, p)
	}
	for _, e := range g.shards {
		e.retMu.Unlock()
	}
}

// SetFault installs the fault layer on every shard. The fault func must
// be safe for concurrent calls when shards pump in parallel.
func (g *EngineGroup) SetFault(f FaultFunc) {
	for _, e := range g.shards {
		e.SetFault(f)
	}
}

// SetTap installs the tap on every shard. The tap must be safe for
// concurrent calls when shards pump in parallel.
func (g *EngineGroup) SetTap(t TapFunc) {
	for _, e := range g.shards {
		e.SetTap(t)
	}
}

// SetFastPath toggles the compiled forwarding fast path on every shard.
func (g *EngineGroup) SetFastPath(on bool) {
	for _, e := range g.shards {
		e.SetFastPath(on)
	}
}

// Counters sums the engine totals across all shards.
func (g *EngineGroup) Counters() Counters {
	var c Counters
	for _, e := range g.shards {
		sc := e.Counters()
		c.Events += sc.Events
		c.Transmissions += sc.Transmissions
		c.Bytes += sc.Bytes
		c.Dropped += sc.Dropped
		c.FastPathHits += sc.FastPathHits
		c.FastPathMisses += sc.FastPathMisses
		c.FastPathInvalidations += sc.FastPathInvalidations
		c.FastPathCompiles += sc.FastPathCompiles
		c.FastPathEvictions += sc.FastPathEvictions
	}
	return c
}
