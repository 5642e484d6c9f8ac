package netsim

import (
	"fmt"
	"sync"

	"repro/internal/ipv6"
	"repro/internal/lpm"
)

// EngineGroup shards one simulated internet across several independent
// Engines so injections can pump concurrently. Each shard is its own
// serialization domain holding a disjoint subtree of the topology
// (topo.Build replicates the core/border spine per shard and assigns
// subscriber prefixes round-robin); a prefix table routes each injected
// packet to the shard owning its destination, where it is injected at
// that shard's entry interface.
//
// Determinism contract: each shard is a deterministic engine — the
// same per-shard injection sequence replays bit-identically. A
// single-goroutine caller therefore gets fully deterministic runs.
// Concurrent callers (xmap.ScanParallel) interleave injections
// nondeterministically across goroutines, but because shards share no
// state the multiset of per-shard outcomes — responder sets, link
// counters, step totals — is unchanged on lossless, fault-free
// topologies; only arrival order at the edge varies.
//
// The routing table is built before pumping starts and read-only
// afterwards, so ShardFor needs no lock.
type EngineGroup struct {
	shards  []*Engine
	entries []*Iface
	routes  *lpm.Table[int]
	// pin64 holds exactly-/64 routes keyed by their masked address.
	// topo.Build pins one /64 per simulated device, so with large
	// topologies these dominate the table; keeping them out of the LPM
	// leaves it with only the coarse window routes (its small-table
	// linear path) and turns the per-packet longest-match walk into one
	// map probe. A /64 is the longest prefix topo installs, so checking
	// pin64 first preserves longest-match order; if a caller ever
	// installs a route longer than /64 the pins migrate into the LPM
	// and pin64 is retired (see Route).
	pin64 map[ipv6.Addr]int
	// bucketPool recycles InjectBatch's per-shard partition scratch
	// across concurrent callers.
	bucketPool sync.Pool
}

// NewEngineGroup creates n independent shard engines. Shard 0 uses
// exactly seed — a group of one is loss-stream-compatible with a plain
// New(seed) engine — and further shards derive their loss streams from
// seed deterministically.
func NewEngineGroup(seed int64, n int) *EngineGroup {
	if n < 1 {
		n = 1
	}
	g := &EngineGroup{routes: lpm.New[int](), pin64: make(map[ipv6.Addr]int)}
	for i := 0; i < n; i++ {
		s := seed
		if i > 0 {
			s = seed + int64(i)*1_000_003
		}
		g.shards = append(g.shards, New(s))
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

// Entry returns shard i's injection interface.
func (g *EngineGroup) Entry(shard int) *Iface { return g.entries[shard] }

// Route assigns a destination prefix to a shard. Must not be called
// concurrently with injection.
func (g *EngineGroup) Route(p ipv6.Prefix, shard int) {
	if shard < 0 || shard >= len(g.shards) {
		panic(fmt.Sprintf("netsim: Route to nonexistent shard %d", shard))
	}
	if p.Bits() == 64 && g.pin64 != nil {
		g.pin64[p.Addr()] = shard
		return
	}
	if p.Bits() > 64 && g.pin64 != nil {
		// A route longer than /64 can shadow a pin, so the map-first
		// shortcut is no longer sound: fold the pins back into the LPM
		// and retire the map.
		for a, s := range g.pin64 {
			p64, _ := ipv6.NewPrefix(a, 64)
			g.routes.Insert(p64, s)
		}
		g.pin64 = nil
	}
	g.routes.Insert(p, shard)
}

// ShardFor returns the shard owning dst (longest-prefix match; shard 0
// on a miss).
func (g *EngineGroup) ShardFor(dst ipv6.Addr) int {
	if g.pin64 != nil {
		if s, ok := g.pin64[dst.Prefix64().Addr()]; ok {
			return s
		}
	}
	if s, ok := g.routes.Lookup(dst); ok {
		return s
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

// Inject routes pkt to the shard owning its destination and injects it
// at that shard's entry interface, pumping the shard to quiescence. It
// returns the events processed. Safe for concurrent use; injections to
// different shards proceed in parallel.
func (g *EngineGroup) Inject(pkt []byte) int {
	s := g.shardForPacket(pkt)
	return g.shards[s].Inject(g.entries[s], pkt)
}

// InjectBatch partitions pkts by owning shard, preserving per-shard
// order, and injects each partition as one batch.
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

// ReleaseBufs spreads exhausted packet buffers across the shard
// freelists (buffer ownership is not tracked per shard; any shard can
// reuse any buffer).
func (g *EngineGroup) ReleaseBufs(pkts [][]byte) {
	per := (len(pkts) + len(g.shards) - 1) / len(g.shards)
	for i := 0; i < len(g.shards) && len(pkts) > 0; i++ {
		n := min(per, len(pkts))
		g.shards[i].ReleaseBufs(pkts[:n])
		pkts = pkts[n:]
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

// Steps sums events processed across all shards.
func (g *EngineGroup) Steps() uint64 {
	var n uint64
	for _, e := range g.shards {
		n += e.Steps()
	}
	return n
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
