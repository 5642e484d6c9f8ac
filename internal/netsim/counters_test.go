package netsim

import (
	"testing"

	"repro/internal/ipv6"
)

// TestEngineCounters: the engine's cumulative totals track every link
// crossing — events, transmissions and bytes — and nothing is dropped
// without a fault layer (TestEngineCountersCountDrops arms one).
func TestEngineCounters(t *testing.T) {
	n := buildGroupNet(t, 1)
	eng := n.grp.Shard(0)
	c0 := eng.Counters()
	// Building the topology already bumps the flow-cache generation
	// (every Connect invalidates compiled paths); traffic counters must
	// still be zero before the first injection.
	if c0.FastPathInvalidations == 0 {
		t.Error("FastPathInvalidations = 0 after Connect, want generation bumps counted")
	}
	c0.FastPathInvalidations = 0
	if c0 != (Counters{}) {
		t.Fatalf("fresh engine counters = %+v, want zero traffic", c0)
	}
	var injected uint64
	for i := 0; i < 10; i++ {
		pkt := echoTo(t, n.addrs[0], uint16(i))
		injected += uint64(len(pkt))
		n.grp.InjectBatch([][]byte{pkt})
	}
	n.edge.DrainInto(nil)
	c := eng.Counters()
	// Each echo crosses the scanner-router link twice: request out,
	// reply back. The router's answer to its own address replays
	// through the flow cache, one fused event per round trip.
	if c.Transmissions != 20 {
		t.Errorf("Transmissions = %d, want 20", c.Transmissions)
	}
	if c.Events != 10 {
		t.Errorf("Events = %d, want 10 (one fused event per round trip)", c.Events)
	}
	if c.Bytes < 2*injected {
		t.Errorf("Bytes = %d, want at least %d (requests + replies)", c.Bytes, 2*injected)
	}
	if c.Dropped != 0 {
		t.Errorf("Dropped = %d without a fault layer", c.Dropped)
	}
	// Hits and misses partition the packets offered to the flow cache:
	// one per injection, none for the replies on their way back. The
	// first echo compiles the router's local entry, a miss; the other
	// nine replay it.
	if c.FastPathHits != 9 || c.FastPathMisses != 1 {
		t.Errorf("hits %d, misses %d, want 9 and 1 (one compile, then hits)", c.FastPathHits, c.FastPathMisses)
	}
	// A tapped or armed engine offers nothing to the cache, so neither
	// counter moves; a disabled one likewise.
	eng.SetTap(func(*Iface, []byte, bool) {})
	n.grp.InjectBatch([][]byte{echoTo(t, n.addrs[0], 10)})
	eng.SetTap(nil)
	eng.SetFault(func(*Iface, []byte) FaultOutcome { return FaultOutcome{} })
	n.grp.InjectBatch([][]byte{echoTo(t, n.addrs[0], 11)})
	eng.SetFault(nil)
	eng.SetFastPath(false)
	n.grp.InjectBatch([][]byte{echoTo(t, n.addrs[0], 12)})
	c2 := eng.Counters()
	if c2.FastPathHits != c.FastPathHits || c2.FastPathMisses != c.FastPathMisses {
		t.Errorf("observed/disabled injections moved the account: hits %d -> %d, misses %d -> %d",
			c.FastPathHits, c2.FastPathHits, c.FastPathMisses, c2.FastPathMisses)
	}
	// The interpreter pumps one delivery per crossing: three round
	// trips, six events.
	if got := c2.Events - c.Events; got != 6 {
		t.Errorf("three interpreted echoes pumped %d events, want 6", got)
	}
}

// TestEngineCountersCountDrops: under a drop-everything fault layer
// every attempt is counted in both Transmissions (attempts, matching
// per-link LinkStats.Packets) and Dropped.
func TestEngineCountersCountDrops(t *testing.T) {
	eng := New()
	edge := NewEdge("e", ipv6.MustParseAddr("2001:beef::100"))
	r := NewRouter("r", ErrorPolicy{})
	rif := r.AddIface(ipv6.MustParseAddr("2001:100::1"), "r:up")
	eng.Connect(edge.Iface(), rif)
	eng.SetFault(func(*Iface, []byte) FaultOutcome { return FaultOutcome{Drop: true} })
	for i := 0; i < 5; i++ {
		eng.Inject(edge.Iface(), echoTo(t, rif.Addr(), uint16(i)))
	}
	c := eng.Counters()
	if c.Dropped != 5 {
		t.Errorf("Dropped = %d, want 5", c.Dropped)
	}
	if c.Transmissions != 5 {
		t.Errorf("Transmissions = %d, want 5 attempts counted", c.Transmissions)
	}
	// An armed engine does not consult its cache.
	if c.FastPathHits != 0 || c.FastPathMisses != 0 {
		t.Errorf("hits %d, misses %d on an armed engine, want 0 and 0", c.FastPathHits, c.FastPathMisses)
	}
}

// TestGroupCountersSumShards: the group view is the sum of its shards.
func TestGroupCountersSumShards(t *testing.T) {
	n := buildGroupNet(t, 3)
	for rep := 0; rep < 2; rep++ {
		for s, addr := range n.addrs {
			n.grp.InjectBatch([][]byte{echoTo(t, addr, uint16(rep*3+s))})
		}
	}
	n.edge.DrainInto(nil)
	var want Counters
	for s := 0; s < 3; s++ {
		c := n.grp.Shard(s).Counters()
		if c.Transmissions == 0 {
			t.Errorf("shard %d saw no traffic", s)
		}
		want.Events += c.Events
		want.Transmissions += c.Transmissions
		want.Bytes += c.Bytes
		want.Dropped += c.Dropped
		want.FastPathHits += c.FastPathHits
		want.FastPathMisses += c.FastPathMisses
		want.FastPathInvalidations += c.FastPathInvalidations
		want.FastPathCompiles += c.FastPathCompiles
		want.FastPathEvictions += c.FastPathEvictions
	}
	if want.FastPathCompiles == 0 {
		t.Error("FastPathCompiles = 0 after cold probes on every shard")
	}
	if got := n.grp.Counters(); got != want {
		t.Errorf("group counters = %+v, shard sum = %+v", got, want)
	}
}

// TestEngineCountersCompilesAndEvictions: a flow compiles once and then
// replays (compiles stay put while hits grow), and a table pushed past
// fpMaxSlots reports the live entries it overwrites.
func TestEngineCountersCompilesAndEvictions(t *testing.T) {
	n := buildGroupNet(t, 1)
	eng := n.grp.Shard(0)
	// No route behind the router: every probe draws the same compiled
	// Destination Unreachable.
	noRoute := ipv6.MustParseAddr("2001:100:dead::1")
	for i := 0; i < 10; i++ {
		n.grp.InjectBatch([][]byte{echoTo(t, noRoute, uint16(i))})
	}
	if got := len(n.edge.DrainInto(nil)); got != 10 {
		t.Fatalf("%d replies to 10 no-route probes", got)
	}
	c := eng.Counters()
	if c.FastPathCompiles != 1 {
		t.Errorf("FastPathCompiles = %d for one flow probed ten times, want 1", c.FastPathCompiles)
	}
	if c.FastPathEvictions != 0 {
		t.Errorf("FastPathEvictions = %d on a near-empty table", c.FastPathEvictions)
	}
	// The compile is the miss of the injection that needed it; the other
	// nine replay it.
	if c.FastPathHits != 9 || c.FastPathMisses != 1 {
		t.Errorf("hits %d, misses %d over 10 injections of one flow, want 9 and 1", c.FastPathHits, c.FastPathMisses)
	}

	fp := flowCache{gen: 1}
	var cold flowCold
	for i := uint64(0); i < 2*fpMaxSlots; i++ {
		fp.insert(&flowHot{ifid: 1, hi: i << 8, width: 56, flags: fpFlagWide, kind: entryError}, &cold)
	}
	if len(fp.hot) != fpMaxSlots {
		t.Fatalf("table holds %d slots, want it capped at %d", len(fp.hot), fpMaxSlots)
	}
	if fp.evictions == 0 {
		t.Errorf("%d inserts into %d slots evicted nothing", 2*fpMaxSlots, fpMaxSlots)
	}
}
