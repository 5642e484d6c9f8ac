package netsim

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/ipv6"
	"repro/internal/lpm"
	"repro/internal/uint128"
	"repro/internal/wire"
)

// groupNet is a two-shard fixture: one edge attached to both shards,
// each shard holding one echo-answering router that owns a /32.
type groupNet struct {
	grp   *EngineGroup
	edge  *Edge
	addrs []ipv6.Addr // router address per shard
}

func buildGroupNet(t *testing.T, shards int) *groupNet {
	t.Helper()
	n := &groupNet{
		grp:  NewEngineGroup(shards),
		edge: NewEdge("scanner", ipv6.MustParseAddr("2001:beef::100")),
	}
	for s := 0; s < shards; s++ {
		prefix := ipv6.MustParsePrefix(fmt.Sprintf("2001:%d00::/32", s+1))
		addr := ipv6.SLAAC(prefix, 1)
		r := NewRouter(fmt.Sprintf("r%d", s), ErrorPolicy{})
		rif := r.AddIface(addr, "r:up")
		edgeIf := n.edge.Iface()
		if s > 0 {
			edgeIf = n.edge.AddIface(fmt.Sprintf("scanner:if%d", s))
		}
		n.grp.Shard(s).Connect(edgeIf, rif)
		n.grp.SetEntry(s, edgeIf)
		n.grp.Route(prefix, s)
		n.addrs = append(n.addrs, addr)
	}
	return n
}

func echoTo(t *testing.T, dst ipv6.Addr, seq uint16) []byte {
	t.Helper()
	pkt, err := wire.BuildEchoRequest(ipv6.MustParseAddr("2001:beef::100"), dst, 64, 7, seq, nil)
	if err != nil {
		t.Fatal(err)
	}
	return pkt
}

// TestGroupRoutesByDestination: an injection reaches the shard owning
// the destination prefix and only that shard.
func TestGroupRoutesByDestination(t *testing.T) {
	n := buildGroupNet(t, 4)
	for s, addr := range n.addrs {
		before := make([]uint64, 4)
		for i := range before {
			before[i] = n.grp.Shard(i).Counters().Events
		}
		n.grp.InjectBatch([][]byte{echoTo(t, addr, uint16(s))})
		replies := n.edge.DrainInto(nil)
		if len(replies) != 1 {
			t.Fatalf("shard %d: %d replies, want 1", s, len(replies))
		}
		sum, err := wire.ParsePacket(replies[0])
		if err != nil {
			t.Fatal(err)
		}
		if sum.IP.Src != addr {
			t.Errorf("reply from %s, want %s", sum.IP.Src, addr)
		}
		for i := range before {
			moved := n.grp.Shard(i).Counters().Events - before[i]
			if i == s && moved == 0 {
				t.Errorf("owning shard %d processed no events", i)
			}
			if i != s && moved != 0 {
				t.Errorf("foreign shard %d processed %d events", i, moved)
			}
		}
	}
	if got := n.grp.Counters().Events; got == 0 {
		t.Error("group Counters().Events = 0")
	}
}

// TestGroupRouteMissFallsToShardZero: unrouted and non-IPv6 injections
// land on shard 0 instead of being dropped.
func TestGroupRouteMissFallsToShardZero(t *testing.T) {
	n := buildGroupNet(t, 2)
	before := n.grp.Shard(0).Counters().Events
	n.grp.InjectBatch([][]byte{echoTo(t, ipv6.MustParseAddr("2001:dead::1"), 1)})
	if n.grp.Shard(0).Counters().Events == before {
		t.Error("unrouted destination did not reach shard 0")
	}
	if n.grp.shardForPacket([]byte{0x40, 0x00}) != 0 {
		t.Error("malformed packet not routed to shard 0")
	}
}

// TestGroupInjectBatchPartitions: one batch fans out to every owning
// shard and all replies come back.
func TestGroupInjectBatchPartitions(t *testing.T) {
	n := buildGroupNet(t, 4)
	var batch [][]byte
	for rep := 0; rep < 3; rep++ {
		for s, addr := range n.addrs {
			batch = append(batch, echoTo(t, addr, uint16(rep*4+s)))
		}
	}
	if events := n.grp.InjectBatch(batch); events == 0 {
		t.Fatal("batch processed no events")
	}
	replies := n.edge.DrainInto(nil)
	if len(replies) != len(batch) {
		t.Fatalf("%d replies to a %d-packet batch", len(replies), len(batch))
	}
	perShard := map[ipv6.Addr]int{}
	for _, r := range replies {
		sum, err := wire.ParsePacket(r)
		if err != nil {
			t.Fatal(err)
		}
		perShard[sum.IP.Src]++
	}
	for _, addr := range n.addrs {
		if perShard[addr] != 3 {
			t.Errorf("router %s answered %d times, want 3", addr, perShard[addr])
		}
	}
}

// TestGroupTapSeesEveryShard: a group-installed tap observes crossings
// on all shards.
func TestGroupTapSeesEveryShard(t *testing.T) {
	n := buildGroupNet(t, 2)
	seen := map[ipv6.Addr]int{}
	n.grp.SetTap(func(from *Iface, pkt []byte, dropped bool) {
		if len(pkt) >= 40 {
			seen[ipv6.AddrFromBytes(pkt[24:40])]++
		}
	})
	for _, addr := range n.addrs {
		n.grp.InjectBatch([][]byte{echoTo(t, addr, 1)})
	}
	for _, addr := range n.addrs {
		if seen[addr] == 0 {
			t.Errorf("tap never saw traffic to %s", addr)
		}
	}
	n.grp.SetTap(nil)
}

// TestGroupShardForMatchesLPM holds ShardFor's top-word shortcuts (the
// coarse routes scanned longest-first, the /64 pin map behind their
// pinned flags) to a reference LPM holding every route, over a table
// shaped like a sharded topo.Build — per ISP a block route, window
// chunks dealt round-robin, a hostile region, device WAN and LAN /64
// pins that cross chunk lines — at every pin, every chunk boundary and
// outside the windows. Then over the orders topo.Build does not use:
// pins routed before the coarse routes covering them, a coarse route
// added after lookups ran, a pin outside every coarse route; and a
// chunk with no pins, where ShardFor must not read the pin map at all.
// Last, a route longer than /64 is refused and changes nothing.
func TestGroupShardForMatchesLPM(t *testing.T) {
	const shards, chunkBits, winBits = 3, 2, 44
	g := NewEngineGroup(shards)
	ref := lpm.New[int]()
	var probes []ipv6.Addr
	route := func(p ipv6.Prefix, shard int) {
		g.Route(p, shard)
		ref.Insert(p, shard)
		// Both ends of the prefix and the addresses just outside it.
		lo := p.Addr().Uint128()
		hi := lo.Or(uint128.Max.Rsh(uint(p.Bits())))
		for _, u := range []uint128.Uint128{lo, hi, lo.Sub64(1), hi.Add64(1)} {
			probes = append(probes, ipv6.AddrFrom128(u))
		}
	}
	rng := rand.New(rand.NewSource(5))
	for isp := 0; isp < 4; isp++ {
		block := ipv6.MustPrefix(ipv6.AddrFromSegments([8]uint16{uint16(0x2400 + isp)}), 32)
		route(block, 0)
		win, err := block.Sub(winBits, uint128.Zero)
		if err != nil {
			t.Fatal(err)
		}
		for c := 0; c < 1<<chunkBits; c++ {
			chunk, err := win.Sub(winBits+chunkBits, uint128.From64(uint64(c)))
			if err != nil {
				t.Fatal(err)
			}
			route(chunk, c%shards)
		}
		hostile, err := win.Sub(54, uint128.From64(1<<(54-winBits)-1))
		if err != nil {
			t.Fatal(err)
		}
		route(hostile, 2)
		for dev := 0; dev < 50; dev++ {
			// A pin lands wherever the device's /64 was drawn: inside any
			// chunk (WAN and dual-/64 LAN) or past the window (WAN region).
			pin, err := block.Sub(64, uint128.From64(rng.Uint64()%(1<<(64-winBits+1))))
			if err != nil {
				t.Fatal(err)
			}
			route(pin, rng.Intn(shards))
		}
	}
	route(ipv6.MustParsePrefix("2400::/32"), 1) // re-routing a prefix replaces it
	probes = append(probes,
		ipv6.MustParseAddr("2400:0:8000::1"), // in a block, past its window
		ipv6.MustParseAddr("2001:dead::1"),   // unrouted
		ipv6.MustParseAddr("::"), ipv6.MustParseAddr("ffff:ffff:ffff:ffff:ffff:ffff:ffff:ffff"))
	agree := func(tag string) {
		t.Helper()
		for _, a := range probes {
			want, _ := ref.Lookup(a)
			if got := g.ShardFor(a); got != want {
				t.Fatalf("%s: ShardFor(%s) = %d, LPM says %d", tag, a, got, want)
			}
		}
	}
	if len(g.coarse) != 4*(2+1<<chunkBits)+1 {
		t.Fatalf("%d coarse routes", len(g.coarse))
	}
	agree("shortcuts")

	// A coarse route added after lookups ran, over pins already placed:
	// ISP 0's first chunk gets a longer, re-sharded sub-route.
	route(ipv6.MustParsePrefix("2400::/47"), 2)
	if i := slices.IndexFunc(g.coarse, func(r coarseRoute) bool { return r.covers(0x2400 << 48) }); g.coarse[i].mask != 0xffff_ffff_fffe_0000 || !g.coarse[i].pinned {
		t.Fatalf("the /47 over ISP 0's pins is not its first, flagged route: %+v", g.coarse[i])
	}
	agree("coarse after lookups")

	// Pins routed before the block and chunks covering them; the first
	// chunk gets none.
	late := ipv6.MustParsePrefix("2410::/32")
	lateWin, err := late.Sub(winBits, uint128.Zero)
	if err != nil {
		t.Fatal(err)
	}
	for dev := 0; dev < 20; dev++ {
		pin, err := late.Sub(64, uint128.From64(1<<(64-winBits-chunkBits)+rng.Uint64()%(1<<(64-winBits+1))))
		if err != nil {
			t.Fatal(err)
		}
		route(pin, rng.Intn(shards))
	}
	route(late, 0)
	var empty ipv6.Prefix
	for c := 0; c < 1<<chunkBits; c++ {
		chunk, err := lateWin.Sub(winBits+chunkBits, uint128.From64(uint64(c)))
		if err != nil {
			t.Fatal(err)
		}
		route(chunk, c%shards)
		if c == 0 {
			empty = chunk
		}
	}
	agree("pins before coarse")

	// A pin outside every coarse route, then a route covering it.
	route(ipv6.MustParsePrefix("2500:0:0:7::/64"), 1)
	if !g.pinOutside {
		t.Fatal("a pin outside every coarse route left pinOutside clear")
	}
	agree("pin outside coarse")
	route(ipv6.MustParsePrefix("2500::/16"), 2)
	agree("outside pin covered")

	// The empty chunk's route is unflagged, so a probe inside it never
	// reads pin64: a planted entry that disagrees goes unseen.
	emptyHi := empty.Addr().Uint128().Hi
	for _, r := range g.coarse {
		if r.covers(emptyHi) {
			if r.pinned {
				t.Fatalf("chunk %s holds no pin but is flagged", empty)
			}
			break
		}
	}
	for _, a := range []ipv6.Addr{empty.Addr(), ipv6.AddrFrom128(empty.Addr().Uint128().Or(uint128.Max.Rsh(uint(empty.Bits()))))} {
		want, _ := ref.Lookup(a)
		hi := a.Uint128().Hi
		g.pin64[hi] = (want + 1) % shards
		got := g.ShardFor(a)
		delete(g.pin64, hi)
		if got != want {
			t.Fatalf("ShardFor(%s) = %d read the pin map inside pinless chunk %s (want %d)", a, got, empty, want)
		}
	}

	// A /96 inside a pinned /64 owned by another shard is refused, and
	// routing carries on as before.
	var pinned uint64
	for h := range g.pin64 {
		pinned = max(pinned, h)
	}
	inner := ipv6.MustPrefix(ipv6.AddrFrom128(uint128.New(pinned, 0xabcd<<32)), 96)
	func() {
		defer func() {
			if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "longer than /64") {
				t.Errorf("Route(%s) did not refuse a prefix longer than /64: %v", inner, r)
			}
		}()
		g.Route(inner, (g.pin64[pinned]+1)%shards)
	}()
	agree("after a refused >/64 route")
	route(ipv6.MustParsePrefix("2403:0:0:7::/64"), 2)
	agree("after the refusal")
}

// TestGroupConcurrentInjectRelease: two goroutines inject bursts spanning
// both shards while draining the shared edge and releasing what they
// drained, as ScanParallel's workers do, so one's ReleaseBufs runs beside
// the other's injection and its freelist refills. Every probe must come
// back exactly once; the test exists for the -race runner.
func TestGroupConcurrentInjectRelease(t *testing.T) {
	n := buildGroupNet(t, 2)
	const workers, rounds, burst = 2, 200, 16
	var mu sync.Mutex
	got := 0
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			batch := make([][]byte, burst)
			var rx [][]byte
			for i := 0; i < rounds; i++ {
				for j := range batch {
					pkt, err := wire.BuildEchoRequest(ipv6.MustParseAddr("2001:beef::100"), n.addrs[j%2], 64, uint16(w+1), uint16(i*burst+j), nil)
					if err != nil {
						t.Error(err)
						return
					}
					batch[j] = pkt
				}
				n.grp.InjectBatch(batch)
				rx = n.edge.DrainInto(rx[:0])
				mu.Lock()
				got += len(rx)
				mu.Unlock()
				n.grp.ReleaseBufs(rx)
			}
		}(w)
	}
	wg.Wait()
	got += len(n.edge.DrainInto(nil))
	if want := workers * rounds * burst; got != want {
		t.Fatalf("%d replies to %d probes", got, want)
	}
}

// TestGroupReleaseFollowsLoad: when one shard does all the work, the
// buffers ReleaseBufs hands back reach that shard, which builds its
// replies in them instead of allocating afresh while its idle peer's
// freelist overflows.
func TestGroupReleaseFollowsLoad(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	n := buildGroupNet(t, 2)
	batch := make([][]byte, 64)
	for j := range batch {
		// Unrouted addresses behind shard 0's router: each draws a
		// no-route error built into an engine buffer.
		batch[j] = echoTo(t, ipv6.MustParseAddr(fmt.Sprintf("2001:100::%x", j+2)), uint16(j))
	}
	var rx [][]byte
	burst := func() {
		n.grp.InjectBatch(batch)
		rx = n.edge.DrainInto(rx[:0])
		n.grp.ReleaseBufs(rx)
	}
	for range 8 {
		burst() // compile the flows and fill the freelists
	}
	if len(rx) != len(batch) {
		t.Fatalf("%d replies to %d probes", len(rx), len(batch))
	}
	if a := testing.AllocsPerRun(50, burst); a > 1 {
		t.Errorf("a 64-probe burst into one shard allocates %.1f times, want its replies in released buffers", a)
	}
}
