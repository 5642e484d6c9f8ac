package netsim

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/ipv6"
	"repro/internal/uint128"
	"repro/internal/wire"
)

// mirrorPair is two identically built testNets, one replaying compiled
// flows and one forced onto the interpreted path. Every differential
// test drives both with the same inputs and demands byte-identical
// observable behavior.
type mirrorPair struct {
	fast, slow *testNet
}

func buildMirror(t *testing.T, behavior CPEBehavior, policy ErrorPolicy) mirrorPair {
	t.Helper()
	p := mirrorPair{
		fast: buildTestNet(t, behavior, policy),
		slow: buildTestNet(t, behavior, policy),
	}
	p.slow.eng.SetFastPath(false)
	return p
}

// inject sends the same echo request into both nets.
func (p mirrorPair) inject(t *testing.T, dst ipv6.Addr, hopLimit uint8, seq uint16) {
	t.Helper()
	pkt, err := wire.BuildEchoRequest(scannerAddr, dst, hopLimit, 0xbeef, seq, []byte("probe"))
	if err != nil {
		t.Fatal(err)
	}
	p.fast.eng.Inject(p.fast.scanner.Iface(), pkt)
	p.slow.eng.Inject(p.slow.scanner.Iface(), pkt)
}

// compare drains both scanners and checks every observable the fast
// path promises to preserve: reply bytes (and order), per-link stats in
// both directions, engine transmission/byte/drop totals, and the nodes'
// forwarding counters. Events are exempt — fusing them is the point.
func (p mirrorPair) compare(t *testing.T, tag string) {
	t.Helper()
	fr, sr := p.fast.scanner.DrainInto(nil), p.slow.scanner.DrainInto(nil)
	if len(fr) != len(sr) {
		t.Fatalf("%s: fastpath delivered %d replies, interpreted %d", tag, len(fr), len(sr))
	}
	for i := range fr {
		if !bytes.Equal(fr[i], sr[i]) {
			t.Fatalf("%s: reply %d differs:\nfast %x\nslow %x", tag, i, fr[i], sr[i])
		}
	}
	fl, sl := p.fast.eng.Links(), p.slow.eng.Links()
	if len(fl) != len(sl) {
		t.Fatalf("%s: link counts differ", tag)
	}
	for i := range fl {
		fe, se := fl[i].Ends(), sl[i].Ends()
		for end := 0; end < 2; end++ {
			if got, want := fl[i].StatsFrom(fe[end]), sl[i].StatsFrom(se[end]); got != want {
				t.Errorf("%s: link %d dir %s: fastpath %+v, interpreted %+v",
					tag, i, fe[end].Name(), got, want)
			}
		}
	}
	fc, sc := p.fast.eng.Counters(), p.slow.eng.Counters()
	if fc.Transmissions != sc.Transmissions || fc.Bytes != sc.Bytes || fc.Dropped != sc.Dropped {
		t.Errorf("%s: counters diverge: fastpath %+v, interpreted %+v", tag, fc, sc)
	}
	if p.fast.core.CountForwarded != p.slow.core.CountForwarded {
		t.Errorf("%s: core forwarded %d vs %d", tag, p.fast.core.CountForwarded, p.slow.core.CountForwarded)
	}
	if p.fast.isp.CountForwarded != p.slow.isp.CountForwarded {
		t.Errorf("%s: isp forwarded %d vs %d", tag, p.fast.isp.CountForwarded, p.slow.isp.CountForwarded)
	}
	if p.fast.cpe.CountForwarded != p.slow.cpe.CountForwarded {
		t.Errorf("%s: cpe forwarded %d vs %d", tag, p.fast.cpe.CountForwarded, p.slow.cpe.CountForwarded)
	}
}

// TestFlowCachePropertyNoStaleReplay is the randomized invalidation
// property: under an arbitrary interleaving of probes and topology
// mutations, a compiled path must never replay stale — the mirrored
// interpreted engine is ground truth after every single operation.
// Mutations are applied to both nets; InvalidateFlows additionally
// fires on the fast net alone, since discarding valid cache state must
// be invisible.
func TestFlowCachePropertyNoStaleReplay(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			p := buildMirror(t, CPEBehavior{}, ErrorPolicy{})

			// Destination pool: CPE WAN, LAN host, the ISP's own
			// interfaces, unassigned space (several /64s of one region
			// and of distinct regions), unused space inside the LAN
			// delegation, and off-block transit.
			dsts := []ipv6.Addr{
				wanAddr,
				lanHost,
				ipv6.MustParseAddr("2001:db8:fffe::2"),
				ipv6.MustParseAddr("2001:db8:1234:5678::1"),
				ipv6.MustParseAddr("2001:db8:aaaa:bbbb::1"),
				ipv6.MustParseAddr("2001:db8:aaaa:bbbc::1"),
				ipv6.MustParseAddr("2001:db8:cccc::99"),
				ipv6.MustParseAddr("2001:db8:4321:8769::77"),
				ipv6.MustParseAddr("2001:beef::55"),
			}
			hops := []uint8{64, 64, 64, 255, 3, 2}

			// Fresh /64s the mutation stream delegates one at a time —
			// each Delegate flips subsequent probes of that /64 (and
			// shrinks the unassigned region around it).
			fresh := []ipv6.Prefix{
				ipv6.MustParsePrefix("2001:db8:aaaa:bbbb::/64"),
				ipv6.MustParsePrefix("2001:db8:cccc::/64"),
				ipv6.MustParsePrefix("2001:db8:aaaa:bbb8::/64"),
			}

			seq := uint16(1)
			for op := 0; op < 80; op++ {
				switch r := rng.Intn(10); {
				case r < 7: // probe
					p.inject(t, dsts[rng.Intn(len(dsts))], hops[rng.Intn(len(hops))], seq)
					seq++
				case r == 7 && len(fresh) > 0: // delegate a fresh /64
					pf := fresh[0]
					fresh = fresh[1:]
					for _, n := range []*testNet{p.fast, p.slow} {
						down := n.isp.AddIface(ipv6.SLAAC(pf, 1), "isp:extra")
						if err := n.isp.Delegate(pf, down); err != nil {
							t.Fatal(err)
						}
					}
				case r == 8: // reroute scan-net return traffic (a no-op route re-insert)
					for _, n := range []*testNet{p.fast, p.slow} {
						n.core.AddRoute(ipv6.MustParsePrefix("2001:beef::/64"), n.scanner.Iface().Peer())
					}
				default: // discard valid cache state on the fast net only
					p.fast.eng.InvalidateFlows()
				}
				p.compare(t, fmt.Sprintf("op %d", op))
			}
			// Gap mutation: warm the block's gap flow, plant a delegation in
			// space it covers, then probe the new delegation and its
			// neighbours on both sides. The new link is unnumbered (it
			// reuses the upstream address), so only the emptiness index
			// stands between the old entry and the new delegation — and the
			// entry holds a pointer to that index, not a copy: Delegate must
			// have bumped the flow generation before the index is rebuilt,
			// or the old entry would answer for the new subscriber's
			// neighbours from a half-updated hole set.
			gap := func(cell uint64) ipv6.Addr {
				hi := ipv6.MustParseAddr("2001:db8:9000::").Uint128().Hi | uint64(seed)<<16 | cell
				return ipv6.AddrFrom128(uint128.New(hi, uint64(rng.Int63())|1))
			}
			p.inject(t, gap(0x10), 64, seq)
			before := p.fast.eng.Counters().FastPathHits
			p.inject(t, gap(0x20), 64, seq+1)
			p.compare(t, "gap warm")
			if p.fast.eng.Counters().FastPathHits == before {
				t.Error("two probes into one empty stretch did not share an entry; the gap mutation tests nothing")
			}
			seq += 2
			isPlanted := map[uint64]bool{}
			for round, cells := range [][]uint64{{0x18, 0x17, 0x19, 0x10, 0x20, 0x18}, {0x11, 0x10, 0x12, 0x18, 0x20, 0x11}} {
				planted := gap(cells[0]).Prefix64()
				isPlanted[cells[0]] = true
				gen, compiles := p.fast.eng.fp.gen, p.fast.eng.Counters().FastPathCompiles
				for _, n := range []*testNet{p.fast, p.slow} {
					down := n.isp.AddIface(n.isp.upstream.Addr(), "isp:gap")
					if err := n.isp.Delegate(planted, down); err != nil {
						t.Fatal(err)
					}
				}
				if p.fast.eng.fp.gen == gen || !p.fast.isp.gapsStale {
					t.Fatalf("round %d: Delegate left the flow generation at %d (index stale = %v): the old gap flow outlives its index",
						round, gen, p.fast.isp.gapsStale)
				}
				// The planted links lead nowhere, so every probe into one is
				// an exact negative; all the empty cells share one new flow.
				want := uint64(1)
				for _, cell := range cells {
					if isPlanted[cell] {
						want++
					}
					p.inject(t, gap(cell), 64, seq)
					seq++
					p.compare(t, fmt.Sprintf("round %d: gap cell %#x after Delegate", round, cell))
				}
				if got := p.fast.eng.Counters().FastPathCompiles - compiles; got != want {
					t.Errorf("round %d: %d compiles for six probes around the planted delegations, want %d", round, got, want)
				}
			}
			if hits := p.fast.eng.Counters().FastPathHits; hits == 0 {
				t.Error("property run never hit the flow cache; the test lost its teeth")
			}
		})
	}
}

// TestFlowCacheArmedEngineInterprets pins the fault layer's side of the
// one rule: while a layer is installed the cache is neither consulted
// nor filled — no hits, no compiles, outcomes equal to a fast-path-off
// engine under the same deterministic layer (drop every 3rd
// transmission, duplicate every 7th) — and removing it brings the
// entries compiled before back into use without an invalidation.
func TestFlowCacheArmedEngineInterprets(t *testing.T) {
	p := buildMirror(t, CPEBehavior{}, ErrorPolicy{})
	dsts := []ipv6.Addr{wanAddr, lanHost, ipv6.MustParseAddr("2001:db8:aaaa:bbbb::1")}
	seq := uint16(1)
	round := func(tag string, n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			p.inject(t, dsts[i%len(dsts)], 64, seq)
			seq++
			p.compare(t, fmt.Sprintf("%s probe %d", tag, i))
		}
	}
	round("cold", len(dsts))
	compiled := p.fast.eng.Counters()
	if compiled.FastPathCompiles == 0 {
		t.Fatal("nothing compiled before arming; the test has no entries to keep")
	}

	mkFault := func() FaultFunc {
		n := 0
		return func(from *Iface, pkt []byte) FaultOutcome {
			n++
			switch {
			case n%3 == 0:
				return FaultOutcome{Drop: true}
			case n%7 == 0:
				return FaultOutcome{Deliveries: []int{0, 0}}
			}
			return FaultOutcome{}
		}
	}
	p.fast.eng.SetFault(mkFault())
	p.slow.eng.SetFault(mkFault())
	round("armed", 60)
	armed := p.fast.eng.Counters()
	if armed.FastPathHits != compiled.FastPathHits || armed.FastPathMisses != compiled.FastPathMisses ||
		armed.FastPathCompiles != compiled.FastPathCompiles {
		t.Errorf("armed engine consulted the cache: hits %d -> %d, misses %d -> %d, compiles %d -> %d",
			compiled.FastPathHits, armed.FastPathHits, compiled.FastPathMisses, armed.FastPathMisses,
			compiled.FastPathCompiles, armed.FastPathCompiles)
	}
	if armed.Dropped == 0 {
		t.Error("the fault layer dropped nothing; the armed leg tests nothing")
	}

	p.fast.eng.SetFault(nil)
	p.slow.eng.SetFault(nil)
	round("disarmed", len(dsts))
	after := p.fast.eng.Counters()
	if after.FastPathCompiles != armed.FastPathCompiles {
		t.Errorf("disarming recompiled: compiles %d -> %d, want the earlier entries reused",
			armed.FastPathCompiles, after.FastPathCompiles)
	}
	if after.FastPathHits == armed.FastPathHits {
		t.Error("entries compiled before arming did not hit after disarming")
	}
	if after.FastPathInvalidations != compiled.FastPathInvalidations {
		t.Errorf("SetFault moved FastPathInvalidations %d -> %d",
			compiled.FastPathInvalidations, after.FastPathInvalidations)
	}
}

// TestFlowCacheLoopFusionParity pins the routing-loop bounce: a probe
// into a vulnerable delegation ping-pongs ~253 times on the access
// link. The fused replay must reproduce the interpreted amplification
// byte-for-byte while collapsing the crossings into far fewer events,
// and a later probe arriving with a different hop limit than the
// compiled entry recorded must fall back, recompile, and still match.
func TestFlowCacheLoopFusionParity(t *testing.T) {
	p := buildMirror(t, CPEBehavior{VulnLAN: true}, ErrorPolicy{})
	notUsed := ipv6.MustParseAddr("2001:db8:4321:8769::77")

	p.inject(t, notUsed, 255, 1) // compiles the loop
	p.compare(t, "cold loop")
	p.inject(t, notUsed, 255, 2) // replays it fused
	p.compare(t, "warm loop")
	if got := p.fast.cpeLink.TotalPackets(); got < 400 {
		t.Errorf("access link carried %d packets across two loops, want ~506", got)
	}
	fastEvents := p.fast.eng.Counters().Events
	slowEvents := p.slow.eng.Counters().Events
	if fastEvents*10 > slowEvents {
		t.Errorf("loop fusion saved too little: %d events fastpath vs %d interpreted",
			fastEvents, slowEvents)
	}

	// hlIn mismatch: the entry recorded arrival hop limits for 255;
	// these probes must not replay it blindly.
	for i, hl := range []uint8{250, 64, 5, 255} {
		p.inject(t, notUsed, hl, uint16(10+i))
		p.compare(t, fmt.Sprintf("hop limit %d", hl))
	}
}

// TestFlowCacheWideEntrySharing pins region-width compilation: two
// destinations in different /64s of one unassigned delegation cell
// share a compiled entry (the second probe is a cache hit), while the
// ISP's own interface address — which sits inside a compilable region —
// keeps answering as itself rather than inheriting the region's fate.
func TestFlowCacheWideEntrySharing(t *testing.T) {
	p := buildMirror(t, CPEBehavior{}, ErrorPolicy{})

	// The finest delegation table in buildTestNet is /64-grained, so the
	// uniform cell around unassigned 2001:db8:aaaa:bbbb::/64 is exactly
	// one /64: probing two IIDs of it shares the entry; probing the
	// adjacent /64 compiles its own.
	a1 := ipv6.MustParseAddr("2001:db8:aaaa:bbbb::1")
	a2 := ipv6.MustParseAddr("2001:db8:aaaa:bbbb::2")
	p.inject(t, a1, 64, 1)
	p.compare(t, "cold region")
	before := p.fast.eng.Counters()
	p.inject(t, a2, 64, 2)
	p.compare(t, "warm region")
	after := p.fast.eng.Counters()
	if after.FastPathHits <= before.FastPathHits {
		t.Errorf("second probe of the region missed: hits %d -> %d (misses %d -> %d)",
			before.FastPathHits, after.FastPathHits, before.FastPathMisses, after.FastPathMisses)
	}

	// The provider-side WAN interface address lies inside the delegated
	// WAN /64 whose other addresses forward to the CPE: the compiled
	// region must exclude it (excl/shadow machinery), in both orders.
	local := ipv6.MustParseAddr("2001:db8:1234:5678::1")
	other := ipv6.SLAAC(wanPrefix, 0xdeadbeef)
	p.inject(t, other, 64, 3) // compile the forwarding region first
	p.compare(t, "wan region")
	p.inject(t, local, 64, 4) // then the excluded local address
	p.compare(t, "wan local addr")
	p.inject(t, local, 64, 5) // warm local
	p.inject(t, other, 64, 6) // warm region
	p.compare(t, "wan interleaved")
}

// TestFlowCacheInvalidationCounter pins the observability contract:
// every mutation class that must discard compiled flows also ticks
// Counters().FastPathInvalidations.
func TestFlowCacheInvalidationCounter(t *testing.T) {
	n := buildTestNet(t, CPEBehavior{}, ErrorPolicy{})
	last := n.eng.Counters().FastPathInvalidations
	expect := func(tag string) {
		t.Helper()
		now := n.eng.Counters().FastPathInvalidations
		if now <= last {
			t.Errorf("%s did not tick FastPathInvalidations (still %d)", tag, now)
		}
		last = now
	}
	if err := n.isp.Delegate(ipv6.MustParsePrefix("2001:db8:7777::/64"),
		n.isp.AddIface(ipv6.MustParseAddr("2001:db8:7777::1"), "isp:x")); err != nil {
		t.Fatal(err)
	}
	expect("Delegate")
	n.core.AddRoute(ipv6.MustParsePrefix("2001:dead::/64"), n.scanner.Iface().Peer())
	expect("AddRoute")
	// Entries hold no fault-dependent fact: arming leaves them alone.
	n.eng.SetFault(func(*Iface, []byte) FaultOutcome { return FaultOutcome{} })
	if now := n.eng.Counters().FastPathInvalidations; now != last {
		t.Errorf("SetFault ticked FastPathInvalidations %d -> %d", last, now)
	}
	n.eng.InvalidateFlows()
	expect("InvalidateFlows")
	n.eng.SetFastPath(false)
	expect("SetFastPath(false)")
}

// TestFlowCacheBumpPerEngine pins what an invalidation costs: a mutator
// bumps each engine the node is attached to exactly once, however many
// of its interfaces lead into it, and a node attached to nothing bumps
// nothing (topo.Build delegates thousands of subscribers to one router;
// walking its interfaces per Delegate made that quadratic).
func TestFlowCacheBumpPerEngine(t *testing.T) {
	engs := []*Engine{New(), New()}
	isp := NewISPRouter("isp", ispBlock, ErrorPolicy{})
	var downs []*Iface
	for i := 0; i < 6; i++ { // interfaces alternate between the engines
		down := isp.AddIface(ipv6.MustParseAddr("2001:db8:fffe::3"), fmt.Sprintf("isp:down%d", i))
		peer := NewEdge(fmt.Sprintf("peer%d", i), ipv6.MustParseAddr("2001:beef::100"))
		engs[i%2].Connect(down, peer.Iface())
		downs = append(downs, down)
	}
	count := func() [2]uint64 {
		return [2]uint64{engs[0].Counters().FastPathInvalidations, engs[1].Counters().FastPathInvalidations}
	}
	step := func(tag string, mutate func()) {
		t.Helper()
		before := count()
		mutate()
		if after := count(); after[0] != before[0]+1 || after[1] != before[1]+1 {
			t.Errorf("%s moved the engines' invalidations %v -> %v, want one bump each", tag, before, after)
		}
	}
	step("Delegate (new table)", func() {
		if err := isp.Delegate(ipv6.MustParsePrefix("2001:db8:1::/64"), downs[0]); err != nil {
			t.Fatal(err)
		}
	})
	step("Delegate (live table)", func() {
		if err := isp.Delegate(ipv6.MustParsePrefix("2001:db8:2::/64"), downs[1]); err != nil {
			t.Fatal(err)
		}
	})
	step("AddIface", func() { isp.AddIface(ipv6.MustParseAddr("2001:db8:fffe::4"), "isp:spare") })
	step("SetUpstream", func() { isp.SetUpstream(downs[2]) })

	before := count()
	loose := NewISPRouter("loose", ispBlock, ErrorPolicy{})
	if err := loose.Delegate(ipv6.MustParsePrefix("2001:db8:3::/64"), loose.AddIface(ipv6.MustParseAddr("2001:db8:fffe::5"), "loose:down")); err != nil {
		t.Fatal(err)
	}
	core := NewRouter("core", ErrorPolicy{})
	core.AddRoute(ispBlock, core.AddIface(ipv6.MustParseAddr("2001:beef::1"), "core:if"))
	if after := count(); after != before || len(loose.engines)+len(core.engines) != 0 {
		t.Errorf("unattached nodes bumped the engines %v -> %v (attached to %d)", before, after, len(loose.engines)+len(core.engines))
	}
}

// TestFlowCacheConcurrentInject hammers one engine from several
// goroutines with interleaved InvalidateFlows calls. The engine lock
// serializes them; the test exists for the -race runner, which CI
// points at the FlowCache tests explicitly.
func TestFlowCacheConcurrentInject(t *testing.T) {
	n := buildTestNet(t, CPEBehavior{}, ErrorPolicy{})
	dsts := []ipv6.Addr{
		wanAddr, lanHost,
		ipv6.MustParseAddr("2001:db8:aaaa:bbbb::1"),
		ipv6.MustParseAddr("2001:db8:cccc::99"),
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				dst := dsts[(g+i)%len(dsts)]
				pkt, err := wire.BuildEchoRequest(scannerAddr, dst, 64, uint16(g+1), uint16(i+1), nil)
				if err != nil {
					t.Error(err)
					return
				}
				n.eng.Inject(n.scanner.Iface(), pkt)
				if i%50 == 25 {
					n.eng.InvalidateFlows()
				}
			}
		}(g)
	}
	wg.Wait()
	c := n.eng.Counters()
	if c.FastPathHits == 0 {
		t.Error("concurrent run never hit the flow cache")
	}
	if got := uint64(n.scanner.Pending()); got == 0 {
		t.Error("no replies delivered")
	}
}

// TestFlowCacheConcurrentInjectBatch hammers one engine with
// concurrent InjectBatch calls of mixed sizes (1 up to a full resolve
// run) interleaved with InvalidateFlows, for the -race runner: the
// resolve/replay passes and their engine-inline scratch must stay
// entirely under the engine lock.
func TestFlowCacheConcurrentInjectBatch(t *testing.T) {
	n := buildTestNet(t, CPEBehavior{}, ErrorPolicy{})
	dsts := []ipv6.Addr{
		wanAddr, lanHost,
		ipv6.MustParseAddr("2001:db8:aaaa:bbbb::1"),
		ipv6.MustParseAddr("2001:db8:cccc::99"),
	}
	sizes := []int{1, 3, 17, 64, InjectRunLen}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				size := sizes[(g+i)%len(sizes)]
				batch := make([][]byte, 0, size)
				for j := 0; j < size; j++ {
					dst := dsts[(g+i+j)%len(dsts)]
					pkt, err := wire.BuildEchoRequest(scannerAddr, dst, 64, uint16(g+1), uint16(i*InjectRunLen+j+1), nil)
					if err != nil {
						t.Error(err)
						return
					}
					batch = append(batch, pkt)
				}
				n.eng.InjectBatch(n.scanner.Iface(), batch)
				if i%13 == 7 {
					n.eng.InvalidateFlows()
				}
			}
		}(g)
	}
	wg.Wait()
	c := n.eng.Counters()
	if c.FastPathHits == 0 {
		t.Error("concurrent batches never hit the flow cache")
	}
	if got := uint64(n.scanner.Pending()); got == 0 {
		t.Error("no replies delivered")
	}
}

// injectBatch sends the same burst into both nets with one InjectBatch
// each and returns the fast net's hits and misses for it.
func (p mirrorPair) injectBatch(pkts [][]byte) (hits, misses uint64) {
	before := p.fast.eng.Counters()
	p.fast.eng.InjectBatch(p.fast.scanner.Iface(), pkts)
	p.slow.eng.InjectBatch(p.slow.scanner.Iface(), pkts)
	after := p.fast.eng.Counters()
	return after.FastPathHits - before.FastPathHits, after.FastPathMisses - before.FastPathMisses
}

// echoBurst builds one echo request per destination, hop limit 64.
func echoBurst(t *testing.T, dsts []ipv6.Addr) [][]byte {
	t.Helper()
	pkts := make([][]byte, len(dsts))
	for i, dst := range dsts {
		pkt, err := wire.BuildEchoRequest(scannerAddr, dst, 64, 0xbeef, uint16(i+1), []byte("probe"))
		if err != nil {
			t.Fatal(err)
		}
		pkts[i] = pkt
	}
	return pkts
}

// crossingTracer samples the flow of one target and records its
// crossings in order.
type crossingTracer struct {
	target ipv6.Addr
	hops   []string
}

func (c *crossingTracer) SampleFlow(hi, lo uint64) bool {
	return ipv6.AddrFrom128(uint128.New(hi, lo)) == c.target
}

func (c *crossingTracer) HopCrossing(hi, lo uint64, node, iface string, hopLimit uint8, dropped bool) {
	c.hops = append(c.hops, fmt.Sprintf("%s/%s/%d/%v", node, iface, hopLimit, dropped))
}

// TestFlowCacheTracedFlowInterpreted: a probe whose flow the tracer
// samples ends the replayed run and is interpreted, so the interpreter
// records its crossings while the probes around it still replay. Its
// crossings must equal a fast-path-off engine's, it must count as the
// one miss of a warm burst, and every probe offered counts as exactly
// one hit or one miss.
func TestFlowCacheTracedFlowInterpreted(t *testing.T) {
	p := buildMirror(t, CPEBehavior{}, ErrorPolicy{})
	gap := ipv6.MustParseAddr("2001:db8:aaaa:bbbb::")
	traced := gap.WithIID(0x5a5a)
	ft, st := &crossingTracer{target: traced}, &crossingTracer{target: traced}
	p.fast.eng.SetFlowTracer(ft)
	p.slow.eng.SetFlowTracer(st)
	var dsts []ipv6.Addr
	for i := 0; i < 16; i++ {
		switch {
		case i == 9:
			dsts = append(dsts, traced)
		case i%2 == 0:
			dsts = append(dsts, gap.WithIID(uint64(i+1))) // the ISP's no-route error
		default:
			dsts = append(dsts, ipv6.SLAAC(lanSubnet, uint64(0x1000+i))) // the CPE's
		}
	}
	pkts := echoBurst(t, dsts)
	for pass := 0; pass < 2; pass++ {
		hits, misses := p.injectBatch(pkts)
		p.compare(t, fmt.Sprintf("pass %d", pass))
		if hits+misses != uint64(len(pkts)) {
			t.Errorf("pass %d: %d hits + %d misses for %d probes", pass, hits, misses, len(pkts))
		}
		if pass == 1 && misses != 1 {
			t.Errorf("warm pass: %d misses, want 1 (the traced probe)", misses)
		}
	}
	if len(st.hops) == 0 {
		t.Fatal("the interpreted engine traced no crossing")
	}
	if !slices.Equal(ft.hops, st.hops) {
		t.Errorf("traced flow crossings differ:\nfast %v\nslow %v", ft.hops, st.hops)
	}
}

// TestFlowCacheSuppressedErrorsReplay: a suppressing ISP's unassigned
// space compiles as an error entry with no reply path, so its warm
// probes are hits that deliver nothing and charge the links exactly as
// the interpreter does, alongside the CPE's replying entries in the
// same burst.
func TestFlowCacheSuppressedErrorsReplay(t *testing.T) {
	p := buildMirror(t, CPEBehavior{}, ErrorPolicy{Suppress: true})
	gap := ipv6.MustParseAddr("2001:db8:aaaa:bbbb::")
	cold := echoBurst(t, []ipv6.Addr{gap.WithIID(1), ipv6.SLAAC(lanSubnet, 0x1000)})
	p.injectBatch(cold)
	p.compare(t, "cold")
	var dsts []ipv6.Addr
	for i := 0; i < 24; i++ {
		dsts = append(dsts, gap.WithIID(uint64(i+2)))
		if i%4 == 0 {
			dsts = append(dsts, ipv6.SLAAC(lanSubnet, uint64(0x2000+i)))
		}
	}
	up := p.fast.ispLink.Ends()[1] // the ISP's upstream interface
	before := p.fast.ispLink.StatsFrom(up)
	hits, misses := p.injectBatch(echoBurst(t, dsts))
	if hits != uint64(len(dsts)) || misses != 0 {
		t.Errorf("warm burst of %d probes: %d hits, %d misses", len(dsts), hits, misses)
	}
	if got, want := p.fast.ispLink.StatsFrom(up).Packets-before.Packets, uint64(6); got != want {
		t.Errorf("the ISP sent %d packets upstream, want %d (the CPE's errors only)", got, want)
	}
	p.compare(t, "warm")
}
