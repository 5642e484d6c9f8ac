package netsim

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/dnswire"
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

// probeData is the echo payload of the differential tests' probes.
var probeData = []byte("probe")

// inject sends the same echo request, carrying data, into both nets.
func (p mirrorPair) inject(t *testing.T, dst ipv6.Addr, hopLimit uint8, seq uint16, data []byte) {
	t.Helper()
	pkt, err := wire.BuildEchoRequest(scannerAddr, dst, hopLimit, 0xbeef, seq, data)
	if err != nil {
		t.Fatal(err)
	}
	p.fast.eng.Inject(p.fast.scanner.Iface(), pkt)
	p.slow.eng.Inject(p.slow.scanner.Iface(), pkt)
}

// compare drains both scanners and holds the nets equal (compareNets).
func (p mirrorPair) compare(t *testing.T, tag string) {
	t.Helper()
	compareNets(t, tag, p.fast.eng, p.slow.eng, p.fast.scanner, p.slow.scanner)
}

// TestFlowCacheReuse pins what the cache saves, which parity cannot
// see: after a row's cold probes (one Inject each) and its mutation,
// the warm probes (one InjectBatch) must hit, miss and compile as the
// row says, and replay in the events it says (0: unchecked).
// FuzzFlowCacheParity holds the replays themselves to the interpreter.
func TestFlowCacheReuse(t *testing.T) {
	gap := func(i uint64) ipv6.Addr { return ipv6.AddrFrom128(uint128.New(0x20010db8_90000000|i<<16, i+1)) }
	a1, a2 := ipv6.MustParseAddr("2001:db8:aaaa:bbbb::1"), ipv6.MustParseAddr("2001:db8:aaaa:bbbb::2")
	wan := ipv6.SLAAC(wanPrefix, 0xdeadbeef)
	notUsed := ipv6.MustParseAddr("2001:db8:4321:8769::77")
	lan := func(i uint64) ipv6.Addr { return ipv6.SLAAC(lanSubnet, 0x1000+i) }
	// probes builds an echo request to each destination at each hop
	// limit, carrying each payload length.
	probes := func(dsts []ipv6.Addr, hls []uint8, sizes ...int) [][]byte {
		var out [][]byte
		for _, dst := range dsts {
			for _, hl := range hls {
				for _, n := range sizes {
					pkt, err := wire.BuildEchoRequest(scannerAddr, dst, hl, 0xbeef, uint16(len(out)), parityPayload[:n])
					if err != nil {
						t.Fatal(err)
					}
					out = append(out, pkt)
				}
			}
		}
		return out
	}
	at := func(hls ...uint8) []uint8 { return hls }
	every := make([]uint8, 255) // hop limits 1-255
	for i := range every {
		every[i] = uint8(i + 1)
	}
	var gaps, suppressed []ipv6.Addr
	for i := uint64(1); i <= 24; i++ {
		gaps, suppressed = append(gaps, gap(i)), append(suppressed, gap(i).WithIID(i))
		if i%4 == 0 {
			suppressed = append(suppressed, lan(i))
		}
	}
	vulnLAN := CPEBehavior{VulnLAN: true}
	for _, tc := range []struct {
		name                           string
		behavior                       CPEBehavior
		policy                         ErrorPolicy
		cold, warm                     [][]byte
		mutate                         func(n *testNet)
		hits, misses, compiles, events uint64
	}{
		{name: "gap-flow-shared", cold: probes([]ipv6.Addr{a1, wan}, at(64), 5),
			warm: probes([]ipv6.Addr{a1, wan, a2, a2, wan, wan, gap(1), gap(2), a1}, at(64), 5), hits: 9},
		{name: "short-hop-limit", cold: probes(gaps[:1], at(2), 5),
			warm: probes(gaps, at(64), 5), hits: 24},
		{name: "loop-turn", behavior: vulnLAN, cold: probes([]ipv6.Addr{notUsed}, at(32), 5),
			warm: probes([]ipv6.Addr{notUsed}, every, 5), hits: 126, misses: 129},
		{name: "loop-compiled-short", behavior: vulnLAN, cold: probes([]ipv6.Addr{notUsed}, at(2), 5),
			warm: probes([]ipv6.Addr{notUsed}, every, 5), hits: 127, misses: 128},
		{name: "loop-fused", behavior: vulnLAN, cold: probes([]ipv6.Addr{notUsed}, at(255), 5),
			warm: probes([]ipv6.Addr{notUsed}, at(255, 3, 5, 101, 101, 255), 5), hits: 6, events: 6},
		{name: "error-quote-lengths", behavior: CPEBehavior{VulnWAN: true, VulnLAN: true},
			cold: probes([]ipv6.Addr{gap(1), wan, notUsed, lan(0)}, at(64), 5),
			warm: probes([]ipv6.Addr{gap(1), wan, notUsed, lan(0)}, at(64), 0, 5, 64, 200, 1300, 1400), hits: 24},
		{name: "suppressed-errors", policy: ErrorPolicy{Suppress: true}, cold: probes([]ipv6.Addr{gap(0), lan(0)}, at(64), 5),
			warm: probes(suppressed, at(64), 5), hits: 30},
		{name: "planted-delegation", cold: probes([]ipv6.Addr{gap(0x10), gap(0x20)}, at(64), 5),
			mutate: func(n *testNet) {
				if err := n.isp.Delegate(gap(0x18).Prefix64(), n.isp.AddIface(n.isp.upstream.Addr(), "isp:gap")); err != nil {
					t.Fatal(err)
				}
			},
			warm: probes([]ipv6.Addr{gap(0x18), gap(0x17), gap(0x19), gap(0x10), gap(0x20), gap(0x18)}, at(64), 5),
			hits: 3, misses: 3, compiles: 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n := buildTestNet(t, tc.behavior, tc.policy)
			for _, pkt := range tc.cold {
				n.eng.Inject(n.scanner.Iface(), pkt)
			}
			if tc.mutate != nil {
				tc.mutate(n)
			}
			c0 := n.eng.Counters()
			n.eng.InjectBatch(n.scanner.Iface(), tc.warm)
			c1 := n.eng.Counters()
			hits, misses, compiles := c1.FastPathHits-c0.FastPathHits, c1.FastPathMisses-c0.FastPathMisses, c1.FastPathCompiles-c0.FastPathCompiles
			if hits != tc.hits || misses != tc.misses || compiles != tc.compiles {
				t.Errorf("%d warm probes: %d hits, %d misses, %d compiles; want %d, %d, %d",
					len(tc.warm), hits, misses, compiles, tc.hits, tc.misses, tc.compiles)
			}
			if events := c1.Events - c0.Events; tc.events != 0 && events != tc.events {
				t.Errorf("%d warm probes cost %d events, want %d", len(tc.warm), events, tc.events)
			}
		})
	}
}

// TestFlowCacheGapClaimReplay sweeps every /64 of a sparse window once:
// the gap flow serves all of the window's empty space, so the pass
// compiles about one flow per delegation, evicts nothing and hits on
// more than 99% of its probes. (One table per run: a delegation costs a
// flow per cell of the finest table, which the gap flow does not
// change.) Only this test kills a CPE claiming its Not-used Prefix per
// /64 (w := uint8(64) in CPE.loopRegion): parity holds, but a swept
// delegation then costs a flow per /64.
func TestFlowCacheGapClaimReplay(t *testing.T) {
	const winBits, count = 14, 24
	base := sparseBlock.Addr().Uint128().Hi
	for _, bits := range []int{56, 60, 64} {
		rng := rand.New(rand.NewSource(int64(bits)))
		n := buildSparseNet(t, sparseBlock, randomDelegs(rng, sparseBlock, winBits, count, bits))
		var pkts [][]byte
		for i, c := range rng.Perm(1 << winBits) {
			dst := ipv6.AddrFrom128(uint128.New(base|uint64(c), rng.Uint64()|1))
			pkt, err := wire.BuildEchoRequest(scannerAddr, dst, 64, 0xbeef, uint16(i), nil)
			if err != nil {
				t.Fatal(err)
			}
			pkts = append(pkts, pkt)
		}
		n.sweep(pkts, nil)
		c := n.eng.Counters()
		share := float64(c.FastPathHits) / float64(c.FastPathHits+c.FastPathMisses)
		if share <= 0.99 || c.FastPathEvictions != 0 {
			t.Errorf("/%d: hit share %.4f, %d evictions over a sparse cold pass, want > 0.99 and none",
				bits, share, c.FastPathEvictions)
		}
		budget := uint64(count + 4)
		if bits < 64 {
			budget += count // a CPE's WAN /64 inside its delegation is a second flow
		}
		if c.FastPathCompiles > budget {
			t.Errorf("/%d: %d compiles for %d delegations: the empty space was not one flow", bits, c.FastPathCompiles, count)
		}
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
			p.inject(t, dsts[i%len(dsts)], 64, seq, probeData)
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

// TestFlowCacheEdgeDeliveryInterpreted: a walk that reaches an Edge — a
// probe to another address of the scanner's own /64, routed back out to
// the scanner — compiles negative, and the probe and its repeat are
// interpreted exactly as on a fast-path-off engine.
func TestFlowCacheEdgeDeliveryInterpreted(t *testing.T) {
	p := buildMirror(t, CPEBehavior{}, ErrorPolicy{})
	dst := ipv6.MustParseAddr("2001:beef::55")
	for i := uint16(1); i <= 2; i++ {
		p.inject(t, dst, 64, i, probeData)
		p.compare(t, fmt.Sprintf("edge probe %d", i))
	}
	if c := p.fast.eng.Counters(); c.FastPathCompiles != 1 || c.FastPathHits != 0 || c.FastPathMisses != 2 {
		t.Errorf("two probes delivered to an Edge: %d compiles, %d hits, %d misses; want 1, 0, 2",
			c.FastPathCompiles, c.FastPathHits, c.FastPathMisses)
	}
	if got := p.slow.eng.Links()[0].TotalPackets(); got != 4 {
		t.Errorf("the scanner link carried %d packets, want 2 probes out and 2 back", got)
	}
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

// localNet is testNet with a CPE running services and a UE behind the
// ISP router as well: every kind of node that answers for its own
// address, zero to two forwarding hops from the scanner.
type localNet struct {
	*testNet
	svc *CPE
	ue  *UE
}

var (
	svcPrefix     = ipv6.MustParsePrefix("2001:db8:5555:1::/64")
	svcWAN        = ipv6.SLAAC(svcPrefix, 0x5)
	localUEPrefix = ipv6.MustParsePrefix("2001:db8:ee00:1::/64")
	localUEAddr   = ipv6.SLAAC(localUEPrefix, 0x1234)
	// otherAddr is a second host on the scanner's link: the core routes
	// its /64 there, so the scanner's edge receives what is sent to it.
	otherAddr = ipv6.MustParseAddr("2001:beef::300")
)

// oddStack answers UDP port 1 with a reply of hop limit 1, which
// expires at the first router back, and port 2 with a reply to
// otherAddr rather than the probe's source: answers a compiled reply
// path cannot carry.
type oddStack struct{}

func (oddStack) HandleLocal(buf []byte, s *wire.Summary, _ []byte) []byte {
	if s.UDP == nil {
		return nil
	}
	hl, dst := uint8(64), s.IP.Src
	switch s.UDP.DstPort {
	case 1:
		hl = 1
	case 2:
		dst = otherAddr
	default:
		return nil
	}
	out, _ := wire.AppendUDP(buf, s.IP.Dst, dst, hl, s.UDP.DstPort, s.UDP.SrcPort, []byte("odd"))
	return out
}

func buildLocalNet(tb testing.TB) *localNet {
	tb.Helper()
	n := &localNet{testNet: buildTestNet(tb, CPEBehavior{}, ErrorPolicy{})}
	n.svc = NewCPE(CPEConfig{Name: "svc", WANAddr: svcWAN, WANPrefix: svcPrefix, Stack: servicesStack()})
	n.ue = NewUE("ue", localUEAddr, localUEPrefix, oddStack{}, ErrorPolicy{})
	ispSvc := n.isp.AddIface(ipv6.MustParseAddr("2001:db8:5555:1::1"), "isp:svc")
	ispUE := n.isp.AddIface(ipv6.MustParseAddr("2001:db8:fffd::1"), "isp:ue")
	n.eng.Connect(ispSvc, n.svc.WAN())
	n.eng.Connect(ispUE, n.ue.Iface())
	if err := n.isp.Delegate(svcPrefix, ispSvc); err != nil {
		tb.Fatal(err)
	}
	if err := n.isp.Delegate(localUEPrefix, ispUE); err != nil {
		tb.Fatal(err)
	}
	return n
}

// localMirror is a mirrorPair of localNets.
func localMirror(t *testing.T) mirrorPair {
	t.Helper()
	p := mirrorPair{fast: buildLocalNet(t).testNet, slow: buildLocalNet(t).testNet}
	p.slow.eng.SetFastPath(false)
	return p
}

// step injects pkt into both nets, checks the fast net's account for it
// and how many replies the scanner got, then compares the nets.
func (p mirrorPair) step(t *testing.T, tag string, pkt []byte, hit bool, replies int) {
	t.Helper()
	hits, misses := p.injectBatch([][]byte{pkt})
	if want := map[bool][2]uint64{true: {1, 0}, false: {0, 1}}[hit]; hits != want[0] || misses != want[1] {
		t.Errorf("%s: %d hits, %d misses, want %d and %d", tag, hits, misses, want[0], want[1])
	}
	if got := p.slow.scanner.Pending(); got != replies {
		t.Errorf("%s: the interpreter delivered %d replies, want %d", tag, got, replies)
	}
	p.compare(t, tag)
}

// TestFlowCacheLocalReplay: a probe to a node's own address compiles,
// once, into a local entry whose later probes replay — forward hops
// charged, the node's own local path answering, the reply carried back
// — with Edge deliveries, link stats, engine totals and transit
// counters byte- and count-identical to the interpreter's, for every
// node that answers: a stackless CPE's WAN address, an operated LAN
// host, two routers, a services CPE's TCP and UDP services and a UE.
// The guards fall back to the interpreter: a hop limit that expires on
// the way, a probe from another source, an answer in a traced flow, one
// too short-lived for the way back or addressed elsewhere. A local
// entry replays alone, inside a batch too.
func TestFlowCacheLocalReplay(t *testing.T) {
	must := func(p []byte, err error) []byte {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	echoFrom := func(src, dst ipv6.Addr, hl uint8) []byte {
		return must(wire.BuildEchoRequest(src, dst, hl, 0xbeef, 1, []byte("probe")))
	}
	echo := func(dst ipv6.Addr) []byte { return echoFrom(scannerAddr, dst, 64) }
	tcp := func(h wire.TCPHeader, data []byte) []byte {
		return must(wire.BuildTCP(scannerAddr, svcWAN, 64, h, data))
	}
	syn := tcp(wire.TCPHeader{SrcPort: 40000, DstPort: 80, Seq: 9, Flags: wire.TCPSyn, Window: 65535}, nil)
	// Both nets' stacks share a seed, so one SYN/ACK's cookie serves both.
	var isn uint32
	{
		n := buildLocalNet(t)
		n.eng.Inject(n.scanner.Iface(), syn)
		got := n.scanner.DrainInto(nil)
		if len(got) != 1 {
			t.Fatalf("%d replies to a SYN, want 1", len(got))
		}
		s, err := wire.ParsePacket(got[0])
		if err != nil || s.TCP == nil {
			t.Fatalf("SYN/ACK % x (%v)", got[0], err)
		}
		isn = s.TCP.Seq
	}
	query := must(dnswire.NewQuery(7, "example.com", dnswire.TypeA, dnswire.ClassIN).Marshal())
	udp := func(dst ipv6.Addr, port uint16, payload []byte) []byte {
		return must(wire.BuildUDP(scannerAddr, dst, 64, 40000, port, payload))
	}

	cases := []struct {
		name    string
		pkt     []byte
		replies int
	}{
		{"cpe-wan-echo", echo(wanAddr), 1},
		{"lan-host-echo", echo(lanHost), 1},
		{"core-echo", echo(ipv6.MustParseAddr("2001:db8:fffe::1")), 1},
		{"isp-echo", echo(ipv6.MustParseAddr("2001:db8:fffe::2")), 1},
		{"syn", syn, 1},
		{"data", tcp(wire.TCPHeader{SrcPort: 40000, DstPort: 80, Seq: 10, Ack: isn + 1, Flags: wire.TCPAck | wire.TCPPsh, Window: 65535}, []byte("GET / HTTP/1.0\r\n\r\n")), 1},
		{"closed-udp", udp(svcWAN, 9999, []byte("x")), 1},
		{"rst", tcp(wire.TCPHeader{SrcPort: 40000, DstPort: 80, Seq: 9, Flags: wire.TCPRst}, nil), 0},
		{"dns", udp(svcWAN, 53, query), 1},
		{"ue-echo", echo(localUEAddr), 1},
		{"short-lived-answer", udp(localUEAddr, 1, nil), 0},
		{"answer-elsewhere", udp(localUEAddr, 2, nil), 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := localMirror(t)
			for i := 0; i < 3; i++ {
				p.step(t, fmt.Sprintf("probe %d", i), tc.pkt, i > 0, tc.replies)
			}
		})
	}

	t.Run("hop-limit", func(t *testing.T) {
		// Two forwarding hops to the CPE: a probe needs hop limit 3 to
		// arrive; with 2 the ISP answers Time Exceeded instead.
		p := localMirror(t)
		p.step(t, "hl=3 cold", echoFrom(scannerAddr, wanAddr, 3), false, 1)
		p.step(t, "hl=2", echoFrom(scannerAddr, wanAddr, 2), false, 1)
		p.step(t, "hl=3 warm", echoFrom(scannerAddr, wanAddr, 3), true, 1)
	})

	t.Run("second-source", func(t *testing.T) {
		// The entry's reply path was compiled for the scanner's address.
		p := localMirror(t)
		p.step(t, "scanner cold", echo(svcWAN), false, 1)
		for i := 0; i < 2; i++ {
			p.step(t, fmt.Sprintf("other %d", i), echoFrom(otherAddr, svcWAN, 64), false, 1)
		}
		p.step(t, "scanner warm", echo(svcWAN), true, 1)
	})

	t.Run("traced-answer", func(t *testing.T) {
		// A TCP reply's flow is its destination, the scanner: sampled, it
		// is interpreted from the device on, and its crossings recorded.
		p := localMirror(t)
		ft, st := &crossingTracer{target: scannerAddr}, &crossingTracer{target: scannerAddr}
		p.fast.eng.SetFlowTracer(ft)
		p.slow.eng.SetFlowTracer(st)
		for i := 0; i < 3; i++ {
			p.step(t, fmt.Sprintf("syn %d", i), syn, i > 0, 1)
		}
		if len(st.hops) != 9 {
			t.Errorf("the interpreter traced %d crossings, want 9 (three SYN/ACKs, three hops each)", len(st.hops))
		}
		if !slices.Equal(ft.hops, st.hops) {
			t.Errorf("traced crossings differ:\nfast %v\nslow %v", ft.hops, st.hops)
		}
	})

	t.Run("batch", func(t *testing.T) {
		// Local probes between scan probes: each ends the run it would
		// join and replays alone, in order.
		p := localMirror(t)
		gap := ipv6.MustParseAddr("2001:db8:aaaa:bbbb::")
		var pkts [][]byte
		for i, c := range cases {
			pkts = append(pkts, echo(gap.WithIID(uint64(i+1))), echo(ipv6.SLAAC(lanSubnet, uint64(0x100+i))), c.pkt)
		}
		for pass := 0; pass < 2; pass++ {
			hits, misses := p.injectBatch(pkts)
			p.compare(t, fmt.Sprintf("pass %d", pass))
			if hits+misses != uint64(len(pkts)) {
				t.Errorf("pass %d: %d hits + %d misses for %d probes", pass, hits, misses, len(pkts))
			}
			if pass == 1 && misses != 0 {
				t.Errorf("warm pass: %d misses, want 0", misses)
			}
		}
	})
}
