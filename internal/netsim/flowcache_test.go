package netsim

import (
	"bytes"
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
					p.inject(t, dsts[rng.Intn(len(dsts))], hops[rng.Intn(len(hops))], seq, probeData)
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
			p.inject(t, gap(0x10), 64, seq, probeData)
			before := p.fast.eng.Counters().FastPathHits
			p.inject(t, gap(0x20), 64, seq+1, probeData)
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
					p.inject(t, gap(cell), 64, seq, probeData)
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

// TestFlowCacheLoopFusionParity pins the routing-loop bounce: a probe
// into a vulnerable delegation ping-pongs ~253 times on the access
// link. The fused replay must reproduce the interpreted amplification
// byte-for-byte while collapsing the crossings into far fewer events.
// One compiled entry serves every hop limit that dies on its turn of
// the ISP↔CPE cycle — h+2 after h, as the loop detector sends them —
// and every other probe (another turn, or a hop limit that dies before
// the cycle) falls back to the interpreter; nothing recompiles. A
// compiling probe that dies before the cycle keys the turn a probe of
// hop limit 255 dies on.
func TestFlowCacheLoopFusionParity(t *testing.T) {
	notUsed := ipv6.MustParseAddr("2001:db8:4321:8769::77")
	for _, tc := range []struct {
		compileHL, turnOf uint8 // the compiling probe, and a hop limit on the entry's turn
	}{
		{255, 255},
		{32, 34},
		{2, 255},
	} {
		t.Run(fmt.Sprintf("compiled at %d", tc.compileHL), func(t *testing.T) {
			p := buildMirror(t, CPEBehavior{VulnLAN: true}, ErrorPolicy{})
			p.inject(t, notUsed, tc.compileHL, 1, probeData) // compiles the loop
			p.compare(t, "cold loop")
			c0 := p.fast.eng.Counters()
			if c0.FastPathCompiles != 1 {
				t.Fatalf("cold probe: %d compiles, want 1", c0.FastPathCompiles)
			}
			// The test net's loop: core→isp, isp→cpe, then the cycle
			// cpe→isp, isp→cpe. A probe of hop limit hl dies after hl-1
			// crossings, on turn (hl-3) mod 2 if it reaches the cycle.
			j := p.fast.eng.fp.lookup(p.fast.scanner.Iface().Peer().fpID, notUsed.Uint128().Hi, notUsed.Uint128().Lo)
			if j < 0 || p.fast.eng.fp.hot[j].kind != entryLoop {
				t.Fatal("the cold probe compiled no loop entry")
			}
			if h := p.fast.eng.fp.hot[j]; h.loopStart != 2 || h.loopLen != 2 || h.loopTurn != (tc.turnOf-3)%2 {
				t.Fatalf("loop entry geometry prefix %d, cycle %d, turn %d; want 2, 2, %d",
					h.loopStart, h.loopLen, h.loopTurn, (tc.turnOf-3)%2)
			}
			onTurn := func(hl uint8) bool { return hl >= 3 && (hl-3)%2 == (tc.turnOf-3)%2 }

			p.inject(t, notUsed, tc.turnOf, 2, probeData) // replays it fused
			p.compare(t, "warm loop")
			if got := p.fast.eng.Counters().FastPathHits - c0.FastPathHits; got != 1 {
				t.Fatalf("hop limit %d on the entry's turn: %d hits, want 1", tc.turnOf, got)
			}
			if tc.turnOf == 255 {
				if got := p.fast.cpeLink.TotalPackets(); got < 250 {
					t.Errorf("access link carried %d packets across the warm loop, want ~253", got)
				}
				fastEvents := p.fast.eng.Counters().Events
				slowEvents := p.slow.eng.Counters().Events
				if fastEvents*10 > slowEvents {
					t.Errorf("loop fusion saved too little: %d events fastpath vs %d interpreted",
						fastEvents, slowEvents)
				}
			}

			for hl := 1; hl <= 255; hl++ {
				before := p.fast.eng.Counters()
				p.inject(t, notUsed, uint8(hl), uint16(10+hl), probeData)
				p.compare(t, fmt.Sprintf("hop limit %d", hl))
				after := p.fast.eng.Counters()
				hit := after.FastPathHits - before.FastPathHits
				if want := onTurn(uint8(hl)); (hit == 1) != want || after.FastPathCompiles != before.FastPathCompiles {
					t.Errorf("hop limit %d (on the entry's turn: %v): %d hits, %d misses, %d compiles",
						hl, want, hit, after.FastPathMisses-before.FastPathMisses,
						after.FastPathCompiles-before.FastPathCompiles)
				}
			}

			// One batch, one entry, several hop limits on its turn: each
			// hop limit's probes are charged their own crossings.
			var batch [][]byte
			for round := 0; round < 2; round++ {
				for _, hl := range []uint8{3, 4, 5, 6, 100, 101, 254, 255} {
					if !onTurn(hl) {
						continue
					}
					pkt, err := wire.BuildEchoRequest(scannerAddr, notUsed, hl, 0xbeef, uint16(300+len(batch)), []byte("probe"))
					if err != nil {
						t.Fatal(err)
					}
					batch = append(batch, pkt)
				}
			}
			if hits, misses := p.injectBatch(batch); hits != uint64(len(batch)) || misses != 0 {
				t.Errorf("a batch of %d probes on the entry's turn: %d hits, %d misses", len(batch), hits, misses)
			}
			p.compare(t, "mixed hop limits in one batch")
		})
	}
}

// TestFlowCacheShortHopLimitKeepsRegion: a probe whose hop limit dies on
// the way compiles its region's entry as any probe would, and is itself
// interpreted; the full-hop-limit probes that follow into the region
// replay that entry. A wide entry keyed to the short probe's own expiry
// would refuse every one of them and never be recompiled.
func TestFlowCacheShortHopLimitKeepsRegion(t *testing.T) {
	p := buildMirror(t, CPEBehavior{}, ErrorPolicy{})
	gap := func(i uint64) ipv6.Addr {
		return ipv6.AddrFrom128(uint128.New(0x20010db8_90000000|i<<16, i+1))
	}
	p.inject(t, gap(0), 2, 1, probeData) // expires at the ISP, one hop short of its error
	p.compare(t, "hop limit 2")
	before := p.fast.eng.Counters()
	for i := uint64(1); i <= 20; i++ {
		p.inject(t, gap(i), 64, uint16(1+i), probeData)
		p.compare(t, fmt.Sprintf("gap probe %d", i))
	}
	after := p.fast.eng.Counters()
	hits, misses := after.FastPathHits-before.FastPathHits, after.FastPathMisses-before.FastPathMisses
	if compiles := after.FastPathCompiles - before.FastPathCompiles; hits != 20 || misses != 0 || compiles != 0 {
		t.Errorf("20 hop-limit-64 probes into the gap after a hop-limit-2 one: %d hits, %d misses, %d compiles; want 20, 0, 0",
			hits, misses, compiles)
	}
}

// TestFlowCacheErrorQuoteLengths replays errors quoting probes of many
// lengths — empty and odd payloads, and probes longer than an error may
// quote (RFC 4443's 1,280-byte cap cuts them) — through each kind of
// error entry of the test net, at a hop limit that replays and one that
// dies on the way. Replies must be byte-identical to the interpreter's,
// and the replays must leave every entry as its compile left it: the
// warm pass sends the lengths in the opposite order, so an entry that
// kept state from the probe it last answered would differ.
func TestFlowCacheErrorQuoteLengths(t *testing.T) {
	p := buildMirror(t, CPEBehavior{VulnWAN: true, VulnLAN: true}, ErrorPolicy{})
	dsts := []ipv6.Addr{
		ipv6.MustParseAddr("2001:db8:9000:1::1"),     // the ISP block's gap flow
		ipv6.SLAAC(wanPrefix, 0x99),                  // the WAN loop
		ipv6.MustParseAddr("2001:db8:4321:8769::77"), // the Not-used loop
		ipv6.SLAAC(lanSubnet, 0xdeadbeefcafef00d),    // the subnet's address unreachable
	}
	sizes := []int{0, 5, 64, 200, 1300, 1400}
	seq := uint16(1)
	pass := func(tag string, sizes []int) {
		t.Helper()
		for _, dst := range dsts {
			for _, hl := range []uint8{64, 3} {
				for _, n := range sizes {
					data := make([]byte, n)
					for i := range data {
						data[i] = byte(i*7 + n)
					}
					p.inject(t, dst, hl, seq, data)
					seq++
					p.compare(t, fmt.Sprintf("%s: %s, hop limit %d, %d-byte payload", tag, dst, hl, n))
				}
			}
		}
	}
	pass("cold", sizes)
	before := snapshotFlows(&p.fast.eng.fp)
	kinds := map[entryKind]int{}
	for _, f := range before {
		kinds[f.hot.kind]++
	}
	if kinds[entryError] == 0 || kinds[entryLoop] == 0 {
		t.Fatalf("the cold pass compiled %v; want error and loop entries", kinds)
	}
	c0 := p.fast.eng.Counters()
	warm := slices.Clone(sizes)
	slices.Reverse(warm)
	pass("warm", warm)
	c1 := p.fast.eng.Counters()
	if c1.FastPathCompiles != c0.FastPathCompiles || c1.FastPathHits == c0.FastPathHits {
		t.Errorf("warm pass: %d compiles, %d hits; want 0 compiles and some hits",
			c1.FastPathCompiles-c0.FastPathCompiles, c1.FastPathHits-c0.FastPathHits)
	}
	after := snapshotFlows(&p.fast.eng.fp)
	if len(after) != len(before) {
		t.Errorf("%d live entries before the warm pass, %d after", len(before), len(after))
	}
	for j, f := range before {
		if after[j] != f {
			t.Errorf("slot %d changed under replay:\nbefore %+v\nafter  %+v", j, f, after[j])
		}
	}
}

// flowSnap is a copy of one live entry: its hot header and, unless it is
// negative, its cold tail.
type flowSnap struct {
	hot  flowHot
	cold flowCold
}

// snapshotFlows copies every live entry, keyed by slot.
func snapshotFlows(fp *flowCache) map[int]flowSnap {
	m := map[int]flowSnap{}
	for j := range fp.tags {
		if !fp.live(uint64(j)) {
			continue
		}
		f := flowSnap{hot: fp.hot[j]}
		if f.hot.kind != entryNeg {
			f.cold = fp.cold[f.hot.cold]
		}
		m[j] = f
	}
	return m
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

// TestFlowCacheWideEntrySharing pins region-width compilation: two
// destinations in different /64s of one unassigned delegation cell
// share a compiled entry (the second probe is a cache hit), while the
// ISP's own interface address — which sits inside a compilable region —
// keeps answering as itself rather than inheriting the region's fate.
// A warm batch alternating between the two regions replays as the
// interpreter runs it.
func TestFlowCacheWideEntrySharing(t *testing.T) {
	p := buildMirror(t, CPEBehavior{}, ErrorPolicy{})

	// The finest delegated length in buildTestNet is /64, so the
	// uniform cell around unassigned 2001:db8:aaaa:bbbb::/64 is exactly
	// one /64: probing two IIDs of it shares the entry; probing the
	// adjacent /64 compiles its own.
	a1 := ipv6.MustParseAddr("2001:db8:aaaa:bbbb::1")
	a2 := ipv6.MustParseAddr("2001:db8:aaaa:bbbb::2")
	p.inject(t, a1, 64, 1, probeData)
	p.compare(t, "cold region")
	before := p.fast.eng.Counters()
	p.inject(t, a2, 64, 2, probeData)
	p.compare(t, "warm region")
	after := p.fast.eng.Counters()
	if after.FastPathHits <= before.FastPathHits {
		t.Errorf("second probe of the region missed: hits %d -> %d (misses %d -> %d)",
			before.FastPathHits, after.FastPathHits, before.FastPathMisses, after.FastPathMisses)
	}

	// The provider-side WAN interface address lies inside the delegated
	// WAN /64 whose other addresses forward to the CPE: the compiled
	// region must hole it out (hole/shadow machinery), in both orders.
	local := ipv6.MustParseAddr("2001:db8:1234:5678::1")
	other := ipv6.SLAAC(wanPrefix, 0xdeadbeef)
	p.inject(t, other, 64, 3, probeData) // compile the forwarding region first
	p.compare(t, "wan region")
	p.inject(t, local, 64, 4, probeData) // then the holed local address
	p.compare(t, "wan local addr")
	p.inject(t, local, 64, 5, probeData) // warm local
	p.inject(t, other, 64, 6, probeData) // warm region
	p.compare(t, "wan interleaved")

	// One warm batch of stretches one to three probes long, alternating
	// between the two regions' entries: each stretch is charged as a
	// whole, its reverse path once per probe.
	batch := echoBurst(t, []ipv6.Addr{a1, other, a2, a2, other, other, other, a1})
	if hits, misses := p.injectBatch(batch); hits != uint64(len(batch)) || misses != 0 {
		t.Errorf("alternating stretches: %d hits, %d misses, want %d and 0", hits, misses, len(batch))
	}
	p.compare(t, "alternating stretches")
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
