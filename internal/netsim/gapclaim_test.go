package netsim

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/ipv6"
	"repro/internal/uint128"
	"repro/internal/wire"
)

// sparseNet is scanner(edge) -- core -- isp with a caller-chosen set of
// delegations, each behind its own CPE: the shape of a scan window that
// is almost entirely unassigned.
type sparseNet struct {
	eng     *Engine
	scanner *Edge
	core    *Router
	isp     *ISPRouter
	up      *Iface   // isp's upstream interface
	downs   []*Iface // isp's subscriber interfaces, in delegation order
}

var sparseBlock = ipv6.MustParsePrefix("2001:db8::/40")

// buildSparseNet wires the net. The ISP's own addresses sit in the
// block's last /64, as topo.Build places them. A /64 delegation is a
// CPE's WAN subnet; a shorter one is a delegated LAN whose first /64
// doubles as the WAN subnet.
func buildSparseNet(tb testing.TB, block ipv6.Prefix, delegs []ipv6.Prefix) *sparseNet {
	tb.Helper()
	n := &sparseNet{eng: New()}
	n.scanner = NewEdge("scanner", scannerAddr)
	n.core = NewRouter("core", ErrorPolicy{})
	n.isp = NewISPRouter("isp", block, ErrorPolicy{})
	last, _ := block.NumSub(64)
	linkNet, err := block.Sub(64, last.Sub64(1))
	if err != nil {
		tb.Fatal(err)
	}
	coreScan := n.core.AddIface(ipv6.MustParseAddr("2001:beef::1"), "core:scan")
	coreISP := n.core.AddIface(ipv6.SLAAC(linkNet, 1), "core:isp")
	n.up = n.isp.AddIface(ipv6.SLAAC(linkNet, 2), "isp:up")
	n.eng.Connect(n.scanner.Iface(), coreScan)
	n.eng.Connect(coreISP, n.up)
	n.core.AddRoute(block, coreISP)
	n.core.AddRoute(ipv6.MustParsePrefix("2001:beef::/64"), coreScan)
	n.isp.SetUpstream(n.up)
	for i, p := range delegs {
		n.delegate(tb, p, i)
	}
	return n
}

// delegate plants one more subscriber behind the ISP.
func (n *sparseNet) delegate(tb testing.TB, p ipv6.Prefix, i int) {
	tb.Helper()
	wan := p.Addr().Prefix64()
	cfg := CPEConfig{
		Name:    fmt.Sprintf("cpe%d", i),
		WANAddr: ipv6.SLAAC(wan, 0x0211_22ff_fe00_0000|uint64(i)), WANPrefix: wan,
	}
	if p.Bits() < 64 {
		cfg.Delegated = p
	}
	cpe := NewCPE(cfg)
	down := n.isp.AddIface(ipv6.SLAAC(n.up.Addr().Prefix64(), 3), cfg.Name+":down")
	n.eng.Connect(down, cpe.WAN())
	n.downs = append(n.downs, down)
	if err := n.isp.Delegate(p, down); err != nil {
		tb.Fatal(err)
	}
}

// mixedLens is several delegated lengths: hostile-style
// /52 and /54 regions, /56s, /60s and side-region-style /64s.
var mixedLens = []int{52, 54, 56, 60, 60, 64, 64, 64}

// randomDelegs draws count non-overlapping delegations of mixed lengths
// inside the first 2^winBits /64s of block, their lengths drawn from
// lens (mixedLens unless the caller wants one length).
func randomDelegs(rng *rand.Rand, block ipv6.Prefix, winBits, count int, lens ...int) []ipv6.Prefix {
	if len(lens) == 0 {
		lens = mixedLens
	}
	var out []ipv6.Prefix
	for len(out) < count {
		l := lens[rng.Intn(len(lens))]
		cells := uint64(1) << (l - (64 - winBits))
		p, err := block.Sub(l, uint128.From64(rng.Uint64()%cells))
		if err != nil {
			panic(err)
		}
		clash := false
		for _, q := range out {
			clash = clash || q.Overlaps(p)
		}
		if !clash {
			out = append(out, p)
		}
	}
	return out
}

// gapFlowHit reports whether a lookup of dst from the scanner's side of
// the net resolves, as the cache stands, to a gap flow.
func (n *sparseNet) gapFlowHit(dst ipv6.Addr) bool {
	n.eng.mu.Lock()
	defer n.eng.mu.Unlock()
	u := dst.Uint128()
	j := n.eng.fp.lookup(n.scanner.Iface().Peer().fpID, u.Hi, u.Lo)
	return j >= 0 && n.eng.fp.hot[j].gaps != nil
}

// liveGapFlows counts the live entries that carry an emptiness index.
func (n *sparseNet) liveGapFlows() int {
	n.eng.mu.Lock()
	defer n.eng.mu.Unlock()
	live := 0
	for j := range n.eng.fp.hot {
		if h := &n.eng.fp.hot[j]; n.eng.fp.tags[j] != 0 && h.gen == n.eng.fp.gen && h.gaps != nil {
			live++
		}
	}
	return live
}

// probe injects one echo request and returns the raw replies.
func (n *sparseNet) probe(tb testing.TB, dst ipv6.Addr, seq uint16) [][]byte {
	tb.Helper()
	pkt, err := wire.BuildEchoRequest(scannerAddr, dst, 64, 0xbeef, seq, nil)
	if err != nil {
		tb.Fatal(err)
	}
	n.eng.Inject(n.scanner.Iface(), pkt)
	return n.scanner.DrainInto(nil)
}

// TestFlowCacheGapClaimSound is the gap flow's contract: over random
// /52-/64 delegation sets spread over several lengths, with a router
// address planted inside the window, the block's gap flow serves an
// address iff the interpreted mirror answers it "no route" from the
// provider edge and its /64 holds no router address (those /64s are
// holes: their unassigned remainder compiles its own /64 entry). The
// window shares one gap flow (the upstream hops' own in-block addresses
// split off only the regions beside them), and a Delegate into space a
// gap flow covered leaves no live entry holding the index.
func TestFlowCacheGapClaimSound(t *testing.T) {
	const winBits = 16 // delegations land in the block's first 2^16 /64s
	base := sparseBlock.Addr().Uint128().Hi
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		delegs := randomDelegs(rng, sparseBlock, winBits, 1+rng.Intn(24))
		fast := buildSparseNet(t, sparseBlock, delegs)
		slow := buildSparseNet(t, sparseBlock, delegs)
		slow.eng.SetFastPath(false)
		lens := map[int]bool{}
		for _, p := range delegs {
			lens[p.Bits()] = true
		}
		if len(lens) < 2 && len(delegs) > 4 {
			t.Fatalf("seed %d: %d delegations of %d lengths; the draw lost its spread", seed, len(delegs), len(lens))
		}

		// A router address in an unassigned /64 of the window.
		var local ipv6.Addr
		for {
			local = ipv6.AddrFrom128(uint128.New(base|rng.Uint64()&(1<<winBits-1), 0x10ca1))
			if _, ok := fast.isp.lookup(local); !ok {
				break
			}
		}
		fast.isp.AddIface(local, "isp:lo")
		slow.isp.AddIface(local, "isp:lo")
		localCell := func(a ipv6.Addr) bool {
			for _, l := range fast.isp.addrList {
				if l.Uint128().Hi == a.Uint128().Hi {
					return true
				}
			}
			return false
		}

		// check probes dst on both nets and holds the contract for it.
		seq := uint16(0)
		served := 0
		check := func(tag string, dst ipv6.Addr) {
			t.Helper()
			seq++
			hit := fast.gapFlowHit(dst)
			fr, sr := fast.probe(t, dst, seq), slow.probe(t, dst, seq)
			if len(fr) != len(sr) || len(fr) > 0 && string(fr[0]) != string(sr[0]) {
				t.Fatalf("seed %d %s: %s answered differently:\nfast %x\nslow %x", seed, tag, dst, fr, sr)
			}
			noRoute := false
			if len(sr) == 1 {
				sum, err := wire.ParsePacket(sr[0])
				if err != nil {
					t.Fatal(err)
				}
				noRoute = sum.ICMP != nil && sum.ICMP.Type == wire.ICMPDestUnreach &&
					sum.ICMP.Code == wire.UnreachNoRoute && sum.IP.Src == slow.up.Addr()
			}
			want := noRoute && sparseBlock.Contains(dst) && !localCell(dst)
			if hit && !want {
				t.Fatalf("seed %d %s: a gap flow served %s, which the interpreter does not answer as plain unassigned space", seed, tag, dst)
			}
			// The probe above compiled dst's region if nothing held it.
			if got := fast.gapFlowHit(dst); got != want {
				t.Fatalf("seed %d %s: gap flow serves %s = %v, interpreted no-route from the edge outside a router /64 = %v",
					seed, tag, dst, got, want)
			}
			if want {
				served++
			}
		}
		trial := func(tag string, n int) {
			for i := 0; i < n; i++ {
				var dh uint64
				switch i % 6 {
				case 0: // anywhere in the block
					dh = base | rng.Uint64()>>uint(sparseBlock.Bits())
				case 1: // beside the router's link addresses
					dh = fast.up.Addr().Uint128().Hi - uint64(rng.Intn(40))
				case 2: // beside the planted router address
					dh = local.Uint128().Hi + uint64(rng.Intn(5)) - 2
				case 3: // inside a delegation
					p := delegs[rng.Intn(len(delegs))]
					dh = p.Addr().Uint128().Hi | rng.Uint64()&^fpMask(uint8(p.Bits()))
				default: // inside the populated window
					dh = base | rng.Uint64()&(1<<winBits-1)
				}
				check(tag, ipv6.AddrFrom128(uint128.New(dh, rng.Uint64()|1)))
			}
			check(tag, local)
			check(tag, fast.up.Addr())
			check(tag, ipv6.MustParseAddr("2001:beef::77")) // off-block
		}
		trial("cold", 300)
		if served < 100 {
			t.Fatalf("seed %d: only %d addresses were gap-flow territory", seed, served)
		}
		// Everything below the block's top half is one key region: the
		// core's in-block address sits in the block's last /64.
		before := fast.liveGapFlows()
		for i := 0; i < 50; i++ {
			check("low half", ipv6.AddrFrom128(uint128.New(base|rng.Uint64()>>uint(sparseBlock.Bits()+1), 3)))
		}
		if live := fast.liveGapFlows(); live != before || live < 1 {
			t.Fatalf("seed %d: 50 more probes into the block's lower half took the live gap flows %d -> %d", seed, before, live)
		}
		if c := fast.eng.Counters(); c.FastPathEvictions != 0 {
			t.Fatalf("seed %d: %d evictions", seed, c.FastPathEvictions)
		}

		// Delegate into covered space: the flow generation moves with the
		// index, so no entry compiled against the old index survives, and the
		// subscriber answers for its new prefix at once.
		var planted ipv6.Prefix
		for {
			l := 52 + rng.Intn(13)
			p, err := sparseBlock.Sub(l, uint128.From64(rng.Uint64()%(1<<(l-(64-winBits)))))
			if err != nil {
				t.Fatal(err)
			}
			clash := p.Contains(local)
			for _, q := range delegs {
				clash = clash || q.Overlaps(p)
			}
			if !clash {
				planted = p
				break
			}
		}
		inside := ipv6.AddrFrom128(uint128.New(planted.Addr().Uint128().Hi|rng.Uint64()&^fpMask(uint8(planted.Bits())), 9))
		if !fast.gapFlowHit(inside) {
			check("warm", inside)
		}
		// To a subscriber already wired: Delegate alone must invalidate.
		for _, n := range []*sparseNet{fast, slow} {
			if err := n.isp.Delegate(planted, n.downs[0]); err != nil {
				t.Fatal(err)
			}
		}
		delegs = append(delegs, planted)
		if live := fast.liveGapFlows(); live != 0 || !fast.isp.gapsStale {
			t.Fatalf("seed %d: after Delegate(%s) %d gap flows are live, index stale = %v",
				seed, planted, live, fast.isp.gapsStale)
		}
		check("planted", inside)
		if fast.gapFlowHit(inside) {
			t.Fatalf("seed %d: %s is delegated now but a gap flow serves it", seed, inside)
		}
		trial("after Delegate", 120)
	}
}

// TestFlowCacheGapClaimReplay drives a sparse net and its interpreted
// mirror through one pass over every /64 of the window: the gap flow
// must replay byte-identically and serve all of the window's empty
// space, so the pass compiles about one flow per delegation. (One table
// per run: a delegation costs a flow per cell of the finest table, which
// the gap flow does not change.)
func TestFlowCacheGapClaimReplay(t *testing.T) {
	const winBits, count = 14, 24
	for _, bits := range []int{56, 60, 64} {
		rng := rand.New(rand.NewSource(int64(bits)))
		delegs := randomDelegs(rng, sparseBlock, winBits, count, bits)
		fast := buildSparseNet(t, sparseBlock, delegs)
		slow := buildSparseNet(t, sparseBlock, delegs)
		slow.eng.SetFastPath(false)
		base := sparseBlock.Addr().Uint128().Hi
		for i, c := range rng.Perm(1 << winBits) {
			dst := ipv6.AddrFrom128(uint128.New(base|uint64(c), rng.Uint64()|1))
			fr, sr := fast.probe(t, dst, uint16(i)), slow.probe(t, dst, uint16(i))
			if len(fr) != len(sr) {
				t.Fatalf("/%d %s: fastpath delivered %d replies, interpreted %d", bits, dst, len(fr), len(sr))
			}
			for k := range fr {
				if string(fr[k]) != string(sr[k]) {
					t.Fatalf("/%d %s: reply %d differs:\nfast %x\nslow %x", bits, dst, k, fr[k], sr[k])
				}
			}
		}
		fc, sc := fast.eng.Counters(), slow.eng.Counters()
		if fc.Transmissions != sc.Transmissions || fc.Bytes != sc.Bytes {
			t.Errorf("/%d: counters diverge: fastpath %+v, interpreted %+v", bits, fc, sc)
		}
		share := float64(fc.FastPathHits) / float64(fc.FastPathHits+fc.FastPathMisses)
		if share <= 0.99 || fc.FastPathEvictions != 0 {
			t.Errorf("/%d: hit share %.4f, %d evictions over a sparse cold pass, want > 0.99 and none",
				bits, share, fc.FastPathEvictions)
		}
		budget := uint64(count + 4)
		if bits < 64 {
			budget += count // a CPE's WAN /64 inside its delegation is a second flow
		}
		if fc.FastPathCompiles > budget {
			t.Errorf("/%d: %d compiles for %d delegations: the empty space was not one flow", bits, fc.FastPathCompiles, count)
		}
	}
}

// TestFlowCacheWidthOverflowNarrows: once fpWidthCap widths are live, an
// entry claiming a new width is narrowed to the nearest live width above
// it — still wide, still replayable — instead of being keyed per
// address.
func TestFlowCacheWidthOverflowNarrows(t *testing.T) {
	var fp flowCache
	live := []uint8{64, 60, 58, 56, 52, 48, 44, 40}
	if len(live) != fpWidthCap {
		t.Fatalf("test lists %d widths, fpWidthCap is %d", len(live), fpWidthCap)
	}
	for _, w := range live {
		if got, ok := fp.keyWidth(w); !ok || got != w {
			t.Fatalf("keyWidth(%d) = %d, %v with room in the table", w, got, ok)
		}
	}
	for _, tc := range []struct{ claim, want uint8 }{{54, 56}, {50, 52}, {41, 44}, {62, 64}, {56, 56}} {
		if got, ok := fp.keyWidth(tc.claim); !ok || got != tc.want {
			t.Errorf("keyWidth(%d) = %d, %v on a full table, want %d", tc.claim, got, ok, tc.want)
		}
	}
	fp = flowCache{nWidths: 1}
	fp.widths[0] = 48
	for i := 1; i < fpWidthCap; i++ {
		fp.keyWidth(uint8(30 + i))
	}
	if _, ok := fp.keyWidth(52); ok {
		t.Error("keyWidth(52) found a width with nothing live at or above 52")
	}

	// End to end: saturate an engine's width table, then probe a gap whose
	// claim (/42 here: the core's own in-block address bounds it) is not
	// live. The entry must land at a live width and serve its neighbours.
	n := buildSparseNet(t, sparseBlock, []ipv6.Prefix{ipv6.MustParsePrefix("2001:db8::/64")})
	n.eng.mu.Lock()
	n.eng.fp.nWidths = 0
	for _, w := range []uint8{64, 63, 62, 61, 59, 57, 56, 55} {
		n.eng.fp.keyWidth(w)
	}
	n.eng.mu.Unlock()
	probe := func(dst string, seq uint16) {
		pkt, err := wire.BuildEchoRequest(scannerAddr, ipv6.MustParseAddr(dst), 64, 1, seq, nil)
		if err != nil {
			t.Fatal(err)
		}
		n.eng.Inject(n.scanner.Iface(), pkt)
	}
	probe("2001:db8:80:1::1", 1)
	before := n.eng.Counters()
	probe("2001:db8:80:1::2", 2)   // same /64
	probe("2001:db8:80:2::1", 3)   // same /55, different /64
	probe("2001:db8:80:1ff::9", 4) // last /64 of the /55
	after := n.eng.Counters()
	if got := after.FastPathHits - before.FastPathHits; got != 3 {
		t.Errorf("%d of 3 probes into the narrowed region hit (compiles %d -> %d)",
			got, before.FastPathCompiles, after.FastPathCompiles)
	}
	if got := len(n.scanner.DrainInto(nil)); got != 4 {
		t.Errorf("%d replies for 4 probes", got)
	}
}
