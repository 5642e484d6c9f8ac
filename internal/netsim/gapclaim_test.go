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
	up      *Iface // isp's upstream interface
}

var sparseBlock = ipv6.MustParsePrefix("2001:db8::/40")

// buildSparseNet wires the net. The ISP's own addresses sit in the
// block's last /64, as topo.Build places them. A /64 delegation is a
// CPE's WAN subnet; a shorter one is a delegated LAN whose first /64
// doubles as the WAN subnet.
func buildSparseNet(tb testing.TB, block ipv6.Prefix, delegs []ipv6.Prefix) *sparseNet {
	tb.Helper()
	n := &sparseNet{eng: New(1)}
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
	n.eng.Connect(n.scanner.Iface(), coreScan, 0)
	n.eng.Connect(coreISP, n.up, 0)
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
	n.eng.Connect(down, cpe.WAN(), 0)
	if err := n.isp.Delegate(p, down); err != nil {
		tb.Fatal(err)
	}
}

// randomDelegs draws count non-overlapping delegations of mixed lengths
// inside the first 2^winBits /64s of block: hostile-style /52 and /54
// regions, /56s, /60s and side-region-style /64s.
func randomDelegs(rng *rand.Rand, block ipv6.Prefix, winBits, count int) []ipv6.Prefix {
	lens := []int{52, 54, 56, 60, 60, 64, 64, 64}
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

// TestFlowCacheGapClaimSound is the claim-soundness property: for random
// delegation sets and random unassigned in-block destinations, the
// region CompileTerminal claims holds no delegation in any /64 cell,
// stays inside the block, holds no router address outside its
// exclusions, sits on a gapStep boundary, and is maximal — the next
// wider step would take in a delegation, a router address or space
// outside the block.
func TestFlowCacheGapClaimSound(t *testing.T) {
	const winBits = 16 // delegations land in the block's first 2^16 /64s
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		delegs := randomDelegs(rng, sparseBlock, winBits, 1+rng.Intn(24))
		n := buildSparseNet(t, sparseBlock, delegs)
		r := n.isp

		// uniform reports whether prefix(dh, w) is claimable as one gap:
		// inside the block, every /64 cell unassigned, and every router
		// address in it sharing dst's /64 (excludable).
		base := sparseBlock.Addr().Uint128().Hi
		uniform := func(dh uint64, w uint8) bool {
			if int(w) < sparseBlock.Bits() {
				return false
			}
			lo := dh & fpMask(w)
			for _, a := range r.addrList {
				ah := a.Uint128().Hi
				if ah&fpMask(w) == lo && ah != dh {
					return false
				}
			}
			// Delegations only land in the window, so the cells of the
			// region past it need no lookup.
			hi := min(dh|^fpMask(w), base|(1<<winBits-1))
			for c := lo; c <= hi; c++ {
				if _, ok := r.lookup(ipv6.AddrFrom128(uint128.New(c, 1))); ok {
					return false
				}
			}
			return true
		}

		claims := 0
		for trial := 0; trial < 400; trial++ {
			var dh uint64
			switch trial % 4 {
			case 0: // anywhere in the block
				dh = base | rng.Uint64()>>uint(sparseBlock.Bits())
			case 1: // beside the router's own addresses
				dh = n.up.Addr().Uint128().Hi - uint64(rng.Intn(40))
			default: // inside the populated window
				dh = base | rng.Uint64()&(1<<winBits-1)
			}
			dst := ipv6.AddrFrom128(uint128.New(dh, rng.Uint64()|1))
			term, ok := r.CompileTerminal(n.up, dst)
			if _, deleg := r.lookup(dst); deleg || r.isLocal(dst) {
				if ok {
					t.Fatalf("seed %d: %s is delegated or local but compiled a terminal", seed, dst)
				}
				continue
			}
			if !ok || term.width == 0 {
				t.Fatalf("seed %d: unassigned %s compiled no region (ok=%v width=%d)", seed, dst, ok, term.width)
			}
			claims++
			w := term.width
			if w%gapStep != 0 || w > 64 {
				t.Fatalf("seed %d: %s claimed /%d, not a multiple of %d", seed, dst, w, gapStep)
			}
			for _, a := range term.excl[:term.nExcl] {
				if a.Uint128().Hi != dh || !r.isLocal(a) {
					t.Fatalf("seed %d: %s excludes %s, not a router address of its /64", seed, dst, a)
				}
			}
			if !uniform(dh, w) {
				t.Fatalf("seed %d: %s claimed /%d, which is not uniformly unassigned", seed, dst, w)
			}
			if w >= gapStep && uniform(dh, w-gapStep) {
				t.Fatalf("seed %d: %s claimed /%d but /%d is uniformly unassigned too", seed, dst, w, w-gapStep)
			}
		}
		if claims < 100 {
			t.Fatalf("seed %d: only %d gap claims checked", seed, claims)
		}
	}
}

// TestFlowCacheGapClaimReplay drives a sparse net and its interpreted
// mirror through one pass over every /64 of the window: the wide gap
// entries must replay byte-identically, and the pass must be served
// mostly from them.
func TestFlowCacheGapClaimReplay(t *testing.T) {
	const winBits = 12
	rng := rand.New(rand.NewSource(7))
	delegs := randomDelegs(rng, sparseBlock, winBits, 12)
	fast := buildSparseNet(t, sparseBlock, delegs)
	slow := buildSparseNet(t, sparseBlock, delegs)
	slow.eng.SetFastPath(false)
	base := sparseBlock.Addr().Uint128().Hi
	for i, c := range rng.Perm(1 << winBits) {
		dst := ipv6.AddrFrom128(uint128.New(base|uint64(c), rng.Uint64()|1))
		pkt, err := wire.BuildEchoRequest(scannerAddr, dst, 64, 0xbeef, uint16(i), nil)
		if err != nil {
			t.Fatal(err)
		}
		fast.eng.Inject(fast.scanner.Iface(), pkt)
		slow.eng.Inject(slow.scanner.Iface(), pkt)
		fr, sr := fast.scanner.Drain(), slow.scanner.Drain()
		if len(fr) != len(sr) {
			t.Fatalf("%s: fastpath delivered %d replies, interpreted %d", dst, len(fr), len(sr))
		}
		for k := range fr {
			if string(fr[k]) != string(sr[k]) {
				t.Fatalf("%s: reply %d differs:\nfast %x\nslow %x", dst, k, fr[k], sr[k])
			}
		}
	}
	fc, sc := fast.eng.Counters(), slow.eng.Counters()
	if fc.Transmissions != sc.Transmissions || fc.Bytes != sc.Bytes {
		t.Errorf("counters diverge: fastpath %+v, interpreted %+v", fc, sc)
	}
	if share := float64(fc.FastPathHits) / float64(fc.FastPathHits+fc.FastPathMisses); share < 0.8 {
		t.Errorf("hit share %.3f over a sparse cold pass (%d compiles), want > 0.8", share, fc.FastPathCompiles)
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
	// claim (/44 here: the block's empty upper half, quantised) is not
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
	if got := len(n.scanner.Drain()); got != 4 {
		t.Errorf("%d replies for 4 probes", got)
	}
}
