package netsim

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/ipv6"
	"repro/internal/uint128"
	"repro/internal/wire"
)

// FuzzFlowCacheParity holds the flow cache to its one claim: with the
// cache on, every packet, link stat and transit counter equals the
// interpreter's. The input's first two bytes pick a world
// (buildParityNet) and seed it; the rest is a script of operations, each run on two
// copies of the world, one replaying compiled flows and one with the
// fast path off:
//
//	op%8 < 4  a batch: count byte (1 + b%InjectRunLen probes), spec count
//	          byte (1 + b%8), then 6-byte probe specs (parityNet.probe), the
//	          batch cycling through them
//	op%8 = 4  Delegate a prefix (parityNet.dst at a parityDelegLens
//	          length) to a fresh numbered or unnumbered interface or to
//	          one already wired (5 bytes)
//	op%8 = 5  a core route: the block's route re-inserted, or a prefix
//	          routed out one of the core's interfaces or rejected (5 bytes)
//	op%8 = 6  InvalidateFlows on the fast world only
//	op%8 = 7  toggle the fast world's fast path
//
// After every operation compareNets holds the two worlds equal. A
// delegation or route change must leave no live entry; after every
// batch that evicted nothing no replay may have changed a live entry,
// and after every batch each live loop entry must serve some hop limit.
func FuzzFlowCacheParity(f *testing.F) {
	for _, s := range paritySeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzBytes(data)
		world, seed := in.next(), in.next()
		fast, slow := buildParityNet(t, world, seed), buildParityNet(t, world, seed)
		slow.eng.SetFastPath(false)
		fastOn := true
		seq := uint16(0)
		for op := 0; op < 64 && len(in) > 0; op++ {
			tag := fmt.Sprintf("world %d, op %d", world%parityWorlds, op)
			switch code := in.next(); code % 8 {
			case 4:
				b := in.take(5)
				p := ipv6.MustPrefix(fast.dst(b, 0), parityDelegLens[int(b[1]>>3)%len(parityDelegLens)])
				ef, es := fast.delegate(p, b[4]), slow.delegate(p, b[4])
				if (ef == nil) != (es == nil) {
					t.Fatalf("%s: Delegate(%s) = %v on the fast world, %v on the slow", tag, p, ef, es)
				}
				if live := len(snapshotFlows(&fast.eng.fp)); ef == nil && live != 0 {
					t.Fatalf("%s: %d entries outlive Delegate(%s)", tag, live, p)
				}
			case 5:
				b := in.take(5)
				fast.route(b)
				slow.route(b)
				if live := len(snapshotFlows(&fast.eng.fp)); live != 0 {
					t.Fatalf("%s: %d entries outlive a route change", tag, live)
				}
			case 6:
				fast.eng.InvalidateFlows()
			case 7:
				fastOn = !fastOn
				fast.eng.SetFastPath(fastOn)
			default:
				n := 1 + int(in.next())%InjectRunLen
				specs := make([][]byte, 1+int(in.next())%8)
				for i := range specs {
					specs[i] = in.take(6)
				}
				pkts := make([][]byte, n)
				for i := range pkts {
					seq++
					pkts[i] = fast.probe(t, specs[i%len(specs)], i, i/len(specs), seq)
				}
				before, evicted := snapshotFlows(&fast.eng.fp), fast.eng.Counters().FastPathEvictions
				fast.eng.InjectBatch(fast.scanner.Iface(), pkts)
				slow.eng.InjectBatch(slow.scanner.Iface(), pkts)
				if fast.eng.Counters().FastPathEvictions != evicted {
					before = nil // an evicted entry may come back compiled for another source
				}
				checkFlowsKept(t, tag, before, snapshotFlows(&fast.eng.fp))
			}
			compareNets(t, tag, fast.eng, slow.eng, fast.scanner, slow.scanner)
		}
	})
}

// parityWorlds is how many worlds the first input byte selects among:
// testNet plain, VulnWAN, VulnLAN, looping under a LoopCap and behind a
// suppressing ISP; localNet; a sparseNet over randomDelegs.
const parityWorlds = 7

// parityNet is one world: the engine, the scanner's edge, the core
// router and the provider edge, and the world's structural
// destinations, which probe and prefix specs pick from.
type parityNet struct {
	eng     *Engine
	scanner *Edge
	core    *Router
	isp     *ISPRouter
	dsts    []ipv6.Addr
}

// testDsts are testNet's structural addresses: every node address, the
// delegations' bases and a Not-used prefix of the LAN delegation, cells
// of the block's unassigned space, and off-block space — the scanner's
// /64, which the core routes back to the scanner, and space it has no
// route for.
var testDsts = []ipv6.Addr{
	wanAddr, lanAddr, lanHost,
	ipv6.MustParseAddr("2001:beef::1"),
	ipv6.MustParseAddr("2001:db8:fffe::1"),
	ipv6.MustParseAddr("2001:db8:fffe::2"),
	ipv6.MustParseAddr("2001:db8:1234:5678::1"),
	wanPrefix.Addr(), lanDeleg.Addr(), lanSubnet.Addr(),
	ipv6.MustParseAddr("2001:db8:4321:8769::77"),
	ipv6.MustParseAddr("2001:db8:aaaa:bbbb::"),
	ipv6.MustParseAddr("2001:db8:9000::"),
	ipv6.MustParseAddr("2001:db8:ffff::"),
	scannerAddr, otherAddr,
	ipv6.MustParseAddr("2001:bad::1"),
}

// localDsts adds localNet's services CPE and UE, their prefixes and the
// ISP's interfaces toward them.
var localDsts = append(testDsts[:len(testDsts):len(testDsts)],
	svcWAN, localUEAddr, svcPrefix.Addr(), localUEPrefix.Addr(),
	ipv6.MustParseAddr("2001:db8:5555:1::1"),
	ipv6.MustParseAddr("2001:db8:fffd::1"),
)

// buildParityNet builds world%parityWorlds; seed draws the sparse
// world's delegations.
func buildParityNet(tb testing.TB, world, seed byte) *parityNet {
	tb.Helper()
	switch world % parityWorlds {
	case 5:
		n := buildLocalNet(tb)
		return &parityNet{n.eng, n.scanner, n.core, n.isp, localDsts}
	case 6:
		rng := rand.New(rand.NewSource(int64(seed)))
		delegs := randomDelegs(rng, sparseBlock, 16, 1+int(seed)%12)
		n := buildSparseNet(tb, sparseBlock, delegs)
		dsts := []ipv6.Addr{sparseBlock.Addr(), n.up.Addr(), n.up.Peer().Addr(), scannerAddr, otherAddr, ipv6.MustParseAddr("2001:bad::1")}
		for i, p := range delegs {
			dsts = append(dsts, p.Addr(), ipv6.SLAAC(p.Addr().Prefix64(), 0x0211_22ff_fe00_0000|uint64(i)))
		}
		return &parityNet{n.eng, n.scanner, n.core, n.isp, dsts}
	}
	variants := [...]struct {
		b CPEBehavior
		p ErrorPolicy
	}{
		{},
		{b: CPEBehavior{VulnWAN: true}},
		{b: CPEBehavior{VulnLAN: true}},
		{b: CPEBehavior{VulnWAN: true, VulnLAN: true, LoopCap: 10}},
		{p: ErrorPolicy{Suppress: true}},
	}
	v := variants[world%parityWorlds]
	n := buildTestNet(tb, v.b, v.p)
	return &parityNet{n.eng, n.scanner, n.core, n.isp, testDsts}
}

// parityHops are the hop limits a spec byte below 0xc0 picks (see
// probe); a larger byte is the hop limit itself.
var parityHops = []uint8{0, 1, 2, 3, 4, 5, 6, 32, 33, 34, 64, 255}

// paritySizes are the payload lengths a spec picks: empty and odd ones,
// and an echo request of exactly, one under and one over the 1,232
// bytes an error quotes whole.
var paritySizes = []int{0, 1, 5, 8, 64, 200, 1000, 1183, 1184, 1185, 1300, 1400}

// parityPorts are the TCP and UDP destination ports a spec picks: the
// services stack's web server and DNS forwarder, a closed port, and the
// oddStack UE's two odd answers.
var parityPorts = []uint16{80, 53, 9999, 1, 2, 443}

// parityDelegLens are the lengths a Delegate or route spec picks.
var parityDelegLens = []int{36, 40, 44, 48, 52, 56, 60, 62, 64}

// parityPayload is the payload every probe carries a prefix of.
var parityPayload = func() []byte {
	b := make([]byte, 1400)
	for i := range b {
		b[i] = byte(i*7 + 3)
	}
	return b
}()

// dst derives an address from a spec: b[0] picks a structural address,
// b[1]%8 how it is varied, b[2:4] the fuzzed bits, and i (a probe's
// index in its batch) reseeds the random interface identifier.
func (n *parityNet) dst(b []byte, i int) ipv6.Addr {
	u := n.dsts[int(b[0])%len(n.dsts)].Uint128()
	x := uint64(b[2])<<8 | uint64(b[3])
	iid := mix64(x<<32 | uint64(i))
	switch b[1] % 8 {
	case 1:
		u.Lo ^= x
	case 2:
		u.Lo = iid
	case 3: // within the /56
		u.Hi, u.Lo = u.Hi^x&0xff, iid
	case 4: // within the /48
		u.Hi, u.Lo = u.Hi^x, iid
	case 5: // within the /32
		u.Hi, u.Lo = u.Hi^x<<16, iid
	case 6: // within the /60
		u.Hi, u.Lo = u.Hi^x&0xf, u.Lo^x
	case 7:
		u.Lo ^= x >> 8
	}
	return ipv6.AddrFrom128(uint128.New(u.Hi, u.Lo))
}

// mix64 is SplitMix64's finalizer.
func mix64(z uint64) uint64 {
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// probe builds the i-th probe of a batch, in the batch's cycle-th pass
// over its specs, from a 6-byte spec: b[0:4] the destination (dst),
// b[1]>>3 the payload length, b[4] the hop limit (below 0xc0 a
// parityHops entry, which rises by 2 each cycle when b[4]/12 is odd, as
// the loop detector's h and h+2 probes do), and b[5] the protocol
// (b[5]%4: echo, TCP, UDP, or an ICMPv6 error quoting an echo request),
// the source (bit 2: the scanner, or a second host on its link) and the
// port (b[5]>>3).
func (n *parityNet) probe(t *testing.T, b []byte, i, cycle int, seq uint16) []byte {
	t.Helper()
	dst := n.dst(b, i)
	hl := b[4]
	if hl < 0xc0 {
		hl = parityHops[int(hl)%len(parityHops)] + uint8(cycle)*2*(b[4]/12%2)
	}
	data := parityPayload[:paritySizes[int(b[1]>>3)%len(paritySizes)]]
	src := scannerAddr
	if b[5]&4 != 0 {
		src = otherAddr
	}
	port := parityPorts[int(b[5]>>3)%len(parityPorts)]
	var pkt []byte
	var err error
	switch b[5] % 4 {
	case 0:
		pkt, err = wire.BuildEchoRequest(src, dst, hl, 0xbeef, seq, data)
	case 1:
		flags := [...]uint8{wire.TCPSyn, wire.TCPAck | wire.TCPPsh, wire.TCPRst, wire.TCPSyn}[b[2]%4]
		pkt, err = wire.BuildTCP(src, dst, hl, wire.TCPHeader{SrcPort: 40000, DstPort: port, Seq: uint32(seq), Flags: flags, Window: 65535}, data)
	case 2:
		pkt, err = wire.BuildUDP(src, dst, hl, 40000, port, data)
	default:
		var echo []byte
		if echo, err = wire.BuildEchoRequest(dst, src, 64, 0xbeef, seq, data); err == nil {
			pkt, err = wire.BuildTimeExceeded(src, dst, hl, echo)
		}
	}
	if err != nil {
		t.Fatal(err)
	}
	return pkt
}

// delegate delegates p on the world's provider edge: to a fresh
// interface numbered inside p (b%4 == 0), to a fresh unnumbered one
// reusing the upstream address (1), or to one of the edge's connected
// interfaces (b>>2 picks it).
func (n *parityNet) delegate(p ipv6.Prefix, b byte) error {
	var out *Iface
	switch b % 4 {
	case 0:
		out = n.isp.AddIface(ipv6.SLAAC(p.Addr().Prefix64(), 1), "isp:fresh")
	case 1:
		out = n.isp.AddIface(n.isp.upstream.Addr(), "isp:unnumbered")
	default:
		ifs := n.ifaces(n.isp)
		out = ifs[int(b>>2)%len(ifs)]
	}
	return n.isp.Delegate(p, out)
}

// route changes the core's table from a 5-byte spec: b[4] < 0x80
// re-inserts the core's route to the provider block; otherwise the
// prefix of dst(b) at b[1]>>3's length is routed out one of the core's
// interfaces (b[4]%(k+1) < k) or rejected.
func (n *parityNet) route(b []byte) {
	ifs := n.ifaces(n.core)
	if b[4] < 0x80 {
		for _, ifc := range ifs {
			if ifc.Peer().node == n.isp {
				n.core.AddRoute(n.isp.Block(), ifc)
			}
		}
		return
	}
	p := ipv6.MustPrefix(n.dst(b, 0), parityDelegLens[int(b[1]>>3)%len(parityDelegLens)])
	if k := int(b[4]) % (len(ifs) + 1); k < len(ifs) {
		n.core.AddRoute(p, ifs[k])
	} else {
		n.core.AddRejectRoute(p)
	}
}

// ifaces lists node's connected interfaces in link order.
func (n *parityNet) ifaces(node Node) []*Iface {
	var out []*Iface
	for _, l := range n.eng.Links() {
		for _, ifc := range l.Ends() {
			if ifc.node == node {
				out = append(out, ifc)
			}
		}
	}
	return out
}

// fuzzBytes is a fuzz input read front to back; reads past the end
// yield zeros.
type fuzzBytes []byte

func (f *fuzzBytes) next() byte {
	if len(*f) == 0 {
		return 0
	}
	b := (*f)[0]
	*f = (*f)[1:]
	return b
}

func (f *fuzzBytes) take(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = f.next()
	}
	return b
}

// flowKey names an entry independently of its slot: a compile may grow
// the table or move the dense tails under the entries it keeps.
type flowKey struct {
	ifid   uint32
	width  uint8
	wide   bool
	hi, lo uint64
}

// flowSnap is a copy of one live entry: its hot header, tail index
// cleared, and, unless it is negative, its cold tail.
type flowSnap struct {
	hot  flowHot
	cold flowCold
}

// snapshotFlows copies every live entry.
func snapshotFlows(fp *flowCache) map[flowKey]flowSnap {
	m := map[flowKey]flowSnap{}
	for j := range fp.tags {
		if !fp.live(uint64(j)) {
			continue
		}
		f := flowSnap{hot: fp.hot[j]}
		if f.hot.kind != entryNeg {
			f.cold = fp.cold[f.hot.cold]
		}
		f.hot.cold = 0
		k := flowKey{ifid: f.hot.ifid, width: f.hot.width, wide: f.hot.wide(), hi: f.hot.hi}
		if !k.wide {
			k.lo = f.hot.lo
		}
		m[k] = f
	}
	return m
}

// checkFlowsKept holds a batch's replays to reading their entries only:
// every entry live before (nil: the batch evicted) and after is
// unchanged. It also holds every live loop entry to a turn inside its
// cycle, one some hop limit dies on.
func checkFlowsKept(t *testing.T, tag string, before, after map[flowKey]flowSnap) {
	t.Helper()
	for k, a := range after {
		if b, ok := before[k]; ok && a != b {
			t.Fatalf("%s: entry %+v changed under replay:\nbefore %+v\nafter  %+v", tag, k, b, a)
		}
		if h := a.hot; h.kind == entryLoop && (h.loopTurn >= h.loopLen || h.loopStart+h.loopLen != h.nf) {
			t.Fatalf("%s: loop entry %+v: prefix %d, cycle %d, turn %d over %d hops", tag, k, h.loopStart, h.loopLen, h.loopTurn, h.nf)
		}
	}
}

// compareNets drains both scanners and checks every observable the fast
// path promises to preserve: reply bytes (and order), per-link stats in
// both directions, engine transmission/byte/drop totals, and the
// forwarding counter of every node the links join. Events are exempt —
// fusing them is the point.
func compareNets(t testing.TB, tag string, fast, slow *Engine, fe, se *Edge) {
	t.Helper()
	fr, sr := fe.DrainInto(nil), se.DrainInto(nil)
	if len(fr) != len(sr) {
		t.Fatalf("%s: fastpath delivered %d replies, interpreted %d", tag, len(fr), len(sr))
	}
	for i := range fr {
		if string(fr[i]) != string(sr[i]) {
			t.Fatalf("%s: reply %d differs:\nfast %x\nslow %x", tag, i, fr[i], sr[i])
		}
	}
	fl, sl := fast.Links(), slow.Links()
	if len(fl) != len(sl) {
		t.Fatalf("%s: link counts differ", tag)
	}
	for i := range fl {
		fends, sends := fl[i].Ends(), sl[i].Ends()
		for end := 0; end < 2; end++ {
			if got, want := fl[i].StatsFrom(fends[end]), sl[i].StatsFrom(sends[end]); got != want {
				t.Errorf("%s: link %d dir %s: fastpath %+v, interpreted %+v", tag, i, fends[end].Name(), got, want)
			}
			fd, ok := fends[end].node.(decider)
			if !ok || fd.fw().fwd == nil {
				continue
			}
			if got, want := *fd.fw().fwd, *sends[end].node.(decider).fw().fwd; got != want {
				t.Errorf("%s: %s forwarded %d vs %d", tag, fends[end].node.Name(), got, want)
			}
		}
	}
	fc, sc := fast.Counters(), slow.Counters()
	if fc.Transmissions != sc.Transmissions || fc.Bytes != sc.Bytes || fc.Dropped != sc.Dropped {
		t.Errorf("%s: counters diverge: fastpath %+v, interpreted %+v", tag, fc, sc)
	}
}

// paritySeeds is the seed corpus, one script per world: a cold batch
// over the world's structural destinations (a loop compiled by a probe
// that dies before the cycle among them), a warm batch with other hop
// limits, sources, payload lengths and protocols, a stretch of one gap
// entry, a delegation into that gap (to a wired interface or a fresh
// unnumbered one) probed at once, a route re-insert, and the warm batch
// again.
func paritySeeds() [][]byte {
	// Specs: destination, variation|size<<3, two fuzzed bytes, hop
	// limit, protocol|source|port<<3.
	cold := [][]byte{
		{0, 0, 0, 0, 10, 0}, {11, 2, 1, 2, 10, 0}, {10, 2, 0, 0, 2, 0}, {7, 1 | 4<<3, 9, 9, 10, 2 | 2<<3},
		{1, 0, 0, 0, 10, 1}, {12, 2 | 10<<3, 4, 4, 10, 0}, {16, 2, 3, 3, 10, 0}, {17, 0, 0, 0, 10, 2 | 2<<3},
	}
	warm := [][]byte{
		{11, 2, 7, 7, 3, 4}, {10, 2 | 11<<3, 0, 0, 7, 0}, {10, 2, 0, 0, 9, 0}, {7, 1 | 8<<3, 9, 9, 4, 2 | 2<<3},
		{6, 0, 0, 0, 10, 0}, {12, 6 | 9<<3, 4, 4, 10, 0}, {17, 5 << 3, 0, 0, 10, 2 | 2<<3}, {11, 2, 7, 8, 10, 3},
	}
	var seeds [][]byte
	for w := byte(0); w < parityWorlds; w++ {
		s := []byte{w, 3 * w}
		batch := func(n byte, specs ...[]byte) {
			s = append(s, 0, n-1, byte(len(specs)-1))
			for _, sp := range specs {
				s = append(s, sp...)
			}
		}
		batch(8, cold...)
		batch(24, warm...)
		batch(6, []byte{12, 2, 1, 1, 10, 0})
		s = append(s, 4, 12, 2|6<<3, 0x11, 0x18, 1+w%2) // a /60 into the gap
		batch(16, append(warm[5:], warm[:5]...)...)     // probing it first
		s = append(s, 5, 0, 0, 0, 0, 0)                 // re-insert the core's block route
		batch(24, warm...)
		seeds = append(seeds, s)
	}
	return seeds
}
