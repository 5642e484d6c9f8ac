package netsim

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/ipv6"
	"repro/internal/uint128"
	"repro/internal/wire"
)

// benchNet is edge <-> core <-> responder: two hops each way, so one
// probe costs four events — enough to exercise the queue and the pool.
func buildBenchNet(b *testing.B) (*Engine, *Edge, ipv6.Addr) {
	b.Helper()
	eng := New()
	edge := NewEdge("e", ipv6.MustParseAddr("2001:beef::100"))
	core := NewRouter("core", ErrorPolicy{})
	dst := NewRouter("dst", ErrorPolicy{})
	coreScan := core.AddIface(ipv6.MustParseAddr("2001:beef::1"), "core:scan")
	coreDst := core.AddIface(ipv6.MustParseAddr("2001:face::1"), "core:dst")
	dstUp := dst.AddIface(ipv6.MustParseAddr("2001:100::1"), "dst:up")
	eng.Connect(edge.Iface(), coreScan)
	eng.Connect(coreDst, dstUp)
	core.AddRoute(ipv6.MustParsePrefix("2001:100::/32"), coreDst)
	core.AddRoute(ipv6.MustParsePrefix("2001:beef::/64"), coreScan)
	return eng, edge, dstUp.Addr()
}

// BenchmarkEnginePump measures the event pump with deliveries in
// enqueue order (ordered) and with the fault layer deferring every
// other delivery (disordered). The probe is an echo to the responder
// router's own address, which the flow cache replays as a local entry,
// so the fast path is off: every probe is pumped hop by hop
// (BenchmarkEngineLocalRoundTrip times the replay).
func BenchmarkEnginePump(b *testing.B) {
	run := func(b *testing.B, disorder bool) {
		eng, edge, dst := buildBenchNet(b)
		eng.SetFastPath(false)
		if disorder {
			flip := false
			defer2 := []int{2} // hoisted: the engine reads, never retains
			eng.SetFault(func(from *Iface, pkt []byte) FaultOutcome {
				flip = !flip
				if flip {
					return FaultOutcome{Deliveries: defer2}
				}
				return FaultOutcome{}
			})
		}
		pkt, err := wire.BuildEchoRequest(edge.Addr(), dst, 64, 7, 1, nil)
		if err != nil {
			b.Fatal(err)
		}
		// Drain like the scanner does: into a reused slice, handing the
		// exhausted reply buffers back to the engine pool, so the steady
		// state is allocation-free end to end.
		var rx [][]byte
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			eng.Inject(edge.Iface(), pkt)
			if i%256 == 0 {
				rx = edge.DrainInto(rx[:0])
				eng.ReleaseBufs(rx)
			}
		}
		b.StopTimer()
		edge.DrainInto(nil)
	}
	b.Run("ordered", func(b *testing.B) { run(b, false) })
	b.Run("disordered", func(b *testing.B) { run(b, true) })
}

// BenchmarkEngineLocalRoundTrip times one warm TCP SYN to a services
// CPE two hops from the scanner and its SYN/ACK back, the follow-up
// tools' unit of work, replayed through the flow cache's local entry
// (cache=on) and interpreted hop by hop (cache=off).
func BenchmarkEngineLocalRoundTrip(b *testing.B) {
	for _, on := range []bool{true, false} {
		name := "cache=on"
		if !on {
			name = "cache=off"
		}
		b.Run(name, func(b *testing.B) {
			n := buildLocalNet(b)
			n.eng.SetFastPath(on)
			syn, err := wire.BuildTCP(scannerAddr, svcWAN, 64, wire.TCPHeader{SrcPort: 40000, DstPort: 80, Seq: 9, Flags: wire.TCPSyn, Window: 65535}, nil)
			if err != nil {
				b.Fatal(err)
			}
			var rx [][]byte
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				n.eng.Inject(n.scanner.Iface(), syn)
				rx = n.scanner.DrainInto(rx[:0])
				n.eng.ReleaseBufs(rx)
			}
			b.StopTimer()
			if len(rx) != 1 {
				b.Fatalf("%d replies to the last SYN, want 1", len(rx))
			}
		})
	}
}

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

// BenchmarkEngineInjectColdSparse measures the cold sweep the paper's
// scan is: one probe into every /60 cell of a sparse window (2^16 cells,
// 1024 subscribers holding a delegated /60 each plus a WAN /64 in a side
// region, so the ISP's finest table is /64), in permuted order through
// 64-probe InjectBatch bursts, against a fresh engine — every flow entry
// is compiled during the timed pass. hit_share is the fraction of probes
// served from an entry an earlier probe of the same pass compiled.
func BenchmarkEngineInjectColdSparse(b *testing.B) {
	delegs, pkts := coldSparseFixture(b)
	var rx [][]byte
	var total Counters
	b.ReportAllocs()
	b.ResetTimer()
	for done := 0; done < b.N; {
		b.StopTimer()
		n := buildSparseNet(b, sparseBlock, delegs)
		pass := pkts[:min(len(pkts), b.N-done)]
		b.StartTimer()
		rx = n.sweep(pass, rx)
		done += len(pass)
		b.StopTimer()
		c := n.eng.Counters()
		total.Events += c.Events
		total.FastPathHits += c.FastPathHits
		total.FastPathMisses += c.FastPathMisses
		b.StartTimer()
	}
	b.ReportMetric(float64(total.Events)/float64(b.N), "events/probe")
	b.ReportMetric(float64(total.FastPathHits)/float64(total.FastPathHits+total.FastPathMisses), "hit_share")
}

// coldSparseFixture returns BenchmarkEngineInjectColdSparse's window:
// the delegations (a /60 plus a side WAN /64 for each of 1024
// subscribers) and one echo request into every /60 cell of the 2^16,
// in permuted order.
func coldSparseFixture(tb testing.TB) ([]ipv6.Prefix, [][]byte) {
	tb.Helper()
	const winBits, subscribers = 16, 1024
	rng := rand.New(rand.NewSource(1))
	cells := rng.Perm(1 << winBits)
	var delegs []ipv6.Prefix
	for i, c := range cells[:subscribers] {
		for _, sub := range []struct {
			bits int
			idx  uint64
		}{{60, uint64(c)}, {64, 16<<winBits + uint64(i)}} {
			p, err := sparseBlock.Sub(sub.bits, uint128.From64(sub.idx))
			if err != nil {
				tb.Fatal(err)
			}
			delegs = append(delegs, p)
		}
	}
	base := sparseBlock.Addr().Uint128().Hi
	pkts := make([][]byte, 1<<winBits)
	for i, c := range rng.Perm(len(pkts)) {
		dst := ipv6.AddrFrom128(uint128.New(base|uint64(c)<<4|uint64(rng.Intn(16)), rng.Uint64()|1))
		pkt, err := wire.BuildEchoRequest(scannerAddr, dst, 64, 7, uint16(i), nil)
		if err != nil {
			tb.Fatal(err)
		}
		pkts[i] = pkt
	}
	return delegs, pkts
}

// sweep injects pkts from the scanner in 64-probe InjectBatch bursts,
// draining and recycling the replies after each, and returns the drain
// slice for reuse.
func (n *sparseNet) sweep(pkts, rx [][]byte) [][]byte {
	const burst = 64
	for len(pkts) > 0 {
		k := min(burst, len(pkts))
		n.eng.InjectBatch(n.scanner.Iface(), pkts[:k])
		rx = n.scanner.DrainInto(rx[:0])
		n.eng.ReleaseBufs(rx)
		pkts = pkts[k:]
	}
	return rx
}

// BenchmarkFlowCacheLookupGap measures flowCache.lookup against a block's
// gap flow whose emptiness index holds 4,096 spans (a 2^16-cell window,
// one /60 in sixteen delegated). "hit" looks up unassigned space: key
// match, one index search, served. "shadowed" alternates those with
// lookups of delegated space, which the gap flow refuses so the lookup
// goes on to the delegation's own entry at the next width — alternating
// because the probe order follows the hits, and in a sweep the gap
// flow's width stays first; its ns/op is the mean of one of each.
func BenchmarkFlowCacheLookupGap(b *testing.B) {
	const winBits, subscribers = 16, 4096
	rng := rand.New(rand.NewSource(1))
	cells := rng.Perm(1 << winBits)
	delegs := make([]ipv6.Prefix, subscribers)
	for i, c := range cells[:subscribers] {
		p, err := sparseBlock.Sub(60, uint128.From64(uint64(c)))
		if err != nil {
			b.Fatal(err)
		}
		delegs[i] = p
	}
	n := buildSparseNet(b, sparseBlock, delegs)
	base := sparseBlock.Addr().Uint128().Hi
	// One probe compiles the gap flow, one per subscriber its /60 (the
	// sixth /64: the first is the CPE's WAN subnet, a hole of that entry).
	warm := func(hi uint64) {
		pkt, err := wire.BuildEchoRequest(scannerAddr, ipv6.AddrFrom128(uint128.New(hi, 1)), 64, 7, 1, nil)
		if err != nil {
			b.Fatal(err)
		}
		n.eng.Inject(n.scanner.Iface(), pkt)
	}
	warm(base | uint64(cells[subscribers])<<4)
	for _, c := range cells[:subscribers] {
		warm(base | uint64(c)<<4 | 5)
	}
	n.scanner.DrainInto(nil)
	if got := len(n.isp.gaps.spans); got != subscribers {
		b.Fatalf("index holds %d spans for %d delegations", got, subscribers)
	}
	fp, ifid := &n.eng.fp, n.scanner.Iface().Peer().fpID
	// his[2i] is unassigned, his[2i+1] delegated.
	his := make([]uint64, 1<<13)
	for i := range his {
		from, sub := cells[subscribers:], uint64(0)
		if i&1 == 1 {
			from, sub = cells[:subscribers], 5
		}
		his[i] = base | uint64(from[rng.Intn(len(from))])<<4 | sub
		if j := fp.lookup(ifid, his[i], 9); j < 0 || (fp.hot[j].gaps != nil) != (i&1 == 0) {
			b.Fatalf("lookup(%x) = slot %d, want a hit on a gap flow = %v", his[i], j, i&1 == 0)
		}
	}
	run := func(b *testing.B, step int) {
		sink := 0
		for i, k := 0, 0; i < b.N; i, k = i+1, (k+step)&(len(his)-1) {
			sink += fp.lookup(ifid, his[k], uint64(i)|1)
		}
		benchSink = sink
	}
	b.Run("hit", func(b *testing.B) { run(b, 2) })
	b.Run("shadowed", func(b *testing.B) { run(b, 1) })
}

// benchSink keeps benchmarked results alive.
var benchSink int
