package netsim

import (
	"testing"

	"repro/internal/ipv6"
	"repro/internal/wire"
)

// testNet is the canonical small topology of the paper's Figure 1a:
//
//	scanner(edge) -- core(router) -- isp(ISPRouter) -- cpe(CPE)
//
// The ISP block is 2001:db8::/32; the CPE holds WAN /64
// 2001:db8:1234:5678::/64 and delegated LAN /60 2001:db8:4321:8760::/60
// with in-use subnet 2001:db8:4321:8765::/64 — the paper's running
// example addresses.
type testNet struct {
	eng     *Engine
	scanner *Edge
	core    *Router
	isp     *ISPRouter
	cpe     *CPE
	ispLink *Link // core <-> isp
	cpeLink *Link // isp <-> cpe
}

var (
	scannerAddr = ipv6.MustParseAddr("2001:beef::100")
	ispBlock    = ipv6.MustParsePrefix("2001:db8::/32")
	wanPrefix   = ipv6.MustParsePrefix("2001:db8:1234:5678::/64")
	wanAddr     = ipv6.MustParseAddr("2001:db8:1234:5678:0211:22ff:fe33:4455")
	lanDeleg    = ipv6.MustParsePrefix("2001:db8:4321:8760::/60")
	lanSubnet   = ipv6.MustParsePrefix("2001:db8:4321:8765::/64")
	lanAddr     = ipv6.MustParseAddr("2001:db8:4321:8765::1")
	lanHost     = ipv6.MustParseAddr("2001:db8:4321:8765::42")
)

func buildTestNet(t testing.TB, behavior CPEBehavior, ispPolicy ErrorPolicy) *testNet {
	t.Helper()
	n := &testNet{eng: New()}

	n.scanner = NewEdge("scanner", scannerAddr)
	n.core = NewRouter("core", ErrorPolicy{})
	n.isp = NewISPRouter("isp", ispBlock, ispPolicy)
	n.cpe = NewCPE(CPEConfig{
		Name:      "cpe-1",
		WANAddr:   wanAddr,
		WANPrefix: wanPrefix,
		Delegated: lanDeleg,
		Subnets:   []ipv6.Prefix{lanSubnet},
		LANAddr:   lanAddr,
		Hosts:     []ipv6.Addr{lanHost},
		Behavior:  behavior,
	})

	coreToScan := n.core.AddIface(ipv6.MustParseAddr("2001:beef::1"), "core:scan")
	coreToISP := n.core.AddIface(ipv6.MustParseAddr("2001:db8:fffe::1"), "core:isp")
	ispUp := n.isp.AddIface(ipv6.MustParseAddr("2001:db8:fffe::2"), "isp:up")
	// The provider-side address of the WAN point-to-point subnet.
	ispDown := n.isp.AddIface(ipv6.MustParseAddr("2001:db8:1234:5678::1"), "isp:cpe1")

	n.eng.Connect(n.scanner.Iface(), coreToScan)
	n.ispLink = n.eng.Connect(coreToISP, ispUp)
	n.cpeLink = n.eng.Connect(ispDown, n.cpe.WAN())

	n.core.AddRoute(ispBlock, coreToISP)
	n.core.AddRoute(ipv6.MustParsePrefix("2001:beef::/64"), coreToScan)
	n.isp.SetUpstream(ispUp)
	if err := n.isp.Delegate(wanPrefix, ispDown); err != nil {
		t.Fatal(err)
	}
	if err := n.isp.Delegate(lanDeleg, ispDown); err != nil {
		t.Fatal(err)
	}
	return n
}

// probe sends an echo request from the scanner and returns decoded
// replies received back at the scanner.
func (n *testNet) probe(t *testing.T, dst ipv6.Addr, hopLimit uint8) []*wire.Summary {
	t.Helper()
	pkt, err := wire.BuildEchoRequest(scannerAddr, dst, hopLimit, 0xbeef, 1, []byte("probe"))
	if err != nil {
		t.Fatal(err)
	}
	n.eng.Inject(n.scanner.Iface(), pkt)
	var out []*wire.Summary
	for _, raw := range n.scanner.DrainInto(nil) {
		s, err := wire.ParsePacket(raw)
		if err != nil {
			t.Fatalf("undecodable packet at scanner: %v", err)
		}
		out = append(out, s)
	}
	return out
}

func TestProbeNXLANAddressExposesCPE(t *testing.T) {
	n := buildTestNet(t, CPEBehavior{}, ErrorPolicy{})
	// Paper: NX Host Address within the delegated LAN subnet.
	nx := ipv6.SLAAC(lanSubnet, 0xdeadbeefcafef00d)
	replies := n.probe(t, nx, 64)
	if len(replies) != 1 {
		t.Fatalf("got %d replies, want 1", len(replies))
	}
	r := replies[0]
	if r.ICMP == nil || r.ICMP.Type != wire.ICMPDestUnreach {
		t.Fatalf("reply type %+v, want dest unreachable", r.ICMP)
	}
	if r.IP.Src != wanAddr {
		t.Errorf("error source = %s, want CPE WAN address %s", r.IP.Src, wanAddr)
	}
	inv, err := wire.ParseInvoking(r.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if inv.IP.Dst != nx || inv.EchoID != 0xbeef {
		t.Errorf("invoking packet mismatch: %+v", inv)
	}
}

func TestProbeNXWANAddressExposesCPE(t *testing.T) {
	n := buildTestNet(t, CPEBehavior{}, ErrorPolicy{})
	nx := ipv6.SLAAC(wanPrefix, 0x1122334455667788)
	replies := n.probe(t, nx, 64)
	if len(replies) != 1 {
		t.Fatalf("got %d replies, want 1", len(replies))
	}
	if replies[0].IP.Src != wanAddr {
		t.Errorf("error source = %s, want %s", replies[0].IP.Src, wanAddr)
	}
	if replies[0].ICMP.Code != wire.UnreachAddress {
		t.Errorf("code = %d, want address-unreachable", replies[0].ICMP.Code)
	}
}

func TestProbeNotUsedPrefixCorrectCPE(t *testing.T) {
	n := buildTestNet(t, CPEBehavior{}, ErrorPolicy{})
	// An address in the delegated /60 but outside the in-use subnet.
	notUsed := ipv6.MustParseAddr("2001:db8:4321:8769::77")
	replies := n.probe(t, notUsed, 64)
	if len(replies) != 1 {
		t.Fatalf("got %d replies, want 1", len(replies))
	}
	if replies[0].ICMP.Type != wire.ICMPDestUnreach {
		t.Errorf("type = %d", replies[0].ICMP.Type)
	}
	// Correct CPE: no loop, exactly one traversal each way on the access link.
	if got := n.cpeLink.TotalPackets(); got != 2 {
		t.Errorf("access link carried %d packets, want 2", got)
	}
}

func TestRoutingLoopOnNotUsedPrefix(t *testing.T) {
	n := buildTestNet(t, CPEBehavior{VulnLAN: true}, ErrorPolicy{})
	notUsed := ipv6.MustParseAddr("2001:db8:4321:8769::77")
	replies := n.probe(t, notUsed, 255)
	// The packet ping-pongs until hop limit exhaustion, then a Time
	// Exceeded error comes back.
	if len(replies) != 1 {
		t.Fatalf("got %d replies, want 1 time-exceeded", len(replies))
	}
	if replies[0].ICMP.Type != wire.ICMPTimeExceeded {
		t.Errorf("reply type = %d, want time exceeded", replies[0].ICMP.Type)
	}
	// Hops scanner->core->isp consume 2; ~253 remain for the loop, so the
	// access link carries ~253 copies of the probe (plus nothing else).
	if got := n.cpeLink.TotalPackets(); got < 200 {
		t.Errorf("access link carried %d packets, want >200 (amplification)", got)
	}
}

func TestRoutingLoopOnWANPrefix(t *testing.T) {
	n := buildTestNet(t, CPEBehavior{VulnWAN: true}, ErrorPolicy{})
	nx := ipv6.SLAAC(wanPrefix, 0xdeadbeef00112233)
	n.probe(t, nx, 255)
	if got := n.cpeLink.TotalPackets(); got < 200 {
		t.Errorf("access link carried %d packets, want >200", got)
	}
}

func TestLoopCapBoundsForwarding(t *testing.T) {
	n := buildTestNet(t, CPEBehavior{VulnLAN: true, LoopCap: 10}, ErrorPolicy{})
	notUsed := ipv6.MustParseAddr("2001:db8:4321:8769::77")
	n.probe(t, notUsed, 255)
	got := n.cpeLink.TotalPackets()
	// Inbound copies: initial + cap re-entries; outbound: cap. Expect far
	// fewer than the unbounded ~253, but more than 10.
	if got < 11 || got > 30 {
		t.Errorf("access link carried %d packets with LoopCap=10", got)
	}
}

func TestEchoToCPEWANAddress(t *testing.T) {
	n := buildTestNet(t, CPEBehavior{}, ErrorPolicy{})
	replies := n.probe(t, wanAddr, 64)
	if len(replies) != 1 || replies[0].ICMP.Type != wire.ICMPEchoReply {
		t.Fatalf("replies = %+v", replies)
	}
	if replies[0].IP.Src != wanAddr {
		t.Errorf("echo reply source = %s", replies[0].IP.Src)
	}
}

func TestEchoToLANHost(t *testing.T) {
	n := buildTestNet(t, CPEBehavior{}, ErrorPolicy{})
	replies := n.probe(t, lanHost, 64)
	if len(replies) != 1 || replies[0].ICMP.Type != wire.ICMPEchoReply {
		t.Fatalf("replies = %+v", replies)
	}
	if replies[0].IP.Src != lanHost {
		t.Errorf("host reply source = %s", replies[0].IP.Src)
	}
}

func TestUnassignedSpaceAnsweredByISP(t *testing.T) {
	n := buildTestNet(t, CPEBehavior{}, ErrorPolicy{})
	// A /64 in the block delegated to nobody.
	replies := n.probe(t, ipv6.MustParseAddr("2001:db8:aaaa:bbbb::1"), 64)
	if len(replies) != 1 {
		t.Fatalf("got %d replies", len(replies))
	}
	if replies[0].IP.Src != ipv6.MustParseAddr("2001:db8:fffe::2") {
		t.Errorf("error source = %s, want ISP upstream iface", replies[0].IP.Src)
	}
}

func TestISPErrorSuppression(t *testing.T) {
	n := buildTestNet(t, CPEBehavior{}, ErrorPolicy{Suppress: true})
	replies := n.probe(t, ipv6.MustParseAddr("2001:db8:aaaa:bbbb::1"), 64)
	if len(replies) != 0 {
		t.Fatalf("suppressed ISP still replied: %d", len(replies))
	}
	// CPE-originated errors still flow.
	replies = n.probe(t, ipv6.SLAAC(lanSubnet, 12345), 64)
	if len(replies) != 1 {
		t.Fatalf("CPE error did not arrive: %d", len(replies))
	}
}

func TestHopLimitExhaustionMidPath(t *testing.T) {
	n := buildTestNet(t, CPEBehavior{}, ErrorPolicy{})
	// Hop limit 1: dies at the core router.
	replies := n.probe(t, wanAddr, 1)
	if len(replies) != 1 || replies[0].ICMP.Type != wire.ICMPTimeExceeded {
		t.Fatalf("replies = %+v", replies)
	}
	if replies[0].IP.Src != ipv6.MustParseAddr("2001:beef::1") {
		t.Errorf("time exceeded from %s, want core", replies[0].IP.Src)
	}
	// Hop limit 2: dies at the ISP router.
	replies = n.probe(t, wanAddr, 2)
	if len(replies) != 1 || replies[0].IP.Src != ipv6.MustParseAddr("2001:db8:fffe::2") {
		t.Fatalf("replies = %+v", replies)
	}
	// Hop limit 3: reaches the CPE.
	replies = n.probe(t, wanAddr, 3)
	if len(replies) != 1 || replies[0].ICMP.Type != wire.ICMPEchoReply {
		t.Fatalf("replies = %+v", replies)
	}
}

func TestNoErrorForICMPError(t *testing.T) {
	// An ICMPv6 error to a nonexistent destination must not trigger
	// another error (RFC 4443 2.4e) — otherwise loops would storm.
	n := buildTestNet(t, CPEBehavior{}, ErrorPolicy{})
	inner, err := wire.BuildEchoRequest(scannerAddr, lanHost, 64, 1, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	errPkt, err := wire.BuildDestUnreach(scannerAddr, ipv6.SLAAC(lanSubnet, 999), 64, 0, inner)
	if err != nil {
		t.Fatal(err)
	}
	n.eng.Inject(n.scanner.Iface(), errPkt)
	if got := n.scanner.Pending(); got != 0 {
		t.Errorf("received %d replies to an ICMP error probe", got)
	}
}

func TestEchoToISPAndCoreInterfaces(t *testing.T) {
	n := buildTestNet(t, CPEBehavior{}, ErrorPolicy{})
	for _, target := range []string{"2001:beef::1", "2001:db8:fffe::2", "2001:db8:1234:5678::1"} {
		replies := n.probe(t, ipv6.MustParseAddr(target), 64)
		if len(replies) != 1 || replies[0].ICMP.Type != wire.ICMPEchoReply {
			t.Errorf("ping %s: replies = %+v", target, replies)
		}
	}
}

func TestUEUnreachableAndEcho(t *testing.T) {
	eng := New()
	uePrefix := ipv6.MustParsePrefix("2001:db8:abcd:ef12::/64")
	ueAddr := ipv6.SLAAC(uePrefix, 0x0211_22ff_fe33_4455)
	ue := NewUE("ue-1", ueAddr, uePrefix, nil, ErrorPolicy{})
	scan := NewEdge("scan", scannerAddr)
	bs := NewRouter("base-station", ErrorPolicy{})
	bsUp := bs.AddIface(ipv6.MustParseAddr("2001:db8:abcd::1"), "bs:up")
	bsDown := bs.AddIface(ipv6.MustParseAddr("2001:db8:abcd::2"), "bs:ue")
	eng.Connect(scan.Iface(), bsUp)
	eng.Connect(bsDown, ue.Iface())
	bs.AddRoute(uePrefix, bsDown)
	bs.AddRoute(ipv6.MustParsePrefix("2001:beef::/64"), bsUp)

	// NX address in the UE prefix -> unreachable from the UE itself.
	nx := ipv6.SLAAC(uePrefix, 0x9999888877776666)
	pkt, err := wire.BuildEchoRequest(scannerAddr, nx, 64, 5, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	eng.Inject(scan.Iface(), pkt)
	drained := scan.DrainInto(nil)
	if len(drained) != 1 {
		t.Fatalf("got %d replies", len(drained))
	}
	s, err := wire.ParsePacket(drained[0])
	if err != nil {
		t.Fatal(err)
	}
	if s.IP.Src != ueAddr || s.ICMP.Type != wire.ICMPDestUnreach {
		t.Errorf("reply = src %s type %d", s.IP.Src, s.ICMP.Type)
	}

	// Echo to the UE's own address.
	pkt, err = wire.BuildEchoRequest(scannerAddr, ueAddr, 64, 6, 6, nil)
	if err != nil {
		t.Fatal(err)
	}
	eng.Inject(scan.Iface(), pkt)
	drained = scan.DrainInto(nil)
	if len(drained) != 1 {
		t.Fatalf("got %d replies", len(drained))
	}
	s, err = wire.ParsePacket(drained[0])
	if err != nil {
		t.Fatal(err)
	}
	if s.ICMP.Type != wire.ICMPEchoReply {
		t.Errorf("type = %d", s.ICMP.Type)
	}
}

func TestDelegateValidation(t *testing.T) {
	isp := NewISPRouter("isp", ispBlock, ErrorPolicy{})
	if _, ok := isp.lookup(ipv6.MustParseAddr("2001:db8::1")); ok {
		t.Error("a router with no delegations resolved a lookup")
	}
	out := isp.AddIface(ipv6.MustParseAddr("2001:db8::1"), "x")
	if err := isp.Delegate(ipv6.MustParsePrefix("2001:db9::/48"), out); err == nil {
		t.Error("delegation outside block accepted")
	}
	if err := isp.Delegate(ipv6.MustParsePrefix("2001:db8::/32"), out); err == nil {
		t.Error("delegation of whole block accepted")
	}
	for _, p := range []string{"2001:db8:4321:8765::/65", "2001:db8:4321:8765::1/128"} {
		if err := isp.Delegate(ipv6.MustParsePrefix(p), out); err == nil {
			t.Errorf("delegation %s longer than /64 accepted", p)
		}
	}
	if err := isp.Delegate(wanPrefix, out); err != nil {
		t.Errorf("valid delegation rejected: %v", err)
	}
	if isp.DelegationCount() != 1 {
		t.Errorf("DelegationCount = %d", isp.DelegationCount())
	}
}

// TestEventBudgetBoundsRunaway: even a deliberately unterminated loop
// (max hop limit, vulnerable CPE, huge event budget not needed) cannot
// exceed the engine's budget.
func TestEventBudgetBounds(t *testing.T) {
	n := buildTestNet(t, CPEBehavior{VulnLAN: true}, ErrorPolicy{})
	before := n.eng.Counters().Events
	n.probe(t, ipv6.MustParseAddr("2001:db8:4321:8769::77"), 255)
	used := n.eng.Counters().Events - before
	// 255 hop limit bounds the loop regardless of budget.
	if used > 600 {
		t.Errorf("one loop probe consumed %d events", used)
	}
}

// TestEngineDeterminism: identical injections produce identical traffic
// counters.
func TestEngineDeterminism(t *testing.T) {
	run := func() uint64 {
		n := buildTestNet(t, CPEBehavior{VulnLAN: true}, ErrorPolicy{})
		for i := 0; i < 20; i++ {
			n.probe(t, ipv6.SLAAC(lanSubnet, uint64(1000+i)), 64)
		}
		return n.cpeLink.TotalPackets()
	}
	if a, b := run(), run(); a != b {
		t.Errorf("runs diverged: %d vs %d packets", a, b)
	}
}

// TestUnconnectedIfaceDropsSilently: emissions into the void must not
// crash or enqueue.
func TestUnconnectedIfaceDrops(t *testing.T) {
	eng := New()
	edge := NewEdge("lonely", ipv6.MustParseAddr("fd00::1"))
	pkt, err := wire.BuildEchoRequest(edge.Addr(), ipv6.MustParseAddr("fd00::2"), 64, 1, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n := eng.Inject(edge.Iface(), pkt); n != 0 {
		t.Errorf("processed %d events on an unconnected interface", n)
	}
}

// TestGarbageThroughRouters: malformed frames traverse without panics.
func TestGarbageThroughRouters(t *testing.T) {
	n := buildTestNet(t, CPEBehavior{}, ErrorPolicy{})
	for i := 0; i < 2000; i++ {
		b := make([]byte, i%120)
		for j := range b {
			b[j] = byte(i * 31 / (j + 1))
		}
		n.eng.Inject(n.scanner.Iface(), b)
	}
	n.scanner.DrainInto(nil)
}

func TestInjectBatch(t *testing.T) {
	n := buildTestNet(t, CPEBehavior{}, ErrorPolicy{})
	var pkts [][]byte
	for i := 0; i < 5; i++ {
		pkt, err := wire.BuildEchoRequest(scannerAddr, wanAddr, 64, uint16(i), 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		pkts = append(pkts, pkt)
	}
	n.eng.InjectBatch(n.scanner.Iface(), pkts)
	if got := len(n.scanner.DrainInto(nil)); got != 5 {
		t.Errorf("batch got %d replies", got)
	}
}

func TestRejectRoute(t *testing.T) {
	n := buildTestNet(t, CPEBehavior{}, ErrorPolicy{})
	n.core.AddRejectRoute(ipv6.MustParsePrefix("2001:bad::/32"))
	replies := n.probe(t, ipv6.MustParseAddr("2001:bad::1"), 64)
	if len(replies) != 1 || replies[0].ICMP.Type != wire.ICMPDestUnreach {
		t.Fatalf("replies = %+v", replies)
	}
}

func TestIfaceAccessors(t *testing.T) {
	n := buildTestNet(t, CPEBehavior{}, ErrorPolicy{})
	ifc := n.scanner.Iface()
	if ifc.Node() != n.scanner || ifc.Addr() != scannerAddr {
		t.Error("iface accessors broken")
	}
	if ifc.Name() == "" || ifc.Peer() == nil {
		t.Error("name/peer broken")
	}
	if ifc.Peer().Node().Name() != "core" {
		t.Errorf("peer node = %s", ifc.Peer().Node().Name())
	}
	lonely := NewIface(n.scanner, scannerAddr, "x")
	if lonely.Peer() != nil {
		t.Error("unconnected iface has a peer")
	}
	// Link accessors.
	ends := n.cpeLink.Ends()
	st := n.cpeLink.StatsFrom(ends[0])
	_ = st
	defer func() {
		if recover() == nil {
			t.Error("StatsFrom on foreign iface did not panic")
		}
	}()
	n.cpeLink.StatsFrom(lonely)
}

func TestNodeNames(t *testing.T) {
	n := buildTestNet(t, CPEBehavior{}, ErrorPolicy{})
	if n.core.Name() != "core" || n.isp.Name() != "isp" || n.cpe.Name() != "cpe-1" || n.scanner.Name() != "scanner" {
		t.Error("names broken")
	}
	if n.isp.Block() != ispBlock {
		t.Error("Block() broken")
	}
	if n.cpe.WANAddr() != wanAddr || n.cpe.Behavior() != (CPEBehavior{}) {
		t.Error("CPE accessors broken")
	}
	v4r := NewV4Router("r4")
	if v4r.Name() != "r4" {
		t.Error("v4 router name")
	}
	nat := NewNATGateway("nat", wire.IPv4AddrFrom(1, 2, 3, 4), nil)
	if nat.Name() != "nat" || nat.Public() != wire.IPv4AddrFrom(1, 2, 3, 4) {
		t.Error("NAT accessors broken")
	}
}

func TestUEDropsTransitAndExhaustsHops(t *testing.T) {
	eng := New()
	uePrefix := ipv6.MustParsePrefix("2001:db8:abcd:ef12::/64")
	ueAddr := ipv6.SLAAC(uePrefix, 0x1234)
	ue := NewUE("ue", ueAddr, uePrefix, nil, ErrorPolicy{})
	scan := NewEdge("s", scannerAddr)
	eng.Connect(scan.Iface(), ue.Iface())

	// Hop limit 1 to an in-prefix NX address: time exceeded from the UE.
	pkt, err := wire.BuildEchoRequest(scannerAddr, ipv6.SLAAC(uePrefix, 0x9999), 1, 1, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	eng.Inject(scan.Iface(), pkt)
	got := scan.DrainInto(nil)
	if len(got) != 1 {
		t.Fatalf("got %d replies", len(got))
	}
	s, err := wire.ParsePacket(got[0])
	if err != nil || s.ICMP.Type != wire.ICMPTimeExceeded {
		t.Fatalf("reply = %+v, %v", s, err)
	}

	// A destination outside the UE prefix: dropped (UEs do not transit).
	pkt, err = wire.BuildEchoRequest(scannerAddr, ipv6.MustParseAddr("2001:db9::1"), 64, 1, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	eng.Inject(scan.Iface(), pkt)
	if got := len(scan.DrainInto(nil)); got != 0 {
		t.Errorf("UE transited %d packets", got)
	}
}

func TestV4MaskEdges(t *testing.T) {
	a := wire.IPv4AddrFrom(10, 1, 2, 3)
	if maskV4(a, 0) != 0 {
		t.Error("mask 0")
	}
	if maskV4(a, 32) != a {
		t.Error("mask 32")
	}
	if maskV4(a, 8) != wire.IPv4AddrFrom(10, 0, 0, 0) {
		t.Error("mask 8")
	}
}
