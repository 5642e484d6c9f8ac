package netsim

import (
	"bytes"
	"slices"
	"testing"

	"repro/internal/ipv6"
	"repro/internal/services"
	"repro/internal/wire"
)

// deviceNet connects a scanner edge straight to a device interface. A
// local reply leaves by the interface its request arrived on, so the one
// link carries the whole round trip and the reply arrives unaltered.
func deviceNet(dev *Iface) (*Engine, *Edge) {
	eng := New()
	edge := NewEdge("scanner", scannerAddr)
	eng.Connect(edge.Iface(), dev)
	return eng, edge
}

// servicesStack is a device stack with a web server and a DNS forwarder.
func servicesStack() LocalStack {
	return services.NewStack(services.Config{
		Vendor:   "Vendor",
		Software: map[services.ID]string{services.SvcHTTP80: "httpd", services.SvcDNS: "dnsmasq-2.45"},
	}, []byte("local-test"))
}

// servicesCPE is a CPE whose WAN address runs servicesStack.
func servicesCPE() *CPE {
	return NewCPE(CPEConfig{Name: "svc", WANAddr: wanAddr, WANPrefix: wanPrefix, Stack: servicesStack()})
}

// parseFirstEcho is the echo responder without its two-byte gate: parse
// the whole packet, then decide.
func parseFirstEcho(self ipv6.Addr, pkt []byte) []byte {
	s, err := wire.ParsePacket(pkt)
	if err != nil || s.ICMP == nil || s.ICMP.Type != wire.ICMPEchoRequest {
		return nil
	}
	e, err := wire.ParseEcho(s.ICMP.Body)
	if err != nil {
		return nil
	}
	reply, err := wire.BuildEchoReply(self, s.IP.Src, 64, e.ID, e.Seq, e.Data)
	if err != nil {
		return nil
	}
	return reply
}

// TestLocalDeliveryIgnoresNonEcho: a device's own address, reached
// through the engine. A stackless CPE refuses non-echo traffic from the
// header bytes and answers exactly what parsing first answers — nothing
// for tool probes, errors and malformed packets, the same reply bytes
// for a valid echo request. A CPE with services hands TCP and UDP to its
// stack and answers echo byte for byte as the stackless one does.
func TestLocalDeliveryIgnoresNonEcho(t *testing.T) {
	must := func(p []byte, err error) []byte {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	echo := must(wire.BuildEchoRequest(scannerAddr, wanAddr, 64, 0x1234, 7, []byte("payload")))
	badSum := slices.Clone(echo)
	badSum[wire.HeaderLen+2] ^= 0xff
	// A bare header announcing no payload, followed by a stray Echo
	// Request type byte outside it.
	empty := slices.Clone(echo[:wire.HeaderLen+1])
	empty[4], empty[5] = 0, 0

	cases := []struct {
		name  string
		pkt   []byte
		reply bool // the stackless CPE answers
		stack int  // replies from the CPE with services
	}{
		{"tcp-syn", must(wire.BuildTCP(scannerAddr, wanAddr, 64, wire.TCPHeader{SrcPort: 40000, DstPort: 80, Seq: 9, Flags: wire.TCPSyn, Window: 65535}, nil)), false, 1},
		{"udp", must(wire.BuildUDP(scannerAddr, wanAddr, 64, 40000, 53, []byte{0x80, 1, 2, 3})), false, 0},
		{"icmp-error", must(wire.BuildTimeExceeded(scannerAddr, wanAddr, 64, echo)), false, 0},
		{"truncated", echo[:wire.HeaderLen+4], false, 0},
		{"header-only", echo[:wire.HeaderLen], false, 0},
		{"plen0-trailing-echo-type", empty, false, 0},
		{"bad-checksum", badSum, false, 0},
		{"echo", echo, true, 1},
	}
	bare, bareEdge := deviceNet(NewCPE(CPEConfig{Name: "bare", WANAddr: wanAddr, WANPrefix: wanPrefix}).WAN())
	svc, svcEdge := deviceNet(servicesCPE().WAN())
	for _, tc := range cases {
		bare.Inject(bareEdge.Iface(), tc.pkt)
		got := bareEdge.DrainInto(nil)
		want := parseFirstEcho(wanAddr, tc.pkt)
		if (len(got) == 1) != tc.reply || (want != nil) != tc.reply || len(got) > 1 {
			t.Fatalf("%s: %d replies, parse-first answers %v, want reply=%v", tc.name, len(got), want != nil, tc.reply)
		}
		if tc.reply && !bytes.Equal(got[0], want) {
			t.Errorf("%s: reply % x, parse-first % x", tc.name, got[0], want)
		}
		svc.Inject(svcEdge.Iface(), tc.pkt)
		fromStack := svcEdge.DrainInto(nil)
		if len(fromStack) != tc.stack {
			t.Fatalf("%s: the CPE with services sent %d replies, want %d", tc.name, len(fromStack), tc.stack)
		}
		if tc.reply && !bytes.Equal(fromStack[0], got[0]) {
			t.Errorf("%s: the CPE with services answered % x, the stackless one % x", tc.name, fromStack[0], got[0])
		}
	}
}

// assertWarmAllocFree fails unless a warm round trip of pkt from edge
// replays through the flow cache's local entry and allocates nothing:
// every reply is built into a pooled engine buffer, a silent stack
// hands its buffer back, and the drained replies return through
// ReleaseBufs.
func assertWarmAllocFree(t *testing.T, eng *Engine, edge *Edge, pkt []byte) {
	t.Helper()
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	var drained [][]byte
	before := eng.Counters()
	allocs := testing.AllocsPerRun(100, func() {
		eng.Inject(edge.Iface(), pkt)
		drained = edge.DrainInto(drained[:0])
		eng.ReleaseBufs(drained)
	})
	if allocs != 0 {
		t.Errorf("a round trip allocates %.1f times, want 0", allocs)
	}
	after := eng.Counters()
	// AllocsPerRun runs the function once more to warm up.
	if hits, misses := after.FastPathHits-before.FastPathHits, after.FastPathMisses-before.FastPathMisses; hits != 101 || misses != 0 {
		t.Errorf("warm round trips: %d hits, %d misses, want 101 and 0", hits, misses)
	}
}

// TestEchoToLANHostAllocFree: a ping to any node's own address — an
// operated LAN host the CPE answers for, a stackless CPE's WAN address,
// a CPE with services, a UE — comes back as exactly the reply the wire
// builder makes, and the round trip, replayed through the flow cache
// once warm, allocates nothing.
func TestEchoToLANHostAllocFree(t *testing.T) {
	uePrefix := ipv6.MustParsePrefix("2001:db8:ee00:1::/64")
	ueAddr := ipv6.SLAAC(uePrefix, 0x1234)
	cases := []struct {
		name string
		dst  ipv6.Addr
		hops uint8 // routers the reply crosses on the way back
		net  func(t *testing.T) (*Engine, *Edge)
	}{
		{"lan-host", lanHost, 2, func(t *testing.T) (*Engine, *Edge) {
			n := buildTestNet(t, CPEBehavior{}, ErrorPolicy{})
			return n.eng, n.scanner
		}},
		{"cpe-wan", wanAddr, 2, func(t *testing.T) (*Engine, *Edge) {
			n := buildTestNet(t, CPEBehavior{}, ErrorPolicy{})
			return n.eng, n.scanner
		}},
		{"services-cpe", wanAddr, 0, func(*testing.T) (*Engine, *Edge) {
			return deviceNet(servicesCPE().WAN())
		}},
		{"ue", ueAddr, 0, func(*testing.T) (*Engine, *Edge) {
			return deviceNet(NewUE("ue", ueAddr, uePrefix, nil, ErrorPolicy{}).Iface())
		}},
	}
	data := []byte("probe")
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			eng, edge := tc.net(t)
			pkt, err := wire.BuildEchoRequest(scannerAddr, tc.dst, 64, 0xbeef, 7, data)
			if err != nil {
				t.Fatal(err)
			}
			want, err := wire.BuildEchoReply(tc.dst, scannerAddr, 64, 0xbeef, 7, data)
			if err != nil {
				t.Fatal(err)
			}
			want[7] -= tc.hops
			eng.Inject(edge.Iface(), pkt)
			if got := edge.DrainInto(nil); len(got) != 1 || !bytes.Equal(got[0], want) {
				t.Fatalf("echo reply:\n got %x\nwant %x", got, want)
			}
			assertWarmAllocFree(t, eng, edge, pkt)
		})
	}
}

// TestLocalStackAllocFree: a services device answers a TCP SYN with a
// SYN/ACK and a closed UDP port with port unreachable, and stays silent
// to a reset, all without allocating once warm — the silent stack hands
// the engine buffer it was lent straight back.
func TestLocalStackAllocFree(t *testing.T) {
	must := func(p []byte, err error) []byte {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	cases := []struct {
		name  string
		pkt   []byte
		check func(s *wire.Summary) bool // nil: no reply
	}{
		{"syn", must(wire.BuildTCP(scannerAddr, wanAddr, 64, wire.TCPHeader{SrcPort: 40000, DstPort: 80, Seq: 9, Flags: wire.TCPSyn, Window: 65535}, nil)),
			func(s *wire.Summary) bool {
				return s.TCP != nil && s.TCP.Flags == wire.TCPSyn|wire.TCPAck && s.TCP.Ack == 10
			}},
		{"closed-udp", must(wire.BuildUDP(scannerAddr, wanAddr, 64, 40000, 9999, []byte("x"))),
			func(s *wire.Summary) bool {
				return s.ICMP != nil && s.ICMP.Type == wire.ICMPDestUnreach && s.ICMP.Code == wire.UnreachPort
			}},
		{"rst", must(wire.BuildTCP(scannerAddr, wanAddr, 64, wire.TCPHeader{SrcPort: 40000, DstPort: 80, Seq: 9, Flags: wire.TCPRst}, nil)), nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			eng, edge := deviceNet(servicesCPE().WAN())
			eng.Inject(edge.Iface(), tc.pkt)
			got := edge.DrainInto(nil)
			if tc.check == nil {
				if len(got) != 0 {
					t.Fatalf("%d replies, want none", len(got))
				}
			} else if len(got) != 1 {
				t.Fatalf("%d replies, want 1", len(got))
			} else if s, err := wire.ParsePacket(got[0]); err != nil || s.IP.Src != wanAddr || s.IP.HopLimit != 64 || !tc.check(s) {
				t.Fatalf("reply % x (%v)", got[0], err)
			}
			assertWarmAllocFree(t, eng, edge, tc.pkt)
		})
	}
}
