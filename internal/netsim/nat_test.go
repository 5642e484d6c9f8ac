package netsim

import (
	"testing"

	"repro/internal/ipv6"
	"repro/internal/wire"
)

// v4Net: scanner(edge) -- v4 ISP router -- NAT gateway (public addr,
// private hosts behind it).
type v4Net struct {
	eng     *Engine
	scanner *Edge
	isp     *V4Router
	nat     *NATGateway
	public  wire.IPv4Addr
	private wire.IPv4Addr
	scanV4  wire.IPv4Addr
}

func buildV4Net(t *testing.T) *v4Net {
	t.Helper()
	n := &v4Net{
		eng:     New(),
		public:  wire.IPv4AddrFrom(203, 0, 113, 42),
		private: wire.IPv4AddrFrom(192, 168, 1, 10),
		scanV4:  wire.IPv4AddrFrom(198, 51, 100, 7),
	}
	n.scanner = NewEdge("scanner4", ipv6.V4Mapped(uint32(n.scanV4)))
	n.isp = NewV4Router("isp4")
	n.nat = NewNATGateway("home-nat", n.public, []wire.IPv4Addr{n.private})

	up := n.isp.AddIface4(wire.IPv4AddrFrom(198, 51, 100, 1), "isp:up")
	down := n.isp.AddIface4(wire.IPv4AddrFrom(203, 0, 113, 1), "isp:down")
	n.eng.Connect(n.scanner.Iface(), up)
	n.eng.Connect(down, n.nat.WAN())
	n.isp.AddRoute4(n.public, 32, down)
	n.isp.AddRoute4(n.scanV4, 32, up)
	return n
}

func (n *v4Net) ping(t *testing.T, dst wire.IPv4Addr, ttl uint8) []*wire.Summary4 {
	t.Helper()
	pkt, err := wire.BuildEchoRequest4(n.scanV4, dst, ttl, 0x77, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	n.eng.Inject(n.scanner.Iface(), pkt)
	var out []*wire.Summary4
	for _, raw := range n.scanner.DrainInto(nil) {
		s, err := wire.ParsePacket4(raw)
		if err != nil {
			t.Fatalf("bad packet: %v", err)
		}
		out = append(out, s)
	}
	return out
}

func TestNATPublicAddressAnswers(t *testing.T) {
	n := buildV4Net(t)
	replies := n.ping(t, n.public, 64)
	if len(replies) != 1 || replies[0].ICMP.Type != wire.ICMP4EchoReply {
		t.Fatalf("replies = %+v", replies)
	}
	if replies[0].IP.Src != n.public {
		t.Errorf("reply from %s", replies[0].IP.Src)
	}
}

// TestNATHidesPrivateHosts is the paper's Section II contrast: with NAT
// "there is no way to send a packet directly to an internal address from
// outside" — the probe draws at most a network-unreachable from the
// provider, never anything from the home network.
func TestNATHidesPrivateHosts(t *testing.T) {
	n := buildV4Net(t)
	replies := n.ping(t, n.private, 64)
	for _, r := range replies {
		if r.IP.Src == n.public || r.IP.Src == n.private {
			t.Errorf("home network leaked a reply from %s", r.IP.Src)
		}
		if r.ICMP.Type == wire.ICMP4EchoReply {
			t.Errorf("private host answered through NAT")
		}
	}
}

func TestV4RouterUnreachable(t *testing.T) {
	n := buildV4Net(t)
	replies := n.ping(t, wire.IPv4AddrFrom(203, 0, 113, 99), 64)
	if len(replies) != 1 || replies[0].ICMP.Type != wire.ICMP4DestUnreach {
		t.Fatalf("replies = %+v", replies)
	}
}

func TestV4TTLExceeded(t *testing.T) {
	n := buildV4Net(t)
	replies := n.ping(t, n.public, 1)
	if len(replies) != 1 || replies[0].ICMP.Type != wire.ICMP4TimeExceeded {
		t.Fatalf("replies = %+v", replies)
	}
	// TTL 2 reaches the gateway.
	replies = n.ping(t, n.public, 2)
	if len(replies) != 1 || replies[0].ICMP.Type != wire.ICMP4EchoReply {
		t.Fatalf("replies = %+v", replies)
	}
}

func TestV4RouterOwnAddress(t *testing.T) {
	n := buildV4Net(t)
	replies := n.ping(t, wire.IPv4AddrFrom(198, 51, 100, 1), 64)
	if len(replies) != 1 || replies[0].ICMP.Type != wire.ICMP4EchoReply {
		t.Fatalf("replies = %+v", replies)
	}
}

func TestNATDropsNonEcho(t *testing.T) {
	n := buildV4Net(t)
	// A UDP packet (protocol 17) to the public address: no mapping, no
	// reply, no error (consumer NATs drop silently).
	h := wire.IPv4Header{TTL: 64, Protocol: 17, Src: n.scanV4, Dst: n.public}
	pkt, err := h.Marshal([]byte{0, 53, 0, 53, 0, 8, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	n.eng.Inject(n.scanner.Iface(), pkt)
	if got := len(n.scanner.DrainInto(nil)); got != 0 {
		t.Errorf("NAT answered a UDP probe with %d packets", got)
	}
}

func TestDecTTLKeepsChecksumValid(t *testing.T) {
	pkt, err := wire.BuildEchoRequest4(wire.IPv4AddrFrom(1, 2, 3, 4), wire.IPv4AddrFrom(5, 6, 7, 8), 64, 1, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		decTTL(pkt)
		if _, _, err := wire.ParseIPv4(pkt); err != nil {
			t.Fatalf("after %d decrements: %v", i+1, err)
		}
	}
	h, _, err := wire.ParseIPv4(pkt)
	if err != nil {
		t.Fatal(err)
	}
	if h.TTL != 54 {
		t.Errorf("TTL = %d", h.TTL)
	}
}
