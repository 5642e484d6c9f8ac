package minitcp

import (
	"testing"

	"repro/internal/ipv6"
	"repro/internal/wire"
)

// FuzzHandleSegment throws arbitrary TCP segments at a server with two
// registered services and checks that it never panics and that the
// reply it emits, if any, is a well-formed packet of the connection: checksums
// verify, ports are swapped, and the IPv6 addresses run server->client.
func FuzzHandleSegment(f *testing.F) {
	f.Add(uint16(1234), uint16(22), uint32(0), uint32(0), uint8(wire.TCPSyn), uint16(65535), []byte{})
	f.Add(uint16(1234), uint16(80), uint32(7), uint32(9), uint8(wire.TCPAck|wire.TCPPsh), uint16(512), []byte("GET / HTTP/1.0\r\n\r\n"))
	f.Add(uint16(4), uint16(9999), uint32(1), uint32(2), uint8(wire.TCPFin|wire.TCPAck), uint16(0), []byte{})
	f.Add(uint16(0), uint16(22), uint32(0), uint32(0), uint8(wire.TCPRst), uint16(0), []byte("x"))
	f.Fuzz(func(t *testing.T, srcPort, dstPort uint16, seq, ack uint32, flags uint8, window uint16, payload []byte) {
		srv := NewServer([]byte("fuzz-seed"))
		srv.Register(22, echoService{banner: "SSH-2.0-dropbear_2019.78"})
		srv.Register(80, echoService{prefix: "HTTP/1.0 200 OK\r\n\r\n"})
		self := ipv6.MustParseAddr("2001:db8::1")
		peer := ipv6.MustParseAddr("2001:beef::100")
		seg := wire.TCPHeader{
			SrcPort: srcPort, DstPort: dstPort,
			Seq: seq, Ack: ack, Flags: flags, Window: window,
		}
		if pkt := srv.HandleSegment(nil, self, peer, seg, payload); pkt != nil {
			sum, err := wire.ParsePacket(pkt)
			if err != nil {
				t.Fatalf("reply does not parse: %v", err)
			}
			if sum.TCP == nil {
				t.Fatalf("reply is not TCP: %+v", sum)
			}
			if sum.IP.Src != self || sum.IP.Dst != peer {
				t.Fatalf("reply addressed %s->%s, want %s->%s", sum.IP.Src, sum.IP.Dst, self, peer)
			}
			if sum.TCP.SrcPort != dstPort || sum.TCP.DstPort != srcPort {
				t.Fatalf("reply ports %d->%d, want %d->%d",
					sum.TCP.SrcPort, sum.TCP.DstPort, dstPort, srcPort)
			}
			if flags&wire.TCPRst != 0 {
				t.Fatal("server answered a RST segment")
			}
		}
	})
}

// FuzzExchange runs the full client-side state machine against the
// server over the in-memory loop connection with fuzzed request bytes
// and ports; it must never panic and any successful result's banner and
// response must have come from the registered service.
func FuzzExchange(f *testing.F) {
	f.Add(uint16(22), []byte("hello"))
	f.Add(uint16(80), []byte("GET / HTTP/1.0\r\n\r\n"))
	f.Add(uint16(81), []byte{})
	f.Fuzz(func(t *testing.T, port uint16, req []byte) {
		srv := NewServer([]byte("fuzz-seed"))
		srv.Register(22, echoService{banner: "SSH-2.0-dropbear_2019.78"})
		srv.Register(80, echoService{prefix: "HTTP/1.0 200 OK\r\n\r\n"})
		conn := &loopConn{srv: srv}
		res, err := new(Client).Exchange(conn, clientAddr, serverAddr, 40000, port, req, 8)
		if err != nil {
			return
		}
		if port != 22 && port != 80 && res.Open {
			t.Fatalf("closed port %d reported open", port)
		}
	})
}
