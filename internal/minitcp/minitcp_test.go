package minitcp

import (
	"bytes"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/ipv6"
	"repro/internal/uint128"
	"repro/internal/wire"
)

var (
	clientAddr = ipv6.MustParseAddr("2001:beef::100")
	serverAddr = ipv6.MustParseAddr("2001:db8::1")
)

// echoService responds with a transformed request.
type echoService struct {
	banner string
	prefix string
}

func (s echoService) Banner() []byte {
	if s.banner == "" {
		return nil
	}
	return []byte(s.banner)
}

func (s echoService) Respond(req []byte) []byte {
	if s.prefix == "" {
		return nil
	}
	return append([]byte(s.prefix), req...)
}

// loopConn wires the client directly to a Server, emulating the
// simulator's lock-step delivery.
type loopConn struct {
	srv *Server
	buf [][]byte
}

func (c *loopConn) Send(pkt []byte) error {
	s, err := wire.ParsePacket(pkt)
	if err != nil || s.TCP == nil {
		return err
	}
	if reply := c.srv.HandleSegment(nil, s.IP.Dst, s.IP.Src, *s.TCP, s.Payload); reply != nil {
		c.buf = append(c.buf, reply)
	}
	return nil
}

func (c *loopConn) Recv() [][]byte {
	out := c.buf
	c.buf = nil
	return out
}

func newConn(svc Service, port uint16) *loopConn {
	srv := NewServer([]byte("test-key"))
	if svc != nil {
		srv.Register(port, svc)
	}
	return &loopConn{srv: srv}
}

func TestRequestResponse(t *testing.T) {
	c := newConn(echoService{prefix: "RESP:"}, 80)
	res, err := new(Client).Exchange(c, clientAddr, serverAddr, 40000, 80, []byte("GET /"), 4)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Open {
		t.Fatal("port reported closed")
	}
	if string(res.Data) != "RESP:GET /" {
		t.Errorf("data = %q", res.Data)
	}
	if res.Banner != nil {
		t.Errorf("unexpected banner %q", res.Banner)
	}
}

func TestBannerProtocol(t *testing.T) {
	c := newConn(echoService{banner: "SSH-2.0-dropbear_0.46\r\n"}, 22)
	res, err := new(Client).Exchange(c, clientAddr, serverAddr, 40001, 22, nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Open || !strings.HasPrefix(string(res.Banner), "SSH-2.0-dropbear") {
		t.Errorf("res = %+v", res)
	}
}

func TestBannerThenRequest(t *testing.T) {
	c := newConn(echoService{banner: "220 ftp ready\r\n", prefix: "331 "}, 21)
	res, err := new(Client).Exchange(c, clientAddr, serverAddr, 40002, 21, []byte("USER anonymous\r\n"), 4)
	if err != nil {
		t.Fatal(err)
	}
	if string(res.Banner) != "220 ftp ready\r\n" {
		t.Errorf("banner = %q", res.Banner)
	}
	if string(res.Data) != "331 USER anonymous\r\n" {
		t.Errorf("data = %q", res.Data)
	}
}

func TestClosedPortGetsRST(t *testing.T) {
	c := newConn(echoService{prefix: "x"}, 80)
	res, err := new(Client).Exchange(c, clientAddr, serverAddr, 40003, 8080, []byte("hi"), 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.Open {
		t.Error("closed port reported open")
	}
}

func TestNoServicesSilence(t *testing.T) {
	// A conn that drops everything: filtered port.
	drop := &dropConn{}
	res, err := new(Client).Exchange(drop, clientAddr, serverAddr, 40004, 80, nil, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Open {
		t.Error("filtered port reported open")
	}
}

type dropConn struct{}

func (dropConn) Send([]byte) error { return nil }
func (dropConn) Recv() [][]byte    { return nil }

func TestServerIgnoresForeignAck(t *testing.T) {
	srv := NewServer([]byte("k"))
	srv.Register(80, echoService{prefix: "R"})
	// A data segment with a bogus ack (not matching the cookie) must be
	// ignored, not answered.
	seg := wire.TCPHeader{SrcPort: 1234, DstPort: 80, Seq: 55, Ack: 0xdeadbeef, Flags: wire.TCPAck | wire.TCPPsh}
	if reply := srv.HandleSegment(nil, serverAddr, clientAddr, seg, []byte("req")); reply != nil {
		t.Errorf("answered a forged segment with % x", reply)
	}
}

func TestServerRSTNotAnswered(t *testing.T) {
	srv := NewServer([]byte("k"))
	srv.Register(80, echoService{prefix: "R"})
	seg := wire.TCPHeader{SrcPort: 1234, DstPort: 80, Seq: 1, Flags: wire.TCPRst}
	if reply := srv.HandleSegment(nil, serverAddr, clientAddr, seg, nil); reply != nil {
		t.Errorf("server answered a RST with % x", reply)
	}
	// RST to a closed port is also not answered.
	seg.DstPort = 9999
	if reply := srv.HandleSegment(nil, serverAddr, clientAddr, seg, nil); reply != nil {
		t.Error("server answered a RST to a closed port")
	}
}

func TestSynCookieDeterministic(t *testing.T) {
	srv := NewServer([]byte("k"))
	a := srv.isn(serverAddr, clientAddr, 80, 40000)
	b := srv.isn(serverAddr, clientAddr, 80, 40000)
	if a != b {
		t.Error("ISN not deterministic")
	}
	if srv.isn(serverAddr, clientAddr, 80, 40001) == a {
		t.Error("ISN ignores ports")
	}
}

// TestSynCookieMatchesHMAC: isn computes HMAC-SHA256 by hand, so it is
// held to crypto/hmac over random 4-tuples, for keys shorter than a
// SHA-256 block, exactly one block, and longer (which RFC 2104 hashes
// first). The server validates only its own cookies, so no end-to-end
// run would notice a different value.
func TestSynCookieMatchesHMAC(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	addr := func() ipv6.Addr { return ipv6.AddrFrom128(uint128.New(rng.Uint64(), rng.Uint64())) }
	for _, n := range []int{0, 16, 64, 65, 200} {
		key := make([]byte, n)
		rng.Read(key)
		srv := NewServer(key)
		for i := 0; i < 64; i++ {
			self, peer := addr(), addr()
			selfPort, peerPort := uint16(rng.Uint32()), uint16(rng.Uint32())
			mac := hmac.New(sha256.New, key)
			a, b := self.Bytes(), peer.Bytes()
			mac.Write(a[:])
			mac.Write(b[:])
			mac.Write(binary.BigEndian.AppendUint16(binary.BigEndian.AppendUint16(nil, selfPort), peerPort))
			want := binary.BigEndian.Uint32(mac.Sum(nil))
			if got := srv.isn(self, peer, selfPort, peerPort); got != want {
				t.Fatalf("key of %d bytes, %s:%d <- %s:%d: isn %#08x, HMAC-SHA256 gives %#08x",
					n, self, selfPort, peer, peerPort, got, want)
			}
		}
	}
}

func TestEmptyResponseClosesWithFin(t *testing.T) {
	c := newConn(echoService{}, 23)
	res, err := new(Client).Exchange(c, clientAddr, serverAddr, 40005, 23, []byte("req"), 4)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Open {
		t.Error("open port reported closed")
	}
	if len(res.Data) != 0 {
		t.Errorf("data = %q", res.Data)
	}
}

func TestPorts(t *testing.T) {
	srv := NewServer([]byte("k"))
	srv.Register(80, echoService{})
	srv.Register(22, echoService{})
	ports := srv.Ports()
	if len(ports) != 2 {
		t.Errorf("ports = %v", ports)
	}
}

func TestLargeResponseSingleSegment(t *testing.T) {
	big := bytes.Repeat([]byte("A"), 4000)
	c := newConn(echoService{prefix: string(big)}, 8080)
	res, err := new(Client).Exchange(c, clientAddr, serverAddr, 40006, 8080, []byte("!"), 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Data) != 4001 {
		t.Errorf("data length = %d", len(res.Data))
	}
}

// TestHandleSegmentAppendsIntoBuf: the reply is built into the buffer the
// server is given when it fits — a dirty one yields the same bytes as a
// fresh build — and in a buffer of its own when it does not.
func TestHandleSegmentAppendsIntoBuf(t *testing.T) {
	srv := NewServer([]byte("k"))
	srv.Register(80, echoService{prefix: "R"})
	syn := wire.TCPHeader{SrcPort: 1234, DstPort: 80, Seq: 7, Flags: wire.TCPSyn, Window: 65535}
	want := srv.HandleSegment(nil, serverAddr, clientAddr, syn, nil)
	if want == nil {
		t.Fatal("no SYN/ACK")
	}
	dirty := bytes.Repeat([]byte{0xa5}, 128)
	got := srv.HandleSegment(dirty[:0], serverAddr, clientAddr, syn, nil)
	if !bytes.Equal(got, want) || &got[0] != &dirty[0] {
		t.Errorf("into a dirty buffer: % x (shared %v), want % x", got, &got[0] == &dirty[0], want)
	}
	small := make([]byte, 0, 8)
	if got := srv.HandleSegment(small, serverAddr, clientAddr, syn, nil); !bytes.Equal(got, want) {
		t.Errorf("past a small buffer: % x, want % x", got, want)
	}
}
