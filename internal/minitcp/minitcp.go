// Package minitcp implements the minimal TCP machinery the measurement
// needs: a stateless banner/request-response server embedded in simulated
// periphery devices, and a lock-step client used by the application-layer
// prober. It is deliberately not a full TCP: no retransmission, no
// windows, no reassembly — one request segment, one response segment —
// which matches what a banner-grab scanner actually exercises.
//
// The server holds no per-connection state. Its initial sequence number
// is a keyed hash of the 4-tuple (a SYN-cookie), so any segment can be
// validated against the tuple alone. This mirrors how ZMap-family tools
// scan statelessly.
package minitcp

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"

	"repro/internal/ipv6"
	"repro/internal/wire"
)

// Service is one TCP service on a device.
type Service interface {
	// Banner is sent unprompted when the connection is established
	// (FTP/SSH/TELNET-style greetings); nil for request-first protocols.
	Banner() []byte
	// Respond handles one client request and returns the response (nil
	// closes without data).
	Respond(req []byte) []byte
}

// Server dispatches segments for one device to its per-port services.
type Server struct {
	// key is the SYN-cookie HMAC key as RFC 2104 pads it: the seed, or
	// its SHA-256 digest when longer than a block, zero-filled to one
	// block.
	key      [sha256.BlockSize]byte
	services map[uint16]Service
}

// NewServer creates a server whose SYN-cookie key is derived from seed.
func NewServer(seed []byte) *Server {
	s := &Server{services: make(map[uint16]Service)}
	if len(seed) > sha256.BlockSize {
		d := sha256.Sum256(seed)
		copy(s.key[:], d[:])
	} else {
		copy(s.key[:], seed)
	}
	return s
}

// Register binds svc to port, replacing any previous binding.
func (s *Server) Register(port uint16, svc Service) { s.services[port] = svc }

// Ports returns the open ports (order unspecified).
func (s *Server) Ports() []uint16 {
	out := make([]uint16, 0, len(s.services))
	for p := range s.services {
		out = append(out, p)
	}
	return out
}

// isn computes the SYN-cookie initial sequence number for a 4-tuple:
// the first four bytes of HMAC-SHA256 (RFC 2104) keyed by s.key over
// both addresses and both ports. The inner and outer blocks are built
// in stack arrays and hashed with two sha256.Sum256 calls, so a segment
// allocates nothing for its cookie.
func (s *Server) isn(self, peer ipv6.Addr, selfPort, peerPort uint16) uint32 {
	const bs = sha256.BlockSize
	var inner [bs + 2*16 + 4]byte
	var outer [bs + sha256.Size]byte
	for i, k := range s.key {
		inner[i] = k ^ 0x36
		outer[i] = k ^ 0x5c
	}
	a, b := self.Bytes(), peer.Bytes()
	copy(inner[bs:], a[:])
	copy(inner[bs+16:], b[:])
	binary.BigEndian.PutUint16(inner[bs+32:], selfPort)
	binary.BigEndian.PutUint16(inner[bs+34:], peerPort)
	sum := sha256.Sum256(inner[:])
	copy(outer[bs:], sum[:])
	mac := sha256.Sum256(outer[:])
	return binary.BigEndian.Uint32(mac[:4])
}

// HandleSegment answers one TCP segment addressed to self with at most
// one reply segment, built into buf with wire.AppendTCP (hop limit 64),
// or returns nil for silence. A reply longer than buf's capacity is
// built in a fresh buffer.
func (s *Server) HandleSegment(buf []byte, self, peer ipv6.Addr, seg wire.TCPHeader, payload []byte) []byte {
	svc, open := s.services[seg.DstPort]
	reply := func(t wire.TCPHeader, data []byte) []byte {
		pkt, _ := wire.AppendTCP(buf, self, peer, 64, t, data) // nil with its error
		return pkt
	}

	if seg.Flags&wire.TCPRst != 0 {
		return nil // never answer a reset
	}

	if !open {
		// Closed port: RST per RFC 9293.
		rst := wire.TCPHeader{
			SrcPort: seg.DstPort, DstPort: seg.SrcPort,
			Seq: 0, Ack: seg.Seq + segLen(seg, payload),
			Flags: wire.TCPRst | wire.TCPAck,
		}
		return reply(rst, nil)
	}

	isn := s.isn(self, peer, seg.DstPort, seg.SrcPort)

	switch {
	case seg.Flags&wire.TCPSyn != 0 && seg.Flags&wire.TCPAck == 0:
		// SYN -> SYN/ACK with cookie ISN.
		return reply(wire.TCPHeader{
			SrcPort: seg.DstPort, DstPort: seg.SrcPort,
			Seq: isn, Ack: seg.Seq + 1,
			Flags:  wire.TCPSyn | wire.TCPAck,
			Window: 65535,
		}, nil)

	case seg.Flags&wire.TCPAck != 0 && len(payload) == 0 && seg.Ack == isn+1:
		// Final ACK of the handshake: emit the banner, if any.
		banner := svc.Banner()
		if banner == nil {
			return nil
		}
		return reply(wire.TCPHeader{
			SrcPort: seg.DstPort, DstPort: seg.SrcPort,
			Seq: isn + 1, Ack: seg.Seq,
			Flags:  wire.TCPPsh | wire.TCPAck,
			Window: 65535,
		}, banner)

	case seg.Flags&wire.TCPAck != 0 && len(payload) > 0:
		// A request segment. Valid acks: ISN+1 (no banner consumed) or
		// ISN+1+len(banner).
		bannerLen := uint32(0)
		if b := svc.Banner(); b != nil {
			bannerLen = uint32(len(b))
		}
		if seg.Ack != isn+1 && seg.Ack != isn+1+bannerLen {
			return nil // not our connection
		}
		resp := svc.Respond(payload)
		t := wire.TCPHeader{
			SrcPort: seg.DstPort, DstPort: seg.SrcPort,
			Seq: seg.Ack, Ack: seg.Seq + uint32(len(payload)),
			Flags:  wire.TCPPsh | wire.TCPAck | wire.TCPFin,
			Window: 65535,
		}
		if resp == nil {
			t.Flags = wire.TCPFin | wire.TCPAck
		}
		return reply(t, resp)

	case seg.Flags&wire.TCPFin != 0:
		// Client close: ack it.
		return reply(wire.TCPHeader{
			SrcPort: seg.DstPort, DstPort: seg.SrcPort,
			Seq: seg.Ack, Ack: seg.Seq + 1,
			Flags: wire.TCPAck,
		}, nil)
	}
	return nil
}

// segLen is the sequence space consumed by a segment.
func segLen(seg wire.TCPHeader, payload []byte) uint32 {
	n := uint32(len(payload))
	if seg.Flags&wire.TCPSyn != 0 {
		n++
	}
	if seg.Flags&wire.TCPFin != 0 {
		n++
	}
	return n
}

// Conn abstracts the transport under the client: send one packet, then
// collect whatever packets have arrived. The network simulator satisfies
// this with lock-step semantics. Send must not retain pkt; the packets
// Recv returns need stay valid only until the next Recv.
type Conn interface {
	Send(pkt []byte) error
	Recv() [][]byte
}

// Result is the outcome of a client exchange.
type Result struct {
	Open   bool   // port answered SYN with SYN/ACK
	Banner []byte // unprompted server data after the handshake
	Data   []byte // response to the request
}

// Client runs banner-grab conversations. It keeps one send buffer, one
// parse state and one segment slice across exchanges, so building and
// parsing a segment allocates nothing once warm. The zero value is ready
// to use. Not safe for concurrent use.
type Client struct {
	buf  []byte
	sum  wire.Summary
	segs []segment
}

// Exchange performs a banner-grab conversation over c: handshake,
// optional banner read, optional request/response. A RST or silence at
// the SYN step reports Open=false. maxRounds bounds the Send/Recv
// iterations. The Result's Banner and Data are copies, owned by the
// caller.
func (cl *Client) Exchange(c Conn, src, dst ipv6.Addr, srcPort, dstPort uint16, req []byte, maxRounds int) (Result, error) {
	var res Result
	const clientISN = 0x01000000

	if err := cl.send(c, src, dst, wire.TCPHeader{SrcPort: srcPort, DstPort: dstPort, Seq: clientISN, Flags: wire.TCPSyn, Window: 65535}, nil); err != nil {
		return res, fmt.Errorf("minitcp: send SYN: %w", err)
	}

	var serverISN uint32
	established := false
	for round := 0; round < maxRounds && !established; round++ {
		for _, seg := range cl.collect(c, dst, srcPort, dstPort) {
			switch {
			case seg.h.Flags&wire.TCPRst != 0:
				return res, nil // closed
			case seg.h.Flags&(wire.TCPSyn|wire.TCPAck) == wire.TCPSyn|wire.TCPAck && seg.h.Ack == clientISN+1:
				serverISN = seg.h.Seq
				established = true
			}
		}
		if !established && round == maxRounds-1 {
			return res, nil // filtered/silent
		}
	}
	res.Open = true

	// Complete the handshake; a banner may come back immediately.
	if err := cl.send(c, src, dst, wire.TCPHeader{SrcPort: srcPort, DstPort: dstPort, Seq: clientISN + 1, Ack: serverISN + 1, Flags: wire.TCPAck, Window: 65535}, nil); err != nil {
		return res, fmt.Errorf("minitcp: send ACK: %w", err)
	}
	for _, seg := range cl.collect(c, dst, srcPort, dstPort) {
		if len(seg.data) > 0 {
			res.Banner = append(res.Banner, seg.data...)
		}
	}

	if req != nil {
		ack := serverISN + 1 + uint32(len(res.Banner))
		if err := cl.send(c, src, dst, wire.TCPHeader{
			SrcPort: srcPort, DstPort: dstPort,
			Seq: clientISN + 1, Ack: ack,
			Flags: wire.TCPPsh | wire.TCPAck, Window: 65535,
		}, req); err != nil {
			return res, fmt.Errorf("minitcp: send request: %w", err)
		}
		done := false
		for round := 0; round < maxRounds && !done; round++ {
			for _, seg := range cl.collect(c, dst, srcPort, dstPort) {
				if len(seg.data) > 0 {
					res.Data = append(res.Data, seg.data...)
				}
				if seg.h.Flags&(wire.TCPFin|wire.TCPRst) != 0 {
					done = true
				}
			}
			if !done && round == maxRounds-1 {
				done = true // tolerate servers that never FIN
			}
		}
	}

	// Politely reset to tear down whatever half-state the peer holds.
	_ = cl.send(c, src, dst, wire.TCPHeader{SrcPort: srcPort, DstPort: dstPort, Seq: clientISN + 1, Flags: wire.TCPRst}, nil)
	return res, nil
}

// send builds one segment into the client's buffer and sends it; Conn's
// Send does not retain the packet.
func (cl *Client) send(c Conn, src, dst ipv6.Addr, t wire.TCPHeader, data []byte) error {
	pkt, err := wire.AppendTCP(cl.buf, src, dst, 64, t, data)
	if err != nil {
		return err
	}
	cl.buf = pkt
	return c.Send(pkt)
}

// collect reads arrived packets and returns the TCP segments from dst
// for this flow. The segments' data alias the received packets, which
// the next Recv may recycle: Exchange copies what it keeps first.
func (cl *Client) collect(c Conn, dst ipv6.Addr, srcPort, dstPort uint16) []segment {
	cl.segs = cl.segs[:0]
	for _, raw := range c.Recv() {
		s := &cl.sum
		if s.Parse(raw) != nil || s.TCP == nil {
			continue
		}
		if s.IP.Src != dst || s.TCP.SrcPort != dstPort || s.TCP.DstPort != srcPort {
			continue
		}
		cl.segs = append(cl.segs, segment{h: *s.TCP, data: s.Payload})
	}
	return cl.segs
}

type segment struct {
	h    wire.TCPHeader
	data []byte
}
