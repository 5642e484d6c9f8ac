package wire

import (
	"encoding/binary"
	"fmt"

	"repro/internal/ipv6"
)

// putIPv6 writes the fixed header for a payloadLen-byte payload into
// b[:HeaderLen]. Callers guarantee len(b) >= HeaderLen.
func putIPv6(b []byte, h *IPv6Header, payloadLen int) {
	b[0] = 6<<4 | h.TrafficClass>>4
	b[1] = h.TrafficClass<<4 | uint8(h.FlowLabel>>16)
	binary.BigEndian.PutUint16(b[2:4], uint16(h.FlowLabel))
	binary.BigEndian.PutUint16(b[4:6], uint16(payloadLen))
	b[6] = h.NextHeader
	b[7] = h.HopLimit
	src, dst := h.Src.Bytes(), h.Dst.Bytes()
	copy(b[8:24], src[:])
	copy(b[24:40], dst[:])
}

// buildEcho assembles a complete echo request/reply in one allocation:
// the Build* convenience wrappers are the per-probe hot path, so they
// marshal the header and message directly into the final buffer instead
// of composing the layer-by-layer Marshal calls.
func buildEcho(scratch []byte, typ uint8, src, dst ipv6.Addr, hopLimit uint8, id, seq uint16, data []byte) ([]byte, error) {
	payloadLen := 8 + len(data)
	if payloadLen > 0xffff {
		return nil, fmt.Errorf("wire: payload length %d exceeds 65535", payloadLen)
	}
	n := HeaderLen + payloadLen
	pkt := sized(scratch, n)
	h := IPv6Header{NextHeader: ProtoICMPv6, HopLimit: hopLimit, Src: src, Dst: dst}
	putIPv6(pkt, &h, payloadLen)
	m := pkt[HeaderLen:]
	// Every byte is written explicitly (not relying on a zeroed
	// allocation) so reused scratch buffers produce identical packets.
	m[0], m[1], m[2], m[3] = typ, 0, 0, 0
	binary.BigEndian.PutUint16(m[4:6], id)
	binary.BigEndian.PutUint16(m[6:8], seq)
	copy(m[8:], data)
	binary.BigEndian.PutUint16(m[2:4], Checksum(src, dst, ProtoICMPv6, m))
	return pkt, nil
}

// BuildEchoRequest assembles a complete IPv6 ICMPv6 Echo Request packet.
func BuildEchoRequest(src, dst ipv6.Addr, hopLimit uint8, id, seq uint16, data []byte) ([]byte, error) {
	return buildEcho(nil, ICMPEchoRequest, src, dst, hopLimit, id, seq, data)
}

// AppendEchoRequest is BuildEchoRequest building into buf when its
// capacity suffices (allocating otherwise), for callers that recycle
// probe buffers.
func AppendEchoRequest(buf []byte, src, dst ipv6.Addr, hopLimit uint8, id, seq uint16, data []byte) ([]byte, error) {
	return buildEcho(buf, ICMPEchoRequest, src, dst, hopLimit, id, seq, data)
}

// BuildEchoReply assembles an Echo Reply mirroring the request's id/seq.
func BuildEchoReply(src, dst ipv6.Addr, hopLimit uint8, id, seq uint16, data []byte) ([]byte, error) {
	return buildEcho(nil, ICMPEchoReply, src, dst, hopLimit, id, seq, data)
}

// AppendEchoReply is BuildEchoReply building into buf when its capacity
// suffices (allocating otherwise), for responders that recycle reply
// buffers.
func AppendEchoReply(buf []byte, src, dst ipv6.Addr, hopLimit uint8, id, seq uint16, data []byte) ([]byte, error) {
	return buildEcho(buf, ICMPEchoReply, src, dst, hopLimit, id, seq, data)
}

// ErrorLen returns the on-wire length of an ICMPv6 error quoting the
// invoking packet, so callers can pre-size a scratch buffer.
func ErrorLen(invoking []byte) int {
	n := len(invoking)
	if n > maxInvoking {
		n = maxInvoking
	}
	return HeaderLen + 8 + n
}

// buildError assembles a Destination Unreachable / Time Exceeded error
// quoting the invoking packet, into scratch when its capacity suffices
// (one allocation otherwise).
func buildError(scratch []byte, typ, code uint8, src, dst ipv6.Addr, hopLimit uint8, invoking []byte) ([]byte, error) {
	if len(invoking) > maxInvoking {
		invoking = invoking[:maxInvoking]
	}
	payloadLen := 8 + len(invoking)
	n := HeaderLen + payloadLen
	pkt := sized(scratch, n)
	h := IPv6Header{NextHeader: ProtoICMPv6, HopLimit: hopLimit, Src: src, Dst: dst}
	putIPv6(pkt, &h, payloadLen)
	m := pkt[HeaderLen:]
	// Every byte is written explicitly (not relying on a zeroed
	// allocation) so reused scratch buffers produce identical packets.
	m[0], m[1] = typ, code
	m[2], m[3], m[4], m[5], m[6], m[7] = 0, 0, 0, 0, 0, 0
	copy(m[8:], invoking)
	binary.BigEndian.PutUint16(m[2:4], Checksum(src, dst, ProtoICMPv6, m))
	return pkt, nil
}

// BuildDestUnreach assembles a Destination Unreachable error in response
// to the invoking packet, per RFC 4443 section 3.1.
func BuildDestUnreach(src, dst ipv6.Addr, hopLimit, code uint8, invoking []byte) ([]byte, error) {
	return buildError(nil, ICMPDestUnreach, code, src, dst, hopLimit, invoking)
}

// AppendDestUnreach is BuildDestUnreach building into buf when its
// capacity suffices, for callers that recycle packet buffers.
func AppendDestUnreach(buf []byte, src, dst ipv6.Addr, hopLimit, code uint8, invoking []byte) ([]byte, error) {
	return buildError(buf, ICMPDestUnreach, code, src, dst, hopLimit, invoking)
}

// BuildTimeExceeded assembles a Time Exceeded error (hop limit exhausted)
// in response to the invoking packet, per RFC 4443 section 3.3.
func BuildTimeExceeded(src, dst ipv6.Addr, hopLimit uint8, invoking []byte) ([]byte, error) {
	return buildError(nil, ICMPTimeExceeded, TimeExceedHopLimit, src, dst, hopLimit, invoking)
}

// AppendTimeExceeded is BuildTimeExceeded building into buf when its
// capacity suffices, for callers that recycle packet buffers.
func AppendTimeExceeded(buf []byte, src, dst ipv6.Addr, hopLimit uint8, invoking []byte) ([]byte, error) {
	return buildError(buf, ICMPTimeExceeded, TimeExceedHopLimit, src, dst, hopLimit, invoking)
}

// BuildUDP assembles a complete IPv6 UDP packet in one allocation.
func BuildUDP(src, dst ipv6.Addr, hopLimit uint8, srcPort, dstPort uint16, payload []byte) ([]byte, error) {
	return AppendUDP(nil, src, dst, hopLimit, srcPort, dstPort, payload)
}

// AppendUDP is BuildUDP building into buf when its capacity suffices
// (allocating otherwise), for clients that recycle one send buffer.
func AppendUDP(buf []byte, src, dst ipv6.Addr, hopLimit uint8, srcPort, dstPort uint16, payload []byte) ([]byte, error) {
	payloadLen := 8 + len(payload)
	if payloadLen > 0xffff {
		return nil, fmt.Errorf("wire: UDP payload too long: %d", len(payload))
	}
	pkt := sized(buf, HeaderLen+payloadLen)
	h := IPv6Header{NextHeader: ProtoUDP, HopLimit: hopLimit, Src: src, Dst: dst}
	putIPv6(pkt, &h, payloadLen)
	u := pkt[HeaderLen:]
	binary.BigEndian.PutUint16(u[0:2], srcPort)
	binary.BigEndian.PutUint16(u[2:4], dstPort)
	binary.BigEndian.PutUint16(u[4:6], uint16(payloadLen))
	u[6], u[7] = 0, 0
	copy(u[8:], payload)
	csum := Checksum(src, dst, ProtoUDP, u)
	if csum == 0 {
		csum = 0xffff // RFC 8200: zero checksum is forbidden for UDP/IPv6
	}
	binary.BigEndian.PutUint16(u[6:8], csum)
	return pkt, nil
}

// BuildTCP assembles a complete IPv6 TCP packet in one allocation.
func BuildTCP(src, dst ipv6.Addr, hopLimit uint8, t TCPHeader, payload []byte) ([]byte, error) {
	return AppendTCP(nil, src, dst, hopLimit, t, payload)
}

// AppendTCP is BuildTCP building into buf when its capacity suffices
// (allocating otherwise), for clients that recycle one send buffer.
func AppendTCP(buf []byte, src, dst ipv6.Addr, hopLimit uint8, t TCPHeader, payload []byte) ([]byte, error) {
	payloadLen := 20 + len(payload)
	if payloadLen > 0xffff {
		return nil, fmt.Errorf("wire: TCP payload too long: %d", len(payload))
	}
	pkt := sized(buf, HeaderLen+payloadLen)
	h := IPv6Header{NextHeader: ProtoTCP, HopLimit: hopLimit, Src: src, Dst: dst}
	putIPv6(pkt, &h, payloadLen)
	seg := pkt[HeaderLen:]
	binary.BigEndian.PutUint16(seg[0:2], t.SrcPort)
	binary.BigEndian.PutUint16(seg[2:4], t.DstPort)
	binary.BigEndian.PutUint32(seg[4:8], t.Seq)
	binary.BigEndian.PutUint32(seg[8:12], t.Ack)
	seg[12] = 5 << 4 // data offset: 5 words
	seg[13] = t.Flags
	binary.BigEndian.PutUint16(seg[14:16], t.Window)
	clear(seg[16:20]) // checksum and urgent pointer
	copy(seg[20:], payload)
	binary.BigEndian.PutUint16(seg[16:18], Checksum(src, dst, ProtoTCP, seg))
	return pkt, nil
}

// sized returns buf resliced to n bytes when its capacity suffices and a
// fresh n-byte slice otherwise. Builders into it write every byte, so a
// reused buffer yields the same packet as a fresh one.
func sized(buf []byte, n int) []byte {
	if cap(buf) >= n {
		return buf[:n]
	}
	return make([]byte, n)
}

// Summary is a decoded view of a packet used by receive paths to dispatch
// without each caller re-walking the layers.
type Summary struct {
	IP IPv6Header
	// Exactly one of the following is populated, per IP.NextHeader.
	ICMP *ICMPv6
	UDP  *UDPHeader
	TCP  *TCPHeader
	// Payload is the layer-4 payload (ICMPv6 body, UDP data, TCP data).
	Payload []byte

	// Backing storage for the layer-4 pointers, so Parse fills a
	// caller-owned Summary without allocating per packet.
	icmp ICMPv6
	udp  UDPHeader
	tcp  TCPHeader
}

// Parse decodes an IPv6 packet one layer down into s, reusing s's
// storage. Receive loops keep one Summary across packets to stay off
// the heap; the layer-4 pointers and Payload alias b.
func (s *Summary) Parse(b []byte) error {
	h, payload, err := ParseIPv6(b)
	if err != nil {
		return err
	}
	s.IP = h
	s.ICMP, s.UDP, s.TCP, s.Payload = nil, nil, nil, nil
	switch h.NextHeader {
	case ProtoICMPv6:
		m, err := ParseICMPv6(h.Src, h.Dst, payload)
		if err != nil {
			return err
		}
		s.icmp = m
		s.ICMP = &s.icmp
		s.Payload = m.Body
	case ProtoUDP:
		u, data, err := ParseUDP(h.Src, h.Dst, payload)
		if err != nil {
			return err
		}
		s.udp = u
		s.UDP = &s.udp
		s.Payload = data
	case ProtoTCP:
		t, data, err := ParseTCP(h.Src, h.Dst, payload)
		if err != nil {
			return err
		}
		s.tcp = t
		s.TCP = &s.tcp
		s.Payload = data
	case ProtoNone:
		s.Payload = payload
	default:
		return fmt.Errorf("wire: unsupported next header %d", h.NextHeader)
	}
	return nil
}

// ParsePacket decodes an IPv6 packet one layer down.
func ParsePacket(b []byte) (*Summary, error) {
	s := new(Summary)
	if err := s.Parse(b); err != nil {
		return nil, err
	}
	return s, nil
}

// InvokingSummary decodes the invoking packet quoted inside an ICMPv6
// error message body. The quote may be truncated, so layer-4 checksum
// verification is skipped: only the IPv6 header and ports are recovered.
type InvokingSummary struct {
	IP      IPv6Header
	SrcPort uint16 // valid for quoted UDP/TCP
	DstPort uint16
	EchoID  uint16 // valid for quoted ICMPv6 echo
	EchoSeq uint16
}

// ParseInvoking decodes the (possibly truncated) invoking packet from an
// ICMPv6 error body.
func ParseInvoking(body []byte) (InvokingSummary, error) {
	eb, err := ParseErrorBody(body)
	if err != nil {
		return InvokingSummary{}, err
	}
	inv := eb.Invoking
	if len(inv) < HeaderLen {
		return InvokingSummary{}, fmt.Errorf("wire: quoted packet too short: %d bytes", len(inv))
	}
	if inv[0]>>4 != 6 {
		return InvokingSummary{}, fmt.Errorf("wire: quoted packet not IPv6")
	}
	var out InvokingSummary
	out.IP.TrafficClass = inv[0]<<4 | inv[1]>>4
	out.IP.NextHeader = inv[6]
	out.IP.HopLimit = inv[7]
	out.IP.Src = ipv6.AddrFromBytes(inv[8:24])
	out.IP.Dst = ipv6.AddrFromBytes(inv[24:40])
	l4 := inv[HeaderLen:]
	switch out.IP.NextHeader {
	case ProtoUDP, ProtoTCP:
		if len(l4) >= 4 {
			out.SrcPort = uint16(l4[0])<<8 | uint16(l4[1])
			out.DstPort = uint16(l4[2])<<8 | uint16(l4[3])
		}
	case ProtoICMPv6:
		if len(l4) >= 8 && (l4[0] == ICMPEchoRequest || l4[0] == ICMPEchoReply) {
			out.EchoID = uint16(l4[4])<<8 | uint16(l4[5])
			out.EchoSeq = uint16(l4[6])<<8 | uint16(l4[7])
		}
	}
	return out, nil
}
