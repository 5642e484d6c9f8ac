// Package wire implements the on-the-wire packet formats the scanner and
// the network simulator exchange: the fixed IPv6 header (RFC 8200),
// ICMPv6 (RFC 4443), UDP and TCP headers, and the IPv6 pseudo-header
// checksum. Packets cross the xmap.Driver boundary as raw bytes, so both
// sides round-trip through these codecs exactly as a real deployment
// round-trips through the kernel and NIC.
package wire

import (
	"encoding/binary"
	"fmt"

	"repro/internal/ipv6"
)

// IPv6 next-header (protocol) numbers used in this repository.
const (
	ProtoTCP    = 6
	ProtoUDP    = 17
	ProtoICMPv6 = 58
	ProtoNone   = 59
)

// HeaderLen is the length of the fixed IPv6 header.
const HeaderLen = 40

// MaxHopLimit is the maximum value of the Hop Limit field.
const MaxHopLimit = 255

// IPv6Header is the fixed 40-byte IPv6 header.
type IPv6Header struct {
	TrafficClass uint8
	FlowLabel    uint32 // 20 bits
	NextHeader   uint8
	HopLimit     uint8
	Src, Dst     ipv6.Addr
}

// ParseIPv6 decodes the fixed header and returns it with the payload
// slice (aliasing b). The payload is truncated to the header's payload
// length; packets shorter than that length are rejected.
func ParseIPv6(b []byte) (IPv6Header, []byte, error) {
	if len(b) < HeaderLen {
		return IPv6Header{}, nil, fmt.Errorf("wire: packet too short for IPv6 header: %d bytes", len(b))
	}
	if b[0]>>4 != 6 {
		return IPv6Header{}, nil, fmt.Errorf("wire: IP version %d, want 6", b[0]>>4)
	}
	var h IPv6Header
	h.TrafficClass = b[0]<<4 | b[1]>>4
	h.FlowLabel = uint32(b[1]&0x0f)<<16 | uint32(binary.BigEndian.Uint16(b[2:4]))
	plen := int(binary.BigEndian.Uint16(b[4:6]))
	h.NextHeader = b[6]
	h.HopLimit = b[7]
	h.Src = ipv6.AddrFromBytes(b[8:24])
	h.Dst = ipv6.AddrFromBytes(b[24:40])
	if len(b)-HeaderLen < plen {
		return IPv6Header{}, nil, fmt.Errorf("wire: truncated payload: have %d, header says %d", len(b)-HeaderLen, plen)
	}
	return h, b[HeaderLen : HeaderLen+plen], nil
}

// ForwardDst extracts just the destination address of an IPv6 packet,
// applying the same version/length validation as ParseIPv6. Transit
// nodes route on the destination alone, and skipping the rest of the
// header materialization matters on the per-hop fast path.
func ForwardDst(b []byte) (ipv6.Addr, bool) {
	if len(b) < HeaderLen || b[0]>>4 != 6 {
		return ipv6.Addr{}, false
	}
	if len(b)-HeaderLen < int(binary.BigEndian.Uint16(b[4:6])) {
		return ipv6.Addr{}, false
	}
	return ipv6.AddrFromBytes(b[24:40]), true
}

// Checksum computes the Internet checksum (RFC 1071) of the upper-layer
// packet body over the IPv6 pseudo-header (RFC 8200 section 8.1).
func Checksum(src, dst ipv6.Addr, proto uint8, body []byte) uint16 {
	return FoldSum(PseudoSum(src, dst, proto, len(body)) + SumWords(body))
}

// PseudoSum returns the partial checksum sum of the IPv6 pseudo-header
// for an upper-layer packet of the given length. Combine with SumWords
// partial sums and finish with FoldSum; incremental callers (the
// simulator's compiled error templates) cache it so only the varying
// byte region is re-summed per packet.
func PseudoSum(src, dst ipv6.Addr, proto uint8, length int) uint64 {
	// Accumulate 32-bit words: 2^16 ≡ 1 (mod 65535), so the end-around
	// fold in FoldSum reduces a sum of 32-bit words to the same value as
	// the RFC's 16-bit word sum, at half the loop iterations.
	// Eight-byte reads, added as two 32-bit words each: at most
	// ~2^32 such adds fit in the uint64 accumulator, far beyond any
	// packet, so no intermediate folding is needed.
	var sum uint64
	s, d := src.Bytes(), dst.Bytes()
	for i := 0; i < 16; i += 8 {
		v := binary.BigEndian.Uint64(s[i : i+8])
		w := binary.BigEndian.Uint64(d[i : i+8])
		sum += v>>32 + v&0xffffffff + w>>32 + w&0xffffffff
	}
	return sum + uint64(length) + uint64(proto)
}

// SumWords returns the partial 16-bit-word sum of b. Sums over disjoint
// regions add as long as every region but the last starts and ends on a
// 16-bit boundary.
func SumWords(b []byte) uint64 {
	var sum uint64
	for len(b) >= 8 {
		v := binary.BigEndian.Uint64(b[:8])
		sum += v>>32 + v&0xffffffff
		b = b[8:]
	}
	if len(b) >= 4 {
		sum += uint64(binary.BigEndian.Uint32(b[:4]))
		b = b[4:]
	}
	if len(b) >= 2 {
		sum += uint64(binary.BigEndian.Uint16(b[:2]))
		b = b[2:]
	}
	if len(b) == 1 {
		sum += uint64(b[0]) << 8
	}
	return sum
}

// FoldSum reduces a partial sum to the final complemented 16-bit
// Internet checksum.
func FoldSum(sum uint64) uint16 {
	for sum>>16 != 0 {
		sum = sum&0xffff + sum>>16
	}
	return ^uint16(sum)
}

// ICMPv6 message types (RFC 4443).
const (
	ICMPDestUnreach  = 1
	ICMPPacketTooBig = 2
	ICMPTimeExceeded = 3
	ICMPParamProblem = 4
	ICMPEchoRequest  = 128
	ICMPEchoReply    = 129
)

// ICMPv6 Destination Unreachable codes (RFC 4443 section 3.1).
const (
	UnreachNoRoute       = 0
	UnreachAdminProhibit = 1
	UnreachBeyondScope   = 2
	UnreachAddress       = 3
	UnreachPort          = 4
	UnreachPolicyFail    = 5
	UnreachRejectRoute   = 6
)

// ICMPv6 Time Exceeded codes (RFC 4443 section 3.3).
const (
	TimeExceedHopLimit = 0
	TimeExceedReasm    = 1
)

// ICMPv6 is a generic ICMPv6 message. Body excludes the 4-byte
// type/code/checksum header.
type ICMPv6 struct {
	Type, Code uint8
	Body       []byte
}

// ParseICMPv6 decodes an ICMPv6 message and verifies its checksum against
// the pseudo-header of the enclosing packet.
func ParseICMPv6(src, dst ipv6.Addr, b []byte) (ICMPv6, error) {
	if len(b) < 8 {
		return ICMPv6{}, fmt.Errorf("wire: ICMPv6 message too short: %d bytes", len(b))
	}
	if Checksum(src, dst, ProtoICMPv6, b) != 0 {
		return ICMPv6{}, fmt.Errorf("wire: ICMPv6 checksum mismatch")
	}
	return ICMPv6{Type: b[0], Code: b[1], Body: b[4:]}, nil
}

// Echo is the body of an ICMPv6 Echo Request/Reply.
type Echo struct {
	ID, Seq uint16
	Data    []byte
}

// ParseEcho decodes an echo body.
func ParseEcho(body []byte) (Echo, error) {
	if len(body) < 4 {
		return Echo{}, fmt.Errorf("wire: echo body too short: %d bytes", len(body))
	}
	return Echo{
		ID:   binary.BigEndian.Uint16(body[0:2]),
		Seq:  binary.BigEndian.Uint16(body[2:4]),
		Data: body[4:],
	}, nil
}

// ErrorBody is the body of Destination Unreachable / Time Exceeded
// messages: 4 unused bytes then as much of the invoking packet as fits
// within the minimum MTU (RFC 4443: as much as possible without exceeding
// 1280 bytes for the whole error packet).
type ErrorBody struct {
	Invoking []byte // the offending packet, possibly truncated
}

// maxInvoking keeps the error packet (40 IPv6 + 8 ICMPv6) within 1280.
const maxInvoking = 1280 - HeaderLen - 8

// ParseErrorBody decodes the body of an ICMPv6 error message.
func ParseErrorBody(body []byte) (ErrorBody, error) {
	if len(body) < 4 {
		return ErrorBody{}, fmt.Errorf("wire: ICMPv6 error body too short: %d bytes", len(body))
	}
	return ErrorBody{Invoking: body[4:]}, nil
}

// UDPHeader is the 8-byte UDP header.
type UDPHeader struct {
	SrcPort, DstPort uint16
}

// ParseUDP decodes a UDP datagram and verifies length and checksum.
func ParseUDP(src, dst ipv6.Addr, b []byte) (UDPHeader, []byte, error) {
	if len(b) < 8 {
		return UDPHeader{}, nil, fmt.Errorf("wire: UDP datagram too short: %d bytes", len(b))
	}
	ln := int(binary.BigEndian.Uint16(b[4:6]))
	if ln < 8 || ln > len(b) {
		return UDPHeader{}, nil, fmt.Errorf("wire: UDP length field %d invalid for %d bytes", ln, len(b))
	}
	if Checksum(src, dst, ProtoUDP, b[:ln]) != 0 {
		return UDPHeader{}, nil, fmt.Errorf("wire: UDP checksum mismatch")
	}
	h := UDPHeader{
		SrcPort: binary.BigEndian.Uint16(b[0:2]),
		DstPort: binary.BigEndian.Uint16(b[2:4]),
	}
	return h, b[8:ln], nil
}

// TCP flag bits.
const (
	TCPFin = 1 << 0
	TCPSyn = 1 << 1
	TCPRst = 1 << 2
	TCPPsh = 1 << 3
	TCPAck = 1 << 4
)

// TCPHeader is a 20-byte TCP header (no options).
type TCPHeader struct {
	SrcPort, DstPort uint16
	Seq, Ack         uint32
	Flags            uint8
	Window           uint16
}

// ParseTCP decodes a TCP segment, verifying the checksum and skipping any
// options indicated by the data offset.
func ParseTCP(src, dst ipv6.Addr, b []byte) (TCPHeader, []byte, error) {
	if len(b) < 20 {
		return TCPHeader{}, nil, fmt.Errorf("wire: TCP segment too short: %d bytes", len(b))
	}
	if Checksum(src, dst, ProtoTCP, b) != 0 {
		return TCPHeader{}, nil, fmt.Errorf("wire: TCP checksum mismatch")
	}
	off := int(b[12]>>4) * 4
	if off < 20 || off > len(b) {
		return TCPHeader{}, nil, fmt.Errorf("wire: TCP data offset %d invalid", off)
	}
	h := TCPHeader{
		SrcPort: binary.BigEndian.Uint16(b[0:2]),
		DstPort: binary.BigEndian.Uint16(b[2:4]),
		Seq:     binary.BigEndian.Uint32(b[4:8]),
		Ack:     binary.BigEndian.Uint32(b[8:12]),
		Flags:   b[13],
		Window:  binary.BigEndian.Uint16(b[14:16]),
	}
	return h, b[off:], nil
}
