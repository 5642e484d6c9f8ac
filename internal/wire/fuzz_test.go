package wire

import (
	"math/rand"
	"testing"

	"repro/internal/ipv6"
)

// FuzzParsePacket must never panic on arbitrary bytes; errors are fine.
func FuzzParsePacket(f *testing.F) {
	good, err := BuildEchoRequest(srcA, dstA, 64, 1, 1, []byte("seed"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	udp, err := BuildUDP(srcA, dstA, 64, 1000, 53, []byte("q"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(udp)
	tcp, err := BuildTCP(srcA, dstA, 64, TCPHeader{SrcPort: 1, DstPort: 2, Flags: TCPSyn}, nil)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(tcp)
	f.Add([]byte{})
	f.Add([]byte{0x60})
	f.Fuzz(func(t *testing.T, data []byte) {
		_, _ = ParsePacket(data)
	})
}

// FuzzParsePacket4 covers the IPv4 decoder.
func FuzzParsePacket4(f *testing.F) {
	good, err := BuildEchoRequest4(v4Src, v4Dst, 64, 1, 1, nil)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	errPkt, err := BuildICMP4Error(v4Src, v4Dst, ICMP4TimeExceeded, 0, good)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(errPkt)
	f.Add([]byte{0x45})
	f.Fuzz(func(t *testing.T, data []byte) {
		_, _ = ParsePacket4(data)
	})
}

// FuzzParseInvoking covers the quoted-packet decoder.
func FuzzParseInvoking(f *testing.F) {
	probe, err := BuildEchoRequest(srcA, dstA, 64, 2, 2, nil)
	if err != nil {
		f.Fatal(err)
	}
	body := append(make([]byte, 4), probe...) // an error body: 4 unused bytes, the quote
	f.Add(body)
	f.Add(body[:10])
	f.Fuzz(func(t *testing.T, data []byte) {
		_, _ = ParseInvoking(data)
	})
}

// FuzzParseICMPv6Error covers the scanner's reply-validation chain —
// the checksum-verifying ICMPv6 parse plus the quoted-packet decode —
// which every hostile reply reaches. The corpus mirrors the malformed
// responder model: corrupted checksum, truncated body, forged embedded
// quote, plus oversized and stub inputs. Errors are fine; panics never.
func FuzzParseICMPv6Error(f *testing.F) {
	inner, err := BuildEchoRequest(srcA, dstA, 64, 7, 9, []byte("quote"))
	if err != nil {
		f.Fatal(err)
	}
	good, err := BuildDestUnreach(dstA, srcA, 255, UnreachAddress, inner)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	// Malformed variant 0: one checksum byte flipped.
	bad := append([]byte(nil), good...)
	bad[HeaderLen+2] ^= 0xff
	f.Add(bad)
	// Malformed variant 1: truncated to a 4-byte ICMPv6 stub, payload
	// length patched to match.
	trunc := append([]byte(nil), good[:HeaderLen+4]...)
	trunc[4], trunc[5] = 0, 4
	f.Add(trunc)
	// Malformed variant 2: checksum-valid error quoting a forged inner
	// source (the strict embedded-quote check's target).
	forged, err := BuildEchoRequest(dstA, dstA, 64, 7, 9, []byte("quote"))
	if err != nil {
		f.Fatal(err)
	}
	forgedErr, err := BuildDestUnreach(dstA, srcA, 255, UnreachAddress, forged)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(forgedErr)
	// Oversized: trailing junk past the declared payload length.
	f.Add(append(append([]byte(nil), good...), make([]byte, 2000)...))
	f.Add(good[:HeaderLen])
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		var s Summary
		if err := s.Parse(data); err == nil && s.ICMP != nil && s.ICMP.Type < 128 {
			_, _ = ParseInvoking(s.ICMP.Body)
		}
		if len(data) >= HeaderLen {
			src := ipv6.AddrFromBytes(data[8:24])
			dst := ipv6.AddrFromBytes(data[24:40])
			if m, err := ParseICMPv6(src, dst, data[HeaderLen:]); err == nil && m.Type < 128 {
				_, _ = ParseErrorBody(m.Body)
			}
		}
	})
}

// TestParsersSurviveRandomBytes hammers every decoder with deterministic
// garbage; absence of panics is the assertion.
func TestParsersSurviveRandomBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 20000; i++ {
		n := rng.Intn(200)
		b := make([]byte, n)
		rng.Read(b)
		_, _ = ParsePacket(b)
		_, _ = ParsePacket4(b)
		_, _ = ParseInvoking(b)
		_, _ = ParseEcho(b)
		_, _ = ParseErrorBody(b)
		_, _, _ = ParseUDP(srcA, dstA, b)
		_, _, _ = ParseTCP(srcA, dstA, b)
		_, _ = ParseICMPv6(srcA, dstA, b)
		_, _ = ParseICMPv4(b)
	}
}

// TestMutatedValidPackets flips bits in valid packets: decoders must
// reject or decode, never panic.
func TestMutatedValidPackets(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	builders := []func() ([]byte, error){
		func() ([]byte, error) { return BuildEchoRequest(srcA, dstA, 64, 1, 2, []byte("abc")) },
		func() ([]byte, error) { return BuildUDP(srcA, dstA, 64, 5, 53, []byte("payload")) },
		func() ([]byte, error) {
			return BuildTCP(srcA, dstA, 64, TCPHeader{SrcPort: 9, DstPort: 80, Flags: TCPSyn | TCPAck}, []byte("x"))
		},
		func() ([]byte, error) {
			inner, err := BuildEchoRequest(srcA, dstA, 64, 3, 4, nil)
			if err != nil {
				return nil, err
			}
			return BuildDestUnreach(dstA, srcA, 255, UnreachAddress, inner)
		},
	}
	for _, build := range builders {
		for trial := 0; trial < 2000; trial++ {
			pkt, err := build()
			if err != nil {
				t.Fatal(err)
			}
			// Flip 1-4 random bits.
			for k := 0; k < 1+rng.Intn(4); k++ {
				i := rng.Intn(len(pkt))
				pkt[i] ^= 1 << rng.Intn(8)
			}
			_, _ = ParsePacket(pkt)
		}
	}
}
