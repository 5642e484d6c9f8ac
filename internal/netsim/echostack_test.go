package netsim

import (
	"bytes"
	"slices"
	"testing"

	"repro/internal/ipv6"
	"repro/internal/wire"
)

// parseFirstEcho is EchoStack.HandleLocal without its two-byte
// prefilter: parse the whole packet, then decide.
func parseFirstEcho(self ipv6.Addr, pkt []byte) [][]byte {
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
	return [][]byte{reply}
}

// TestEchoStackIgnoresNonEcho: refusing non-echo traffic from the header
// bytes answers exactly what parsing first answers — nothing for tool
// probes, errors and malformed packets, the same reply bytes for a valid
// echo request.
func TestEchoStackIgnoresNonEcho(t *testing.T) {
	self := ipv6.MustParseAddr("2001:db8:1234:5678::1")
	must := func(p []byte, err error) []byte {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	echo := must(wire.BuildEchoRequest(scannerAddr, self, 64, 0x1234, 7, []byte("payload")))
	badSum := slices.Clone(echo)
	badSum[wire.HeaderLen+2] ^= 0xff
	// A bare header announcing no payload, followed by a stray Echo
	// Request type byte outside it.
	empty := slices.Clone(echo[:wire.HeaderLen+1])
	empty[4], empty[5] = 0, 0

	cases := []struct {
		name  string
		pkt   []byte
		reply bool
	}{
		{"tcp-syn", must(wire.BuildTCP(scannerAddr, self, 64, wire.TCPHeader{SrcPort: 40000, DstPort: 80, Seq: 9, Flags: wire.TCPSyn, Window: 65535}, nil)), false},
		{"udp", must(wire.BuildUDP(scannerAddr, self, 64, 40000, 53, []byte{0x80, 1, 2, 3})), false},
		{"icmp-error", must(wire.BuildTimeExceeded(scannerAddr, self, 64, echo)), false},
		{"truncated", echo[:wire.HeaderLen+4], false},
		{"header-only", echo[:wire.HeaderLen], false},
		{"plen0-trailing-echo-type", empty, false},
		{"bad-checksum", badSum, false},
		{"echo", echo, true},
	}
	for _, tc := range cases {
		got := EchoStack{}.HandleLocal(self, tc.pkt)
		want := parseFirstEcho(self, tc.pkt)
		if len(got) != len(want) || (len(got) == 1) != tc.reply {
			t.Fatalf("%s: %d replies, parse-first %d, want reply=%v", tc.name, len(got), len(want), tc.reply)
		}
		for i := range got {
			if !bytes.Equal(got[i], want[i]) {
				t.Errorf("%s: reply % x, parse-first % x", tc.name, got[i], want[i])
			}
		}
	}
}
