package services

import (
	"math/rand"
	"testing"

	"repro/internal/dnswire"
	"repro/internal/wire"
)

// TestStackSurvivesGarbage feeds the full device stack arbitrary bytes
// and mutated-valid packets: a periphery on the open Internet sees
// exactly this, and must not crash.
func TestStackSurvivesGarbage(t *testing.T) {
	st := newStack(t)
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 10000; i++ {
		b := make([]byte, rng.Intn(300))
		rng.Read(b)
		_ = handle(st, b)
	}
}

func TestStackSurvivesMutatedProtocols(t *testing.T) {
	st := newStack(t)
	rng := rand.New(rand.NewSource(5))
	q, err := dnswire.NewQuery(1, "example.com", dnswire.TypeA, dnswire.ClassIN).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3000; i++ {
		// Mutate the DNS payload, rewrap in a valid UDP packet (the
		// checksums are recomputed, so the application parser is hit).
		qq := append([]byte(nil), q...)
		for k := 0; k < 1+rng.Intn(6); k++ {
			qq[rng.Intn(len(qq))] ^= byte(1 << rng.Intn(8))
		}
		pkt, err := wire.BuildUDP(clientAddr, devAddr, 64, 40000, 53, qq)
		if err != nil {
			t.Fatal(err)
		}
		_ = handle(st, pkt)
	}
	// Truncated TCP segments through the valid-checksum path.
	for i := 0; i < 3000; i++ {
		payload := make([]byte, rng.Intn(64))
		rng.Read(payload)
		th := wire.TCPHeader{
			SrcPort: uint16(rng.Intn(65536)),
			DstPort: []uint16{21, 22, 23, 53, 80, 443, 8080, 9999}[rng.Intn(8)],
			Seq:     rng.Uint32(), Ack: rng.Uint32(),
			Flags: uint8(rng.Intn(32)),
		}
		pkt, err := wire.BuildTCP(clientAddr, devAddr, 64, th, payload)
		if err != nil {
			t.Fatal(err)
		}
		_ = handle(st, pkt)
	}
}

// FuzzStackHandleLocal runs arbitrary bytes through the stack, parsed
// as a device node parses them.
func FuzzStackHandleLocal(f *testing.F) {
	st := NewStack(fullConfig(), []byte("fuzz"))
	ping, err := wire.BuildEchoRequest(clientAddr, devAddr, 64, 1, 1, nil)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(ping)
	f.Add([]byte{})
	syn, err := wire.BuildTCP(clientAddr, devAddr, 64, wire.TCPHeader{SrcPort: 40000, DstPort: 80, Seq: 1, Flags: wire.TCPSyn, Window: 65535}, nil)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(syn)
	f.Fuzz(func(t *testing.T, data []byte) {
		_ = handle(st, data)
	})
}

// FuzzDNSForwarder targets the forwarder's parser/response path.
func FuzzDNSForwarder(f *testing.F) {
	d := &DNSForwarder{Software: "dnsmasq-2.45"}
	q, err := dnswire.NewQuery(1, "a.example", dnswire.TypeA, dnswire.ClassIN).Marshal()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(q)
	vb, err := dnswire.NewVersionBindQuery(2).Marshal()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(vb)
	f.Fuzz(func(t *testing.T, data []byte) {
		_ = d.Handle(data)
	})
}
