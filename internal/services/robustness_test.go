package services

import (
	"bytes"
	"math/rand"
	"slices"
	"strings"
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

// referenceDNSHandle is the forwarder as it was before it read queries
// in place: parse the whole message with dnswire.Parse, answer the
// first question, marshal a fresh dnswire.Message. FuzzDNSForwarder
// holds DNSForwarder.Handle byte-identical to it.
func referenceDNSHandle(software string, req []byte) []byte {
	q, err := dnswire.Parse(req)
	if err != nil || q.Flags&dnswire.FlagQR != 0 || len(q.Questions) == 0 {
		return nil
	}
	question := q.Questions[0]
	resp := &dnswire.Message{
		ID:        q.ID,
		Flags:     dnswire.FlagQR | dnswire.FlagRA | dnswire.FlagRD,
		Questions: q.Questions,
	}
	switch {
	case question.Class == dnswire.ClassCH && question.Type == dnswire.TypeTXT &&
		strings.EqualFold(question.Name, "version.bind"):
		txt, err := dnswire.TXTData(software)
		if err != nil {
			return nil
		}
		resp.Answers = []dnswire.RR{{
			Name: question.Name, Type: dnswire.TypeTXT, Class: dnswire.ClassCH, TTL: 0, Data: txt,
		}}
	case question.Class == dnswire.ClassIN && question.Type == dnswire.TypeA:
		resp.Answers = []dnswire.RR{{
			Name: question.Name, Type: dnswire.TypeA, Class: dnswire.ClassIN, TTL: 300,
			Data: []byte{93, 184, 216, 34},
		}}
	case question.Class == dnswire.ClassIN && question.Type == dnswire.TypeAAAA:
		resp.Answers = []dnswire.RR{{
			Name: question.Name, Type: dnswire.TypeAAAA, Class: dnswire.ClassIN, TTL: 300,
			Data: []byte{0x26, 0x06, 0x28, 0x00, 0x02, 0x20, 0, 1, 0x02, 0x48, 0x18, 0x93, 0x25, 0xc8, 0x19, 0x46},
		}}
	default:
		resp.Flags |= dnswire.RcodeNotImp
	}
	out, err := resp.Marshal()
	if err != nil {
		return nil
	}
	return out
}

// dnsSeeds are the forwarder's corner cases: each answer kind, case and
// Unicode folding of version.bind, compression pointers, several
// questions, names that do not re-encode, responses, truncation.
func dnsSeeds(t testing.TB) [][]byte {
	must := func(m *dnswire.Message) []byte {
		b, err := m.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a := must(dnswire.NewQuery(1, "a.example", dnswire.TypeA, dnswire.ClassIN))
	multi := must(&dnswire.Message{ID: 5, Flags: dnswire.FlagRD, Questions: []dnswire.Question{
		{Name: "x.example", Type: dnswire.TypeAAAA, Class: dnswire.ClassIN},
		{Name: "y.example", Type: dnswire.TypeA, Class: dnswire.ClassIN},
	}})
	resp := must(dnswire.NewQuery(6, "a.example", dnswire.TypeA, dnswire.ClassIN))
	resp[2] |= 0x80
	hdr := []byte{0, 7, 1, 0, 0, 1, 0, 0, 0, 0, 0, 0}
	q := func(name ...byte) []byte {
		return append(append(slices.Clone(hdr), name...), 0, 1, 0, 1)
	}
	return [][]byte{
		a,
		must(dnswire.NewQuery(2, "b.example.", dnswire.TypeAAAA, dnswire.ClassIN)),
		must(dnswire.NewVersionBindQuery(3)),
		must(dnswire.NewQuery(4, "VERSION.Bind", dnswire.TypeTXT, dnswire.ClassCH)),
		must(dnswire.NewQuery(4, "ver\u017fion.bind", dnswire.TypeTXT, dnswire.ClassCH)), // long s folds to s
		must(dnswire.NewQuery(4, "version.bind", dnswire.TypeTXT, dnswire.ClassIN)),
		must(dnswire.NewQuery(4, "other.bind", dnswire.TypeTXT, dnswire.ClassCH)),
		must(dnswire.NewQuery(4, "a.example", dnswire.TypeANY, dnswire.ClassIN)),
		multi,
		resp,
		q(0),                                // the root
		q(1, '.', 0),                        // a label that is a dot: re-encodes as the root
		q(3, 'a', '.', 'b', 0),              // a dot inside a label: two labels out
		q(2, '.', 'a', 0),                   // an empty label out: no answer
		q(0xc0, 12),                         // a pointer to itself
		q(0xc0, 18, 0, 1, 0, 1, 1, 'z', 0),  // a forward pointer
		q(0x40),                             // a reserved label type
		append(slices.Clone(a), 0xde, 0xad), // trailing bytes
		a[:len(a)-1],                        // truncated question
		hdr[:11],
		{},
		[]byte("garbage that is not a DNS message"),
	}
}

// FuzzDNSForwarder holds the forwarder byte-identical to its reference,
// silence included, and never panicking.
func FuzzDNSForwarder(f *testing.F) {
	for _, s := range dnsSeeds(f) {
		f.Add(s)
	}
	// The second forwarder's software does not fit a TXT string: its
	// version.bind answer is silence.
	var fwds []*DNSForwarder
	for _, sw := range []string{"dnsmasq-2.45", strings.Repeat("x", 256)} {
		fwds = append(fwds, &DNSForwarder{Software: sw})
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, d := range fwds {
			got, want := d.Handle(data), referenceDNSHandle(d.Software, data)
			if (got == nil) != (want == nil) || !bytes.Equal(got, want) {
				t.Fatalf("software %.12q, query % x:\n got % x\nwant % x", d.Software, data, got, want)
			}
		}
	})
}
