package dnswire

import (
	"bytes"
	"errors"
	"testing"
)

func TestQueryRoundTrip(t *testing.T) {
	q := NewQuery(0x1234, "www.example.com", TypeA, ClassIN)
	b, err := q.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	m, err := Parse(b)
	if err != nil {
		t.Fatal(err)
	}
	if m.ID != 0x1234 || m.Flags&FlagRD == 0 {
		t.Errorf("header = %+v", m)
	}
	if len(m.Questions) != 1 {
		t.Fatalf("questions = %d", len(m.Questions))
	}
	got := m.Questions[0]
	if got.Name != "www.example.com" || got.Type != TypeA || got.Class != ClassIN {
		t.Errorf("question = %+v", got)
	}
}

func TestResponseWithAnswerRoundTrip(t *testing.T) {
	resp := &Message{
		ID:    7,
		Flags: FlagQR | FlagRA | RcodeNoError,
		Questions: []Question{
			{Name: "example.com", Type: TypeA, Class: ClassIN},
		},
		Answers: []RR{
			{Name: "example.com", Type: TypeA, Class: ClassIN, TTL: 300, Data: []byte{93, 184, 216, 34}},
		},
		Authority: []RR{
			{Name: "example.com", Type: TypePTR, Class: ClassIN, TTL: 60, Data: []byte{0}},
		},
		Extra: []RR{
			{Name: ".", Type: TypeTXT, Class: ClassIN, TTL: 0, Data: []byte{2, 'h', 'i'}},
		},
	}
	b, err := resp.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	m, err := Parse(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Answers) != 1 || len(m.Authority) != 1 || len(m.Extra) != 1 {
		t.Fatalf("sections = %d/%d/%d", len(m.Answers), len(m.Authority), len(m.Extra))
	}
	a := m.Answers[0]
	if a.Name != "example.com" || a.TTL != 300 || !bytes.Equal(a.Data, []byte{93, 184, 216, 34}) {
		t.Errorf("answer = %+v", a)
	}
	if m.Extra[0].Name != "." {
		t.Errorf("root name = %q", m.Extra[0].Name)
	}
}

func TestVersionBindQuery(t *testing.T) {
	q := NewVersionBindQuery(9)
	if q.Questions[0].Name != "version.bind" || q.Questions[0].Class != ClassCH || q.Questions[0].Type != TypeTXT {
		t.Errorf("question = %+v", q.Questions[0])
	}
}

func TestTXTDataRoundTrip(t *testing.T) {
	d, err := TXTData("dnsmasq-2.45", "extra")
	if err != nil {
		t.Fatal(err)
	}
	strs, err := ParseTXTData(d)
	if err != nil {
		t.Fatal(err)
	}
	if len(strs) != 2 || strs[0] != "dnsmasq-2.45" || strs[1] != "extra" {
		t.Errorf("strs = %v", strs)
	}
	if _, err := ParseTXTData([]byte{5, 'a'}); err == nil {
		t.Error("truncated TXT accepted")
	}
	long := make([]byte, 300)
	if _, err := TXTData(string(long)); err == nil {
		t.Error("oversized TXT string accepted")
	}
}

func TestCompressionPointerParsing(t *testing.T) {
	// Hand-built response: question example.com A IN, answer name is a
	// pointer to offset 12.
	b := []byte{
		0x00, 0x01, // ID
		0x80, 0x00, // QR
		0x00, 0x01, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00,
		7, 'e', 'x', 'a', 'm', 'p', 'l', 'e', 3, 'c', 'o', 'm', 0,
		0x00, 0x01, 0x00, 0x01, // A IN
		0xc0, 12, // pointer to offset 12
		0x00, 0x01, 0x00, 0x01, // A IN
		0x00, 0x00, 0x01, 0x2c, // TTL 300
		0x00, 0x04, 1, 2, 3, 4,
	}
	m, err := Parse(b)
	if err != nil {
		t.Fatal(err)
	}
	if m.Answers[0].Name != "example.com" {
		t.Errorf("compressed name = %q", m.Answers[0].Name)
	}
}

func TestCompressionPointerLoopRejected(t *testing.T) {
	b := []byte{
		0x00, 0x01, 0x80, 0x00,
		0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
		0xc0, 12, // pointer to itself
		0x00, 0x01, 0x00, 0x01,
	}
	if _, err := Parse(b); err == nil {
		t.Error("pointer loop accepted")
	}
}

// TestCompressionPointerMustPointBack: a pointer names a prior
// occurrence of a name (RFC 1035 §4.1.4), so one to itself or to a later
// offset is rejected with its own error, wherever the name is read.
func TestCompressionPointerMustPointBack(t *testing.T) {
	hdr := []byte{0x00, 0x01, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00}
	for _, tc := range []struct {
		name string
		body []byte
	}{
		{"self", []byte{0xc0, 12, 0x00, 0x01, 0x00, 0x01}},
		{"forward", []byte{0xc0, 18, 0x00, 0x01, 0x00, 0x01, 1, 'z', 0}},
		{"forward after a label", []byte{1, 'a', 0xc0, 20, 0x00, 0x01, 0x00, 0x01, 1, 'z', 0}},
	} {
		msg := append(append([]byte{}, hdr...), tc.body...)
		if _, err := Parse(msg); !errors.Is(err, errPtrForward) {
			t.Errorf("%s: Parse error %v, want %v", tc.name, err, errPtrForward)
		}
		if Check(msg) {
			t.Errorf("%s: Check accepted the message", tc.name)
		}
		if _, _, err := AppendParsedName(nil, msg, 12); !errors.Is(err, errPtrForward) {
			t.Errorf("%s: AppendParsedName error %v, want %v", tc.name, err, errPtrForward)
		}
	}
}

// TestCompressionPointerHopBound: backward pointers cannot loop, but a
// chain of them is still followed for at most 32 hops.
func TestCompressionPointerHopBound(t *testing.T) {
	msg := []byte{1, 'a', 0} // the name at offset 0
	for i := 0; i < 33; i++ {
		prev := 0
		if i > 0 {
			prev = len(msg) - 2
		}
		msg = append(msg, 0xc0, byte(prev))
	}
	if name, _, err := AppendParsedName(nil, msg, 3+2*31); err != nil || string(name) != "a" {
		t.Errorf("32 hops: %q, %v; want \"a\"", name, err)
	}
	if _, _, err := AppendParsedName(nil, msg, 3+2*32); !errors.Is(err, errPtrLoop) {
		t.Errorf("33 hops: error %v, want %v", err, errPtrLoop)
	}
}

func TestParseRejectsMalformed(t *testing.T) {
	cases := [][]byte{
		nil,
		{1, 2, 3},
		// Header claims one question but no body.
		{0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0},
		// Label length runs past end.
		{0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 60, 'a'},
		// Reserved label type.
		{0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0x80, 0, 0, 1, 0, 1},
	}
	for i, b := range cases {
		if _, err := Parse(b); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestMarshalRejectsBadNames(t *testing.T) {
	for _, name := range []string{"a..b", string(make([]byte, 70)) + ".com"} {
		q := NewQuery(1, name, TypeA, ClassIN)
		if _, err := q.Marshal(); err == nil {
			t.Errorf("name %q accepted", name)
		}
	}
}

func TestRcode(t *testing.T) {
	m := &Message{Flags: FlagQR | RcodeNXDomain}
	if m.Rcode() != RcodeNXDomain {
		t.Errorf("Rcode = %d", m.Rcode())
	}
}

func TestTrailingDotEquivalence(t *testing.T) {
	a := NewQuery(1, "example.com.", TypeA, ClassIN)
	b := NewQuery(1, "example.com", TypeA, ClassIN)
	ba, err := a.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	bb, err := b.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ba, bb) {
		t.Error("trailing dot changed encoding")
	}
}
