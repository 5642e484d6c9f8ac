package ipv6

import (
	"math/rand"
	"net/netip"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/uint128"
)

func randAddr(r *rand.Rand) Addr {
	return AddrFrom128(uint128.New(r.Uint64(), r.Uint64()))
}

// Generate lets testing/quick produce random addresses.
func (Addr) Generate(r *rand.Rand, _ int) reflect.Value {
	return reflect.ValueOf(randAddr(r))
}

// checkText fails unless AppendTo (onto a non-empty slice) and String
// both render a exactly as the standard library's RFC 5952 formatter
// does.
func checkText(t *testing.T, a Addr) {
	t.Helper()
	want := netip.AddrFrom16(a.Bytes()).String()
	if got := string(a.AppendTo([]byte("x,"))); got != "x,"+want {
		t.Errorf("AppendTo(%x) = %q, want %q", a.Bytes(), got, "x,"+want)
	}
	if got := a.String(); got != want {
		t.Errorf("String(%x) = %q, want %q", a.Bytes(), got, want)
	}
}

func TestStringMatchesNetip(t *testing.T) {
	// Uniform addresses almost never hold a zero hextet, so every second
	// one has a random subset of its hextets zeroed and another subset
	// cut to one or two digits: zero runs of every length and position,
	// ties included, and every leading-zero count.
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 100000; i++ {
		a := randAddr(r)
		if i%2 == 1 {
			seg := a.Segments()
			zero, short := r.Intn(256), r.Intn(256)
			for j := range seg {
				if zero>>j&1 == 1 {
					seg[j] = 0
				} else if short>>j&1 == 1 {
					seg[j] &= 0xff >> (4 * (j & 1))
				}
			}
			a = AddrFromSegments(seg)
		}
		checkText(t, a)
	}
}

func FuzzAddrAppendTo(f *testing.F) {
	for _, s := range []string{
		"::", "::1", "1::", "1:0:0:2::", // leading, trailing, longest-run choice
		"1:0:0:2:0:0:3:4", // two equal-length zero runs: leftmost wins
		"1:2:3:0:5:6:7:8", // a lone zero hextet is not compressed
		"::ffff:1.2.3.4",
		"ffff:ffff:ffff:ffff:ffff:ffff:ffff:ffff",
	} {
		u := MustParseAddr(s).Uint128()
		f.Add(u.Hi, u.Lo)
	}
	f.Fuzz(func(t *testing.T, hi, lo uint64) {
		checkText(t, AddrFrom128(uint128.New(hi, lo)))
	})
}

func TestStringAllocatesOnce(t *testing.T) {
	a := MustParseAddr("2001:1db8:1234:5678:9abc:def0:1234:5678")
	buf := make([]byte, 0, maxAddrText)
	if n := testing.AllocsPerRun(100, func() { buf = a.AppendTo(buf[:0]) }); n != 0 {
		t.Errorf("AppendTo allocates %v times per call", n)
	}
	if len(buf) != maxAddrText {
		t.Errorf("longest form is %d bytes, maxAddrText says %d", len(buf), maxAddrText)
	}
	var s string
	if n := testing.AllocsPerRun(100, func() { s = a.String() }); n != 1 {
		t.Errorf("String allocates %v times per call (%q)", n, s)
	}
}

func TestStringKnownForms(t *testing.T) {
	cases := []struct{ in, want string }{
		{"::", "::"},
		{"::1", "::1"},
		{"2001:db8::", "2001:db8::"},
		{"2001:0db8:0000:0000:0000:0000:0000:0001", "2001:db8::1"},
		{"2001:db8:0:0:1:0:0:1", "2001:db8::1:0:0:1"},
		{"1:0:0:2:0:0:0:3", "1:0:0:2::3"},
		{"fe80:0:0:0:0:0:0:0", "fe80::"},
		{"ffff:ffff:ffff:ffff:ffff:ffff:ffff:ffff", "ffff:ffff:ffff:ffff:ffff:ffff:ffff:ffff"},
		{"0:1:2:3:4:5:6:7", "0:1:2:3:4:5:6:7"},
	}
	for _, c := range cases {
		a, err := ParseAddr(c.in)
		if err != nil {
			t.Errorf("ParseAddr(%q): %v", c.in, err)
			continue
		}
		if got := a.String(); got != c.want {
			t.Errorf("ParseAddr(%q).String() = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestParseRoundTrip(t *testing.T) {
	f := func(a Addr) bool {
		p, err := ParseAddr(a.String())
		return err == nil && p == a
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestParseRejectsMalformed(t *testing.T) {
	bad := []string{
		"", ":", ":::", "1:2:3", "1:2:3:4:5:6:7:8:9",
		"12345::", "g::", "1::2::3", ":1::2", "1:2:3:4:5:6:7:",
		"2001:db8::1::", "::0:1:2:3:4:5:6:7",
	}
	for _, s := range bad {
		if _, err := ParseAddr(s); err == nil {
			t.Errorf("ParseAddr(%q) unexpectedly succeeded", s)
		}
	}
}

func TestSegmentsRoundTrip(t *testing.T) {
	f := func(a Addr) bool {
		return AddrFromSegments(a.Segments()) == a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestIIDAndWithIID(t *testing.T) {
	a := MustParseAddr("2001:db8:1234:5678:aaaa:bbbb:cccc:dddd")
	if got := a.IID(); got != 0xaaaabbbbccccdddd {
		t.Errorf("IID() = %x", got)
	}
	b := a.WithIID(0x1)
	if b.String() != "2001:db8:1234:5678::1" {
		t.Errorf("WithIID = %s", b)
	}
	if a.Prefix64().String() != "2001:db8:1234:5678::/64" {
		t.Errorf("Prefix64 = %s", a.Prefix64())
	}
}

func TestAddrOrdering(t *testing.T) {
	a := MustParseAddr("2001:db8::1")
	b := MustParseAddr("2001:db8::2")
	if !a.Less(b) || b.Less(a) || a.Cmp(b) != -1 || b.Cmp(a) != 1 || a.Cmp(a) != 0 {
		t.Error("ordering inconsistent")
	}
	if a.Next() != b.WithIID(2) {
		t.Errorf("Next() = %s", a.Next())
	}
}

func TestPrefixBasics(t *testing.T) {
	p := MustParsePrefix("2001:db8::/32")
	if p.Bits() != 32 {
		t.Fatalf("Bits = %d", p.Bits())
	}
	if !p.Contains(MustParseAddr("2001:db8:ffff::1")) {
		t.Error("Contains inside = false")
	}
	if p.Contains(MustParseAddr("2001:db9::")) {
		t.Error("Contains outside = true")
	}
	if got := p.Last().String(); got != "2001:db8:ffff:ffff:ffff:ffff:ffff:ffff" {
		t.Errorf("Last = %s", got)
	}
	// Host bits are masked off at construction.
	q := MustParsePrefix("2001:db8::1/32")
	if q != p {
		t.Errorf("masking failed: %s != %s", q, p)
	}
}

func TestPrefixSubAndIndex(t *testing.T) {
	p := MustParsePrefix("2001:db8::/32")
	sub, err := p.Sub(64, uint128.From64(0x12345678))
	if err != nil {
		t.Fatal(err)
	}
	if sub.String() != "2001:db8:1234:5678::/64" {
		t.Errorf("Sub = %s", sub)
	}
	idx, err := p.SubIndex(sub.Addr(), 64)
	if err != nil {
		t.Fatal(err)
	}
	if idx != uint128.From64(0x12345678) {
		t.Errorf("SubIndex = %s", idx)
	}
	// Out-of-range index.
	if _, err := p.Sub(33, uint128.From64(2)); err == nil {
		t.Error("Sub with out-of-range index succeeded")
	}
	// Invalid lengths.
	if _, err := p.Sub(32, uint128.Zero); err == nil {
		t.Error("Sub with equal length succeeded")
	}
	if _, err := p.Sub(129, uint128.Zero); err == nil {
		t.Error("Sub with length 129 succeeded")
	}
}

func TestPrefixSubIndexInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	p := MustParsePrefix("2001:db8::/28")
	for i := 0; i < 500; i++ {
		bits := 29 + rng.Intn(100) // 29..128
		n, ok := p.NumSub(bits)
		if !ok {
			t.Fatalf("NumSub(%d) failed", bits)
		}
		idx := uint128.From64(rng.Uint64()).Mod(n)
		sub, err := p.Sub(bits, idx)
		if err != nil {
			t.Fatalf("Sub(%d, %s): %v", bits, idx, err)
		}
		got, err := p.SubIndex(sub.Addr(), bits)
		if err != nil {
			t.Fatalf("SubIndex: %v", err)
		}
		if got != idx {
			t.Fatalf("round trip bits=%d: got %s want %s", bits, got, idx)
		}
	}
}

func TestPrefixOverlaps(t *testing.T) {
	a := MustParsePrefix("2001:db8::/32")
	b := MustParsePrefix("2001:db8:1234::/48")
	c := MustParsePrefix("2001:db9::/32")
	if !a.Overlaps(b) || !b.Overlaps(a) {
		t.Error("nested prefixes do not overlap")
	}
	if a.Overlaps(c) {
		t.Error("disjoint prefixes overlap")
	}
}

func TestWindowParse(t *testing.T) {
	w := MustParseWindow("2001:db8::/32-64")
	if w.Width() != 32 {
		t.Errorf("Width = %d", w.Width())
	}
	sz, ok := w.Size()
	if !ok || sz != uint128.One.Lsh(32) {
		t.Errorf("Size = %s, %v", sz, ok)
	}
	if w.String() != "2001:db8::/32-64" {
		t.Errorf("String = %s", w)
	}
	sub, err := w.Sub(uint128.From64(1))
	if err != nil || sub.String() != "2001:db8:0:1::/64" {
		t.Errorf("Sub(1) = %v, %v", sub, err)
	}
	for _, bad := range []string{"2001:db8::/32", "2001:db8::/32-32", "2001:db8::/32-200", "x/32-64"} {
		if _, err := ParseWindow(bad); err == nil {
			t.Errorf("ParseWindow(%q) succeeded", bad)
		}
	}
}

func TestV4MappedMixedNotation(t *testing.T) {
	a := V4Mapped(0xcb007136) // 203.0.113.54
	if got := a.String(); got != "::ffff:203.0.113.54" {
		t.Errorf("String = %q", got)
	}
	p, err := ParseAddr("::ffff:203.0.113.54")
	if err != nil || p != a {
		t.Errorf("ParseAddr mixed = %v, %v", p, err)
	}
	// netip agrees on the rendering.
	b := a.Bytes()
	if want := netip.AddrFrom16(b).String(); want != a.String() {
		t.Errorf("netip renders %q, we render %q", want, a.String())
	}
	// Mixed notation in a full address.
	full, err := ParseAddr("64:ff9b::192.0.2.33")
	if err != nil {
		t.Fatal(err)
	}
	if full != MustParseAddr("64:ff9b::c000:221") {
		t.Errorf("NAT64 mixed = %s", full)
	}
	// AsV4 round trip.
	v4, ok := a.AsV4()
	if !ok || v4 != 0xcb007136 {
		t.Errorf("AsV4 = %x, %v", v4, ok)
	}
	if _, ok := MustParseAddr("2001:db8::1").AsV4(); ok {
		t.Error("non-mapped address claimed v4")
	}
}

func TestParseMixedNotationRejects(t *testing.T) {
	for _, bad := range []string{
		"::ffff:1.2.3", "::ffff:1.2.3.4.5", "::ffff:256.1.1.1",
		"::ffff:01.2.3.4", "::ffff:1.2.3.x", "1.2.3.4",
	} {
		if _, err := ParseAddr(bad); err == nil {
			t.Errorf("ParseAddr(%q) accepted", bad)
		}
	}
}

// TestLengthGrammarStrict: prefix and window lengths are decimal digits
// with no sign, space or leading zero, at most 128.
func TestLengthGrammarStrict(t *testing.T) {
	for _, tc := range []struct {
		prefix, window string // "" skips the form
		ok             bool
	}{
		{"2001:db8::/32", "2001:db8::/32-48", true},
		{"::/0", "::/0-128", true},
		{"2001:db8::1/128", "", true},
		{"2001:db8::/+32", "2001:db8::/+32-48", false},
		{"2001:db8::/032", "2001:db8::/032-48", false},
		{"", "2001:db8::/32-+48", false},
		{"", "2001:db8::/32-048", false},
		{"::/00", "::/0-00", false},
		{"2001:db8::/-0", "2001:db8::/32--48", false},
		{"2001:db8::/ 32", "2001:db8::/32- 48", false},
		{"2001:db8::/32 ", "2001:db8::/32-48 ", false},
		{"2001:db8::/", "2001:db8::/32-", false},
		{"2001:db8::/129", "2001:db8::/32-129", false},
		{"2001:db8::/4294967328", "2001:db8::/32-18446744073709551664", false},
		{"2001:db8::/3_2", "2001:db8::/32-4_8", false},
		{"2001:db8::/0x20", "2001:db8::/32-0x30", false},
		{"2001:db8::/３２", "2001:db8::/32-４８", false},
	} {
		if tc.prefix != "" {
			if _, err := ParsePrefix(tc.prefix); (err == nil) != tc.ok {
				t.Errorf("ParsePrefix(%q): err %v, want ok %v", tc.prefix, err, tc.ok)
			}
		}
		if tc.window != "" {
			if _, err := ParseWindow(tc.window); (err == nil) != tc.ok {
				t.Errorf("ParseWindow(%q): err %v, want ok %v", tc.window, err, tc.ok)
			}
		}
	}
	for _, tc := range []struct {
		s     string
		width int
		want  int
		ok    bool
	}{
		{"0", 32, 0, true}, {"32", 32, 32, true}, {"33", 32, 0, false},
		{"128", 128, 128, true}, {"99999999999999999999", 128, 0, false},
		{"", 32, 0, false}, {"01", 32, 0, false}, {"+1", 32, 0, false},
	} {
		got, err := ParseLength(tc.s, tc.width)
		if (err == nil) != tc.ok || got != tc.want {
			t.Errorf("ParseLength(%q, %d) = %d, %v; want %d, ok %v", tc.s, tc.width, got, err, tc.want, tc.ok)
		}
	}
}

// FuzzParseRoundTrip: whatever ParsePrefix or ParseWindow accepts has a
// canonical form (RFC 5952 address, masked, plain decimal lengths) that
// parses back to the same value and formats to itself again.
func FuzzParseRoundTrip(f *testing.F) {
	for _, s := range []string{
		"2001:db8::/32", "2001:db8::1/32", "::/0", "::ffff:1.2.3.4/120",
		"2001:DB8:0:0::/64", "2001:db8::/32-64", "2001:db8::/+32", "2001:db8::/032-48",
		"2001:db8::/32-+48", "::/0-128", "1::/129",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		if p, err := ParsePrefix(s); err == nil {
			c := p.String()
			q, err := ParsePrefix(c)
			if err != nil || q != p || q.String() != c {
				t.Fatalf("ParsePrefix(%q) = %s, which parses to %s, %v", s, c, q, err)
			}
		}
		if w, err := ParseWindow(s); err == nil {
			c := w.String()
			v, err := ParseWindow(c)
			if err != nil || v != w || v.String() != c {
				t.Fatalf("ParseWindow(%q) = %s, which parses to %s, %v", s, c, v, err)
			}
		}
	})
}
