package xmap

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/bloom"
	"repro/internal/ipv6"
	"repro/internal/uint128"
	"repro/internal/wire"
)

// parityCase is one seed of the ClassifyRaw parity corpus. ok and
// strictOK are the verdicts both classifiers must reach with
// StrictSource zero and set to the scanner's source: they pin that the
// corpus exercises the branches its names claim, on top of parity.
type parityCase struct {
	name         string
	raw          []byte
	ok, strictOK bool
}

// parityFixture is the validator, the scanner's source address (the
// StrictSource of the hardened leg) and the seed corpus shared by
// FuzzClassifyRawParity and TestClassifyRawParity.
type parityFixture struct {
	validate Validator
	src      ipv6.Addr
	cases    []parityCase
}

// zeroValDst is a target the parity validator maps to zero, so an error
// quoting a non-echo ICMPv6 packet to it (whose id/seq read as zero)
// validates: the corner where "no echo header" and "value 0" meet.
var zeroValDst = ipv6.MustParseAddr("2001:db8:0:ff::1")

func newParityFixture(tb testing.TB) *parityFixture {
	tb.Helper()
	f := buildFixture(tb)
	s, err := New(Config{Window: window(tb, f), Seed: []byte("parity")}, f.drv)
	if err != nil {
		tb.Fatal(err)
	}
	validate := func(a ipv6.Addr) uint32 {
		if a == zeroValDst {
			return 0
		}
		return s.Validation(a)
	}
	src := f.drv.SourceAddr()
	other := ipv6.MustParseAddr("2001:beef::200")

	// exchange sends one validated echo probe through the simulated
	// topology and returns its single reply.
	exchange := func(dst ipv6.Addr, hop uint8) []byte {
		p := &ICMPEchoProbe{HopLimit: hop}
		pkt, err := p.AppendProbe(nil, src, dst, validate(dst))
		if err != nil {
			tb.Fatal(err)
		}
		if err := f.drv.Send(pkt); err != nil {
			tb.Fatal(err)
		}
		got := f.drv.Recv()
		if len(got) != 1 {
			tb.Fatalf("probe to %s (hop %d): %d replies, want 1", dst, hop, len(got))
		}
		return append([]byte(nil), got[0]...)
	}
	unassigned, err := s.TargetFor(uint128.From64(10))
	if err != nil {
		tb.Fatal(err)
	}
	echo := exchange(f.wans[0], 0)
	noRoute := exchange(unassigned, 0)
	timeExceeded := exchange(f.wans[1], 1)
	for _, c := range []struct {
		raw  []byte
		typ  uint8
		what string
	}{{echo, wire.ICMPEchoReply, "echo reply"}, {noRoute, wire.ICMPDestUnreach, "no-route error"}, {timeExceeded, wire.ICMPTimeExceeded, "time-exceeded error"}} {
		if len(c.raw) <= wire.HeaderLen || c.raw[wire.HeaderLen] != c.typ {
			tb.Fatalf("fixture did not produce a %s", c.what)
		}
	}

	must := func(b []byte, err error) []byte {
		if err != nil {
			tb.Fatal(err)
		}
		return b
	}
	// flip corrupts the ICMPv6 code: validation never reads it, so only
	// the checksum rejects the packet.
	flip := func(b []byte) []byte {
		b = append([]byte(nil), b...)
		b[wire.HeaderLen+1] ^= 0x01
		return b
	}
	responder := ipv6.MustParseAddr("2001:feed::2")
	quoteUDP := must(wire.BuildUDP(src, unassigned, 63, 40000, 53, []byte("q")))
	nonEcho := must(wire.BuildEchoRequest(src, zeroValDst, 63, 0, 0, nil))
	nonEcho[wire.HeaderLen] = 135 // Neighbor Solicitation: no id/seq
	forgedSrc := must(wire.BuildEchoRequest(other, unassigned,
		63, uint16(validate(unassigned)>>16), uint16(validate(unassigned)), nil))
	oddVal := validate(f.wans[2])

	return &parityFixture{validate: validate, src: src, cases: []parityCase{
		{"echo-reply", echo, true, true},
		{"no-route", noRoute, true, true},
		{"time-exceeded", timeExceeded, true, true},
		{"echo-reply/flipped", flip(echo), false, false},
		{"no-route/flipped", flip(noRoute), false, false},
		{"time-exceeded/flipped", flip(timeExceeded), false, false},
		{"payload-past-buffer", echo[:len(echo)-1], false, false},
		{"odd-payload", must(wire.BuildEchoReply(f.wans[2], src, 64,
			uint16(oddVal>>16), uint16(oddVal), []byte("odd"))), true, true},
		{"quoted-udp", must(wire.BuildDestUnreach(responder, src, 64,
			wire.UnreachNoRoute, quoteUDP)), false, false},
		{"quoted-non-echo-zero-value", must(wire.BuildDestUnreach(responder, src, 64,
			wire.UnreachAddress, nonEcho)), true, true},
		{"strict-source-mismatch", must(wire.BuildDestUnreach(responder, src, 64,
			wire.UnreachNoRoute, forgedSrc)), true, false},
		{"empty", nil, false, false},
	}}
}

// classifyParity runs both classifiers on raw with StrictSource zero and
// set, fails t on any disagreement, and returns the two verdicts.
func (pf *parityFixture) classifyParity(t *testing.T, raw []byte) (ok, strictOK bool) {
	t.Helper()
	for i, p := range []*ICMPEchoProbe{{}, {StrictSource: pf.src}} {
		got, gotOK := p.ClassifyRaw(raw, pf.validate)
		var want Response
		var wantOK bool
		if sum, err := wire.ParsePacket(raw); err == nil {
			want, wantOK = p.Classify(sum, pf.validate)
		}
		if gotOK != wantOK || !reflect.DeepEqual(got, want) {
			t.Fatalf("StrictSource set=%v: ClassifyRaw = %+v, %v; ParsePacket+Classify = %+v, %v",
				i == 1, got, gotOK, want, wantOK)
		}
		if i == 0 {
			ok = gotOK
		} else {
			strictOK = gotOK
		}
	}
	return ok, strictOK
}

// FuzzClassifyRawParity: the scanner's one-pass receive path accepts
// exactly what the general decoder followed by Classify accepts, and
// yields the same Response, for any bytes.
func FuzzClassifyRawParity(f *testing.F) {
	pf := newParityFixture(f)
	for _, c := range pf.cases {
		f.Add(c.raw)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		pf.classifyParity(t, raw)
	})
}

// TestClassifyRawParity runs the fuzz corpus as a table, also checking
// each case reaches the verdict its name claims.
func TestClassifyRawParity(t *testing.T) {
	pf := newParityFixture(t)
	for _, c := range pf.cases {
		t.Run(c.name, func(t *testing.T) {
			ok, strictOK := pf.classifyParity(t, c.raw)
			if ok != c.ok || strictOK != c.strictOK {
				t.Errorf("accepted = %v (strict %v), want %v (strict %v)", ok, strictOK, c.ok, c.strictOK)
			}
		})
	}
}

// TestBloomDedupRepeatMatchesFilter: the last-responder shortcut changes
// no checkAdd answer. A small filter over a larger key set saturates, so
// the stream crosses false positives as well as true repeats.
func TestBloomDedupRepeatMatchesFilter(t *testing.T) {
	const seed = 0x5eed
	f1, err := bloom.NewSeeded(1024, 1e-4, seed)
	if err != nil {
		t.Fatal(err)
	}
	bare, err := bloom.NewSeeded(1024, 1e-4, seed)
	if err != nil {
		t.Fatal(err)
	}
	d := &bloomDedup{f: f1}
	rng := rand.New(rand.NewSource(1))
	var a ipv6.Addr
	var dups int
	for step := 0; step < 100000; step++ {
		if step == 0 || rng.Intn(4) == 0 { // runs of repeats, mean length 4
			a = ipv6.AddrFrom128(uint128.New(0x20010db8<<32, uint64(rng.Intn(8192))))
		}
		got := d.checkAdd(a)
		want := bare.AddIfAbsentUint64Pair(a.Uint128().Hi, a.Uint128().Lo)
		if got != want {
			t.Fatalf("step %d, %s: checkAdd = %v, bare filter = %v", step, a, got, want)
		}
		if !got {
			dups++
		}
	}
	if dups == 0 || dups == 100000 {
		t.Fatalf("degenerate stream: %d duplicates", dups)
	}
}

// TestValidationValueMatchesDerive: the receive path's value-only PRF is
// derive's validation word, and Validation gives the same answer whether
// or not TargetFor has primed the send cache, at any sub-prefix length.
func TestValidationValueMatchesDerive(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	p := newSubPRF([]byte("value"))
	for i := 0; i < 100000; i++ {
		hi, lo := rng.Uint64(), rng.Uint64()
		if _, _, want := p.derive(hi, lo); p.value(hi, lo) != want {
			t.Fatalf("value(%x, %x) = %08x, derive says %08x", hi, lo, p.value(hi, lo), want)
		}
	}

	for _, w := range []string{"2001:db8::/40-48", "2001:db8::/56-64", "2001:db8::/120-128"} {
		win := ipv6.MustParseWindow(w)
		cfg := Config{Window: win, Seed: []byte("value")}
		s, err := New(cfg, &ChanDriver{})
		if err != nil {
			t.Fatal(err)
		}
		// want derives the value from scratch for dst's sub-prefix.
		want := func(dst ipv6.Addr) uint32 {
			sub := ipv6.MustPrefix(dst, win.To).Addr().Uint128()
			_, _, v := s.prf.derive(sub.Hi, sub.Lo)
			return v
		}
		for i := 0; i < 256; i++ {
			idx := uint128.From64(uint64(i))
			sub, err := win.Sub(idx)
			if err != nil {
				t.Fatal(err)
			}
			// Any address of the sub-prefix, before TargetFor has seen it.
			dst := ipv6.AddrFrom128(sub.Addr().Uint128().Or(uint128.New(rng.Uint64(), rng.Uint64()).And(uint128.Max.Rsh(uint(win.To)))))
			before := s.Validation(dst)
			target, err := s.TargetFor(idx)
			if err != nil {
				t.Fatal(err)
			}
			if got := s.Validation(target); got != before || got != want(target) {
				t.Fatalf("%s idx %v: Validation = %08x after TargetFor, %08x before, derive %08x",
					w, idx, got, before, want(target))
			}
			// A miss on another sub-prefix leaves the send cache intact.
			cached, haveCached := s.lastSub, s.haveSub
			stray := ipv6.AddrFrom128(uint128.New(rng.Uint64(), rng.Uint64()))
			if got := s.Validation(stray); got != want(stray) {
				t.Fatalf("%s: Validation(%s) = %08x, derive %08x", w, stray, got, want(stray))
			}
			if s.lastSub != cached || s.haveSub != haveCached {
				t.Fatalf("%s: Validation(%s) replaced the send cache", w, stray)
			}
		}
	}
}

// TestNewValidatorMatchesScanner: the exported validator, applied to a
// sub-prefix base address, is the value a Scanner keyed by the same seed
// gives every address of that sub-prefix — including under the default
// seed an empty one stands for.
func TestNewValidatorMatchesScanner(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, seed := range [][]byte{[]byte("loop"), nil} {
		validate := NewValidator(seed)
		for _, w := range []string{"2001:db8::/40-48", "2001:db8::/56-64", "2001:db8::/120-128"} {
			win := ipv6.MustParseWindow(w)
			s, err := New(Config{Window: win, Seed: seed}, &ChanDriver{})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 256; i++ {
				idx := uint128.From64(rng.Uint64() & 0xff)
				sub, err := win.Sub(idx)
				if err != nil {
					t.Fatal(err)
				}
				target, err := s.TargetFor(idx)
				if err != nil {
					t.Fatal(err)
				}
				host := uint128.New(rng.Uint64(), rng.Uint64()).And(uint128.Max.Rsh(uint(win.To)))
				want := validate(sub.Addr())
				for _, dst := range []ipv6.Addr{sub.Addr(), target, ipv6.AddrFrom128(sub.Addr().Uint128().Or(host))} {
					if got := s.Validation(dst); got != want {
						t.Fatalf("seed %q %s: Validation(%s) = %08x, NewValidator(%s) = %08x",
							seed, w, dst, got, sub.Addr(), want)
					}
				}
			}
		}
	}
}
