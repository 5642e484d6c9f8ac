package uint128

import (
	"math/big"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

var bigMod = new(big.Int).Lsh(big.NewInt(1), 128) // 2^128

func (u Uint128) toBig() *big.Int { return u.Big() }

func fromBigWrap(b *big.Int) Uint128 {
	m := new(big.Int).Mod(b, bigMod)
	u, ok := FromBig(m)
	if !ok {
		panic("fromBigWrap: out of range after mod")
	}
	return u
}

// Generate lets testing/quick produce random Uint128 values.
func (Uint128) Generate(r *rand.Rand, _ int) reflect.Value {
	return reflect.ValueOf(Uint128{Hi: r.Uint64(), Lo: r.Uint64()})
}

func TestBasicConstants(t *testing.T) {
	if !Zero.IsZero() {
		t.Error("Zero.IsZero() = false")
	}
	if One.IsZero() {
		t.Error("One.IsZero() = true")
	}
	if Max.Add(One) != Zero {
		t.Error("Max+1 != 0")
	}
	if Zero.Sub(One) != Max {
		t.Error("0-1 != Max")
	}
}

func TestBytesRoundTrip(t *testing.T) {
	f := func(u Uint128) bool {
		b := u.Bytes()
		return FromBytes(b[:]) == u
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBigRoundTrip(t *testing.T) {
	f := func(u Uint128) bool {
		v, ok := FromBig(u.Big())
		return ok && v == u
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFromBigRejects(t *testing.T) {
	if _, ok := FromBig(big.NewInt(-1)); ok {
		t.Error("FromBig(-1) accepted")
	}
	big129 := new(big.Int).Lsh(big.NewInt(1), 128)
	if _, ok := FromBig(big129); ok {
		t.Error("FromBig(2^128) accepted")
	}
}

func TestAddMatchesBig(t *testing.T) {
	f := func(u, v Uint128) bool {
		want := fromBigWrap(new(big.Int).Add(u.toBig(), v.toBig()))
		return u.Add(v) == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSubMatchesBig(t *testing.T) {
	f := func(u, v Uint128) bool {
		want := fromBigWrap(new(big.Int).Sub(u.toBig(), v.toBig()))
		return u.Sub(v) == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMulFullMatchesBig(t *testing.T) {
	f := func(u, v Uint128) bool {
		hi, lo := u.MulFull(v)
		got := new(big.Int).Add(new(big.Int).Lsh(hi.toBig(), 128), lo.toBig())
		want := new(big.Int).Mul(u.toBig(), v.toBig())
		return got.Cmp(want) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDivMatchesBig(t *testing.T) {
	f := func(u, v Uint128) bool {
		if v.IsZero() {
			return true
		}
		q, r := u.Div(v)
		wq, wr := new(big.Int).QuoRem(u.toBig(), v.toBig(), new(big.Int))
		return q.toBig().Cmp(wq) == 0 && r.toBig().Cmp(wr) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDiv64MatchesBig(t *testing.T) {
	f := func(u Uint128, v uint64) bool {
		if v == 0 {
			return true
		}
		q, r := u.Div64(v)
		wq, wr := new(big.Int).QuoRem(u.toBig(), new(big.Int).SetUint64(v), new(big.Int))
		return q.toBig().Cmp(wq) == 0 && r == wr.Uint64()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDivPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Div by zero did not panic")
		}
	}()
	One.Div(Zero)
}

func TestShiftsMatchBig(t *testing.T) {
	f := func(u Uint128, nRaw uint8) bool {
		n := uint(nRaw) % 140 // include out-of-range shifts
		l := fromBigWrap(new(big.Int).Lsh(u.toBig(), n))
		r := fromBigWrap(new(big.Int).Rsh(u.toBig(), n))
		return u.Lsh(n) == l && u.Rsh(n) == r
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBitwiseOps(t *testing.T) {
	f := func(u, v Uint128) bool {
		and := fromBigWrap(new(big.Int).And(u.toBig(), v.toBig()))
		or := fromBigWrap(new(big.Int).Or(u.toBig(), v.toBig()))
		xor := fromBigWrap(new(big.Int).Xor(u.toBig(), v.toBig()))
		return u.And(v) == and && u.Or(v) == or && u.Xor(v) == xor &&
			u.Not().Not() == u
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBitGetSet(t *testing.T) {
	f := func(u Uint128, iRaw uint8) bool {
		i := uint(iRaw) % 128
		if u.SetBit(i, 1).Bit(i) != 1 {
			return false
		}
		if u.SetBit(i, 0).Bit(i) != 0 {
			return false
		}
		// Setting a bit to its current value is the identity.
		return u.SetBit(i, u.Bit(i)) == u
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCountsMatchBig(t *testing.T) {
	f := func(u Uint128) bool {
		b := u.toBig()
		return u.BitLen() == b.BitLen()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLeadingZeros(t *testing.T) {
	cases := []struct {
		u    Uint128
		lead int
	}{
		{Zero, 128},
		{One, 127},
		{Max, 0},
		{New(1, 0), 63},
		{New(0, 1<<63), 64},
	}
	for _, c := range cases {
		if got := c.u.LeadingZeros(); got != c.lead {
			t.Errorf("LeadingZeros(%s) = %d, want %d", c.u, got, c.lead)
		}
	}
}

func TestMulModMatchesBig(t *testing.T) {
	f := func(u, v, m Uint128) bool {
		if m.IsZero() {
			return true
		}
		got := u.MulMod(v, m)
		want := new(big.Int).Mul(u.toBig(), v.toBig())
		want.Mod(want, m.toBig())
		return got.toBig().Cmp(want) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestMulMod64FastPath(t *testing.T) {
	f := func(a, b, m uint64) bool {
		if m == 0 {
			return true
		}
		got := From64(a).MulMod(From64(b), From64(m))
		want := new(big.Int).Mul(new(big.Int).SetUint64(a), new(big.Int).SetUint64(b))
		want.Mod(want, new(big.Int).SetUint64(m))
		return got.toBig().Cmp(want) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestExpModMatchesBig(t *testing.T) {
	f := func(u Uint128, e uint16, m Uint128) bool {
		if m.IsZero() {
			return true
		}
		got := u.ExpMod(From64(uint64(e)), m)
		want := new(big.Int).Exp(u.toBig(), new(big.Int).SetUint64(uint64(e)), m.toBig())
		return got.toBig().Cmp(want) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestExpModFermat(t *testing.T) {
	// Fermat's little theorem with a known 64-bit prime: a^(p-1) == 1 mod p.
	const p = 0xffffffffffffffc5 // largest prime < 2^64
	for _, a := range []uint64{2, 3, 12345, 1 << 40} {
		got := From64(a).ExpMod(From64(p-1), From64(p))
		if got != One {
			t.Errorf("a=%d: a^(p-1) mod p = %s, want 1", a, got)
		}
	}
}

func TestString(t *testing.T) {
	cases := []struct {
		u   Uint128
		dec string
	}{
		{Zero, "0"},
		{One, "1"},
		{New(1, 0), "18446744073709551616"},
		{Max, "340282366920938463463374607431768211455"},
	}
	for _, c := range cases {
		if got := c.u.String(); got != c.dec {
			t.Errorf("String() = %q, want %q", got, c.dec)
		}
	}
}

func TestCmpOrdering(t *testing.T) {
	f := func(u, v Uint128) bool {
		c := u.Cmp(v)
		switch {
		case u == v:
			return c == 0
		case u.toBig().Cmp(v.toBig()) < 0:
			return c == -1 && u.Less(v)
		default:
			return c == 1 && !u.Less(v)
		}
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
