// Package uint128 implements a 128-bit unsigned integer.
//
// The type is the arithmetic backbone of the repository: IPv6 addresses,
// prefix windows, and the cyclic-group permutation all operate on 128-bit
// quantities. All operations are constant-size (no allocation) except the
// conversions to and from math/big.
package uint128

import (
	"encoding/binary"
	"fmt"
	"math/big"
	"math/bits"
)

// Uint128 is an unsigned 128-bit integer, stored as two 64-bit limbs.
// The zero value is the number zero and is ready to use.
type Uint128 struct {
	Hi uint64 // most-significant 64 bits
	Lo uint64 // least-significant 64 bits
}

// Common constants.
var (
	Zero = Uint128{}
	One  = Uint128{Lo: 1}
	Max  = Uint128{Hi: ^uint64(0), Lo: ^uint64(0)}
)

// New returns the Uint128 with the given high and low limbs.
func New(hi, lo uint64) Uint128 { return Uint128{Hi: hi, Lo: lo} }

// From64 returns v as a Uint128.
func From64(v uint64) Uint128 { return Uint128{Lo: v} }

// FromBytes interprets b as a big-endian 128-bit integer.
// It panics if len(b) != 16.
func FromBytes(b []byte) Uint128 {
	if len(b) != 16 {
		panic(fmt.Sprintf("uint128: FromBytes on %d bytes", len(b)))
	}
	return Uint128{
		Hi: binary.BigEndian.Uint64(b[0:8]),
		Lo: binary.BigEndian.Uint64(b[8:16]),
	}
}

// Bytes returns the big-endian 16-byte representation of u.
func (u Uint128) Bytes() [16]byte {
	var b [16]byte
	binary.BigEndian.PutUint64(b[0:8], u.Hi)
	binary.BigEndian.PutUint64(b[8:16], u.Lo)
	return b
}

// IsZero reports whether u == 0.
func (u Uint128) IsZero() bool { return u.Hi == 0 && u.Lo == 0 }

// Cmp compares u and v, returning -1 if u < v, 0 if u == v, +1 if u > v.
func (u Uint128) Cmp(v Uint128) int {
	switch {
	case u.Hi < v.Hi:
		return -1
	case u.Hi > v.Hi:
		return 1
	case u.Lo < v.Lo:
		return -1
	case u.Lo > v.Lo:
		return 1
	}
	return 0
}

// Less reports whether u < v.
func (u Uint128) Less(v Uint128) bool { return u.Cmp(v) < 0 }

// Add returns u + v, wrapping on overflow.
func (u Uint128) Add(v Uint128) Uint128 {
	lo, carry := bits.Add64(u.Lo, v.Lo, 0)
	hi, _ := bits.Add64(u.Hi, v.Hi, carry)
	return Uint128{Hi: hi, Lo: lo}
}

// Add64 returns u + v, wrapping on overflow.
func (u Uint128) Add64(v uint64) Uint128 {
	lo, carry := bits.Add64(u.Lo, v, 0)
	return Uint128{Hi: u.Hi + carry, Lo: lo}
}

// Sub returns u - v, wrapping on underflow.
func (u Uint128) Sub(v Uint128) Uint128 {
	lo, borrow := bits.Sub64(u.Lo, v.Lo, 0)
	hi, _ := bits.Sub64(u.Hi, v.Hi, borrow)
	return Uint128{Hi: hi, Lo: lo}
}

// Sub64 returns u - v, wrapping on underflow.
func (u Uint128) Sub64(v uint64) Uint128 {
	lo, borrow := bits.Sub64(u.Lo, v, 0)
	return Uint128{Hi: u.Hi - borrow, Lo: lo}
}

// Mul64 returns the low 128 bits of u * v.
func (u Uint128) Mul64(v uint64) Uint128 {
	hi, lo := bits.Mul64(u.Lo, v)
	hi += u.Hi * v
	return Uint128{Hi: hi, Lo: lo}
}

// MulFull returns the full 256-bit product of u and v as (hi, lo).
func (u Uint128) MulFull(v Uint128) (hi, lo Uint128) {
	// Schoolbook multiplication over 64-bit limbs.
	h00, l00 := bits.Mul64(u.Lo, v.Lo)
	h01, l01 := bits.Mul64(u.Lo, v.Hi)
	h10, l10 := bits.Mul64(u.Hi, v.Lo)
	h11, l11 := bits.Mul64(u.Hi, v.Hi)

	lo.Lo = l00
	m, c1 := bits.Add64(h00, l01, 0)
	m, c2 := bits.Add64(m, l10, 0)
	lo.Hi = m

	h, c3 := bits.Add64(l11, h01, c1)
	h, c4 := bits.Add64(h, h10, c2)
	hi.Lo = h
	hi.Hi = h11 + c3 + c4
	return hi, lo
}

// Div returns (u / v, u % v). It panics if v == 0.
func (u Uint128) Div(v Uint128) (q, r Uint128) {
	if v.IsZero() {
		panic("uint128: division by zero")
	}
	if v.Hi == 0 {
		q, r64 := u.Div64(v.Lo)
		return q, From64(r64)
	}
	// v.Hi != 0: normalize so the divisor's top bit is set, then use a
	// single 128/128 step derived from bits.Div64.
	n := uint(bits.LeadingZeros64(v.Hi))
	v1 := v.Lsh(n)
	u1 := u.Rsh(1)
	tq, _ := bits.Div64(u1.Hi, u1.Lo, v1.Hi)
	tq >>= 63 - n
	if tq != 0 {
		tq--
	}
	q = From64(tq)
	r = u.Sub(v.Mul64(tq))
	if r.Cmp(v) >= 0 {
		q = q.Add64(1)
		r = r.Sub(v)
	}
	return q, r
}

// Div64 returns (u / v, u % v) for a 64-bit divisor. It panics if v == 0.
func (u Uint128) Div64(v uint64) (q Uint128, r uint64) {
	if v == 0 {
		panic("uint128: division by zero")
	}
	if u.Hi < v {
		lo, rem := bits.Div64(u.Hi, u.Lo, v)
		return From64(lo), rem
	}
	hi, rem := bits.Div64(0, u.Hi, v)
	lo, rem := bits.Div64(rem, u.Lo, v)
	return Uint128{Hi: hi, Lo: lo}, rem
}

// Mod returns u % v. It panics if v == 0.
func (u Uint128) Mod(v Uint128) Uint128 {
	_, r := u.Div(v)
	return r
}

// Lsh returns u << n.
func (u Uint128) Lsh(n uint) Uint128 {
	switch {
	case n >= 128:
		return Zero
	case n >= 64:
		return Uint128{Hi: u.Lo << (n - 64)}
	case n == 0:
		return u
	}
	return Uint128{Hi: u.Hi<<n | u.Lo>>(64-n), Lo: u.Lo << n}
}

// Rsh returns u >> n.
func (u Uint128) Rsh(n uint) Uint128 {
	switch {
	case n >= 128:
		return Zero
	case n >= 64:
		return Uint128{Lo: u.Hi >> (n - 64)}
	case n == 0:
		return u
	}
	return Uint128{Hi: u.Hi >> n, Lo: u.Lo>>n | u.Hi<<(64-n)}
}

// And returns u & v.
func (u Uint128) And(v Uint128) Uint128 {
	return Uint128{Hi: u.Hi & v.Hi, Lo: u.Lo & v.Lo}
}

// Or returns u | v.
func (u Uint128) Or(v Uint128) Uint128 {
	return Uint128{Hi: u.Hi | v.Hi, Lo: u.Lo | v.Lo}
}

// Xor returns u ^ v.
func (u Uint128) Xor(v Uint128) Uint128 {
	return Uint128{Hi: u.Hi ^ v.Hi, Lo: u.Lo ^ v.Lo}
}

// Not returns ^u.
func (u Uint128) Not() Uint128 {
	return Uint128{Hi: ^u.Hi, Lo: ^u.Lo}
}

// Bit returns the value (0 or 1) of the i-th bit, where bit 0 is the
// least-significant bit. It panics if i >= 128.
func (u Uint128) Bit(i uint) uint {
	if i >= 128 {
		panic("uint128: Bit index out of range")
	}
	if i >= 64 {
		return uint(u.Hi>>(i-64)) & 1
	}
	return uint(u.Lo>>i) & 1
}

// SetBit returns u with the i-th bit set to b (0 or 1).
// It panics if i >= 128 or b > 1.
func (u Uint128) SetBit(i uint, b uint) Uint128 {
	if i >= 128 || b > 1 {
		panic("uint128: SetBit argument out of range")
	}
	mask := One.Lsh(i)
	if b == 1 {
		return u.Or(mask)
	}
	return u.And(mask.Not())
}

// LeadingZeros returns the number of leading zero bits in u.
func (u Uint128) LeadingZeros() int {
	if u.Hi != 0 {
		return bits.LeadingZeros64(u.Hi)
	}
	return 64 + bits.LeadingZeros64(u.Lo)
}

// BitLen returns the minimum number of bits required to represent u.
func (u Uint128) BitLen() int { return 128 - u.LeadingZeros() }

// Big returns u as a math/big.Int.
func (u Uint128) Big() *big.Int {
	b := u.Bytes()
	return new(big.Int).SetBytes(b[:])
}

// FromBig converts b to a Uint128. It reports ok=false if b is negative or
// does not fit in 128 bits.
func FromBig(b *big.Int) (Uint128, bool) {
	if b.Sign() < 0 || b.BitLen() > 128 {
		return Zero, false
	}
	var buf [16]byte
	b.FillBytes(buf[:])
	return FromBytes(buf[:]), true
}

// String returns the decimal representation of u.
func (u Uint128) String() string {
	if u.Hi == 0 {
		return fmt.Sprintf("%d", u.Lo)
	}
	return u.Big().String()
}

// MulMod returns (u * v) mod m using 256-bit intermediate precision.
// It panics if m == 0.
func (u Uint128) MulMod(v, m Uint128) Uint128 {
	if m.IsZero() {
		panic("uint128: MulMod modulo zero")
	}
	if m.Hi == 0 && u.Hi == 0 && v.Hi == 0 {
		// Fast path: everything fits in 64 bits.
		hi, lo := bits.Mul64(u.Lo, v.Lo)
		_, r := bits.Div64(hi%m.Lo, lo, m.Lo)
		return From64(r)
	}
	hi, lo := u.MulFull(v)
	return mod256(hi, lo, m)
}

// mod256 reduces the 256-bit value hi||lo modulo m by binary long division.
func mod256(hi, lo, m Uint128) Uint128 {
	// Shift-and-subtract over 256 bits. The remainder always fits in 128
	// bits once hi has been consumed bit by bit.
	var r Uint128
	for i := 255; i >= 0; i-- {
		// r = r << 1 | bit(i)
		var bit uint
		if i >= 128 {
			bit = hi.Bit(uint(i - 128))
		} else {
			bit = lo.Bit(uint(i))
		}
		// Detect overflow of r<<1: if the top bit of r is set, r<<1 > Max,
		// and since m <= Max the shifted value is certainly >= m after one
		// subtraction. Handle by subtracting m once using 129-bit logic.
		top := r.Bit(127)
		r = r.Lsh(1)
		if bit == 1 {
			r = r.Or(One)
		}
		if top == 1 {
			// r (129-bit) = 2^128 + r. Subtract m: 2^128 + r - m.
			r = r.Add(m.Not()).Add64(1) // r - m mod 2^128 == 2^128 + r - m
		}
		if r.Cmp(m) >= 0 {
			r = r.Sub(m)
		}
	}
	return r
}

// ExpMod returns u^e mod m by square-and-multiply. It panics if m == 0.
func (u Uint128) ExpMod(e, m Uint128) Uint128 {
	if m.IsZero() {
		panic("uint128: ExpMod modulo zero")
	}
	if m.Cmp(One) == 0 {
		return Zero
	}
	result := One
	base := u.Mod(m)
	for !e.IsZero() {
		if e.Bit(0) == 1 {
			result = result.MulMod(base, m)
		}
		base = base.MulMod(base, m)
		e = e.Rsh(1)
	}
	return result
}
