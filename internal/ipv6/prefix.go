package ipv6

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/uint128"
)

// Prefix is an IPv6 prefix: an address plus a mask length in [0,128].
// The address is always stored in masked (canonical) form.
type Prefix struct {
	addr Addr
	bits int
}

// NewPrefix returns the prefix addr/bits with the host bits zeroed.
func NewPrefix(addr Addr, bits int) (Prefix, error) {
	if bits < 0 || bits > 128 {
		return Prefix{}, fmt.Errorf("ipv6: prefix length %d out of range", bits)
	}
	return Prefix{addr: AddrFrom128(maskBits(addr.u, bits)), bits: bits}, nil
}

// MustPrefix is NewPrefix, panicking on error.
func MustPrefix(addr Addr, bits int) Prefix {
	p, err := NewPrefix(addr, bits)
	if err != nil {
		panic(err)
	}
	return p
}

func maskBits(u uint128.Uint128, bits int) uint128.Uint128 {
	if bits >= 128 {
		return u
	}
	mask := uint128.Max.Lsh(uint(128 - bits))
	return u.And(mask)
}

// Addr returns the (masked) base address of p.
func (p Prefix) Addr() Addr { return p.addr }

// Bits returns the prefix length of p.
func (p Prefix) Bits() int { return p.bits }

// Contains reports whether a is within p.
func (p Prefix) Contains(a Addr) bool {
	return maskBits(a.u, p.bits) == p.addr.u
}

// Overlaps reports whether p and q share any address.
func (p Prefix) Overlaps(q Prefix) bool {
	if p.bits <= q.bits {
		return p.Contains(q.addr)
	}
	return q.Contains(p.addr)
}

// First returns the numerically lowest address in p.
func (p Prefix) First() Addr { return p.addr }

// Last returns the numerically highest address in p.
func (p Prefix) Last() Addr {
	if p.bits >= 128 {
		return p.addr
	}
	host := uint128.Max.Rsh(uint(p.bits))
	return AddrFrom128(p.addr.u.Or(host))
}

// Sub returns the i-th sub-prefix of length newBits within p, counting in
// address order from zero. It errors if newBits is not in (p.bits, 128]
// or i is out of range for the 2^(newBits-p.bits) sub-prefixes.
func (p Prefix) Sub(newBits int, i uint128.Uint128) (Prefix, error) {
	if newBits <= p.bits || newBits > 128 {
		return Prefix{}, fmt.Errorf("ipv6: sub-prefix length %d invalid for /%d", newBits, p.bits)
	}
	width := uint(newBits - p.bits)
	if width < 128 {
		limit := uint128.One.Lsh(width)
		if i.Cmp(limit) >= 0 {
			return Prefix{}, fmt.Errorf("ipv6: sub-prefix index %s out of range for %d-bit window", i, width)
		}
	}
	base := p.addr.u.Or(i.Lsh(uint(128 - newBits)))
	return NewPrefix(AddrFrom128(base), newBits)
}

// SubIndex returns the index of a's enclosing newBits-length sub-prefix
// within p, i.e. the inverse of Sub for addresses contained in p.
func (p Prefix) SubIndex(a Addr, newBits int) (uint128.Uint128, error) {
	if !p.Contains(a) {
		return uint128.Zero, fmt.Errorf("ipv6: %s not in %s", a, p)
	}
	if newBits <= p.bits || newBits > 128 {
		return uint128.Zero, fmt.Errorf("ipv6: sub-prefix length %d invalid for /%d", newBits, p.bits)
	}
	shifted := a.u.Rsh(uint(128 - newBits))
	width := uint(newBits - p.bits)
	if width >= 128 {
		return shifted, nil
	}
	mask := uint128.One.Lsh(width).Sub64(1)
	return shifted.And(mask), nil
}

// NumSub returns the number of newBits-length sub-prefixes of p. It
// returns (Zero, false) when newBits is not longer than p's length (or
// past 128), or when the count would be 2^128 (a /0 split into /128s).
func (p Prefix) NumSub(newBits int) (uint128.Uint128, bool) {
	if newBits <= p.bits || newBits > 128 {
		return uint128.Zero, false
	}
	width := uint(newBits - p.bits)
	if width >= 128 {
		return uint128.Zero, false
	}
	return uint128.One.Lsh(width), true
}

// String renders p as "addr/bits".
func (p Prefix) String() string {
	return p.addr.String() + "/" + strconv.Itoa(p.bits)
}

// ParsePrefix parses "addr/bits". Host bits are zeroed.
func ParsePrefix(s string) (Prefix, error) {
	i := strings.LastIndexByte(s, '/')
	if i < 0 {
		return Prefix{}, fmt.Errorf("ipv6: prefix %q missing '/'", s)
	}
	a, err := ParseAddr(s[:i])
	if err != nil {
		return Prefix{}, err
	}
	bits, err := ParseLength(s[i+1:], 128)
	if err != nil {
		return Prefix{}, fmt.Errorf("ipv6: bad prefix length in %q", s)
	}
	return NewPrefix(a, bits)
}

// ParseLength reads a prefix length of an address family width bits
// wide: decimal digits with no sign, space or leading zero (a bare "0"
// is zero), at most width. It is the one reader of prefix lengths, for
// IPv6 prefixes and windows and for IPv4 windows and blocklist lines.
func ParseLength(s string, width int) (int, error) {
	if n, ok := decimal(s, width); ok {
		return n, nil
	}
	return 0, fmt.Errorf("ipv6: bad prefix length %q (want 0-%d)", s, width)
}

// decimal parses s as a canonical decimal number no larger than limit:
// digits only, no leading zero except in "0" itself.
func decimal(s string, limit int) (int, bool) {
	if s == "" || len(s) > 1 && s[0] == '0' {
		return 0, false
	}
	n := 0
	for _, c := range []byte(s) {
		if c < '0' || c > '9' {
			return 0, false
		}
		if n = n*10 + int(c-'0'); n > limit {
			return 0, false
		}
	}
	return n, true
}

// MustParsePrefix is ParsePrefix, panicking on error.
func MustParsePrefix(s string) Prefix {
	p, err := ParsePrefix(s)
	if err != nil {
		panic(err)
	}
	return p
}

// Window is a scan window over a prefix: the bit positions (from, to],
// paper notation "2001:db8::/32-64" meaning iterate all /to sub-prefixes
// of the /from prefix.
type Window struct {
	Base Prefix // the enclosing block; Base.Bits() == From
	To   int    // sub-prefix length iterated over
}

// NewWindow validates and builds a scan window.
func NewWindow(base Prefix, to int) (Window, error) {
	if to <= base.Bits() || to > 128 {
		return Window{}, fmt.Errorf("ipv6: window /%d-%d invalid", base.Bits(), to)
	}
	return Window{Base: base, To: to}, nil
}

// ParseWindow parses "addr/from-to" notation, e.g. "2001:db8::/32-64".
func ParseWindow(s string) (Window, error) {
	i := strings.LastIndexByte(s, '-')
	if i < 0 {
		return Window{}, fmt.Errorf("ipv6: window %q missing '-'", s)
	}
	p, err := ParsePrefix(s[:i])
	if err != nil {
		return Window{}, err
	}
	to, err := ParseLength(s[i+1:], 128)
	if err != nil {
		return Window{}, fmt.Errorf("ipv6: bad window upper bound in %q", s)
	}
	return NewWindow(p, to)
}

// MustParseWindow is ParseWindow, panicking on error.
func MustParseWindow(s string) Window {
	w, err := ParseWindow(s)
	if err != nil {
		panic(err)
	}
	return w
}

// Width returns the number of iterated bits (To - Base.Bits()).
func (w Window) Width() int { return w.To - w.Base.Bits() }

// Size returns the number of sub-prefixes in the window (2^Width), or
// false if it does not fit in 128 bits.
func (w Window) Size() (uint128.Uint128, bool) { return w.Base.NumSub(w.To) }

// Sub returns the i-th sub-prefix of the window.
func (w Window) Sub(i uint128.Uint128) (Prefix, error) { return w.Base.Sub(w.To, i) }

// String renders w in "addr/from-to" notation.
func (w Window) String() string {
	return w.Base.String() + "-" + strconv.Itoa(w.To)
}
