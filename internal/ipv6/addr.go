// Package ipv6 implements IPv6 addressing for periphery discovery: 128-bit
// addresses, prefixes with arbitrary bit windows, RFC 5952 text formatting,
// EUI-64 interface identifiers, SLAAC-style address construction, and the
// interface-identifier (IID) classification used by the paper's analysis
// (the addr6 tool analogue).
package ipv6

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/uint128"
)

// Addr is a 128-bit IPv6 address. The zero value is the unspecified
// address "::".
type Addr struct {
	u uint128.Uint128
}

// AddrFrom128 returns the address with the given 128-bit value.
func AddrFrom128(u uint128.Uint128) Addr { return Addr{u: u} }

// AddrFromBytes interprets b (16 bytes, network order) as an address.
// It panics if len(b) != 16.
func AddrFromBytes(b []byte) Addr { return Addr{u: uint128.FromBytes(b)} }

// AddrFromSegments builds an address from its eight 16-bit segments.
func AddrFromSegments(s [8]uint16) Addr {
	var hi, lo uint64
	for i := 0; i < 4; i++ {
		hi = hi<<16 | uint64(s[i])
		lo = lo<<16 | uint64(s[i+4])
	}
	return Addr{u: uint128.New(hi, lo)}
}

// Uint128 returns the 128-bit value of a.
func (a Addr) Uint128() uint128.Uint128 { return a.u }

// Bytes returns the 16-byte network-order representation of a.
func (a Addr) Bytes() [16]byte { return a.u.Bytes() }

// Segments returns the eight 16-bit segments of a.
func (a Addr) Segments() [8]uint16 {
	var s [8]uint16
	for i := 0; i < 4; i++ {
		s[3-i] = uint16(a.u.Hi >> (16 * i))
		s[7-i] = uint16(a.u.Lo >> (16 * i))
	}
	return s
}

// IsUnspecified reports whether a is "::".
func (a Addr) IsUnspecified() bool { return a.u.IsZero() }

// IID returns the low 64 bits (the interface identifier under a /64).
func (a Addr) IID() uint64 { return a.u.Lo }

// WithIID returns a with its low 64 bits replaced by iid.
func (a Addr) WithIID(iid uint64) Addr {
	return Addr{u: uint128.New(a.u.Hi, iid)}
}

// Prefix64 returns the /64 prefix containing a.
func (a Addr) Prefix64() Prefix {
	p, _ := NewPrefix(Addr{u: uint128.New(a.u.Hi, 0)}, 64)
	return p
}

// Cmp compares two addresses numerically.
func (a Addr) Cmp(b Addr) int { return a.u.Cmp(b.u) }

// Less reports whether a sorts before b.
func (a Addr) Less(b Addr) bool { return a.u.Less(b.u) }

// Next returns the numerically next address, wrapping at the top.
func (a Addr) Next() Addr { return Addr{u: a.u.Add64(1)} }

// String renders a in RFC 5952 canonical form; see AppendTo.
func (a Addr) String() string {
	var buf [maxAddrText]byte
	return string(a.AppendTo(buf[:0]))
}

// maxAddrText is the longest text AppendTo produces: eight full hextets
// and seven colons.
const maxAddrText = 39

const hexDigits = "0123456789abcdef"

// AppendTo appends a's RFC 5952 canonical form to b and returns the
// extended slice: lower-case hex, leading zeros suppressed, the longest
// run of two or more zero segments (leftmost on a tie) compressed to
// "::", and IPv4-mapped addresses in mixed notation (section 5). It is
// the package's only text formatter and allocates nothing when b has
// room.
func (a Addr) AppendTo(b []byte) []byte {
	if v4, ok := a.AsV4(); ok {
		b = append(b, "::ffff:"...)
		for shift := 24; shift >= 0; shift -= 8 {
			b = strconv.AppendUint(b, uint64(byte(v4>>shift)), 10)
			if shift > 0 {
				b = append(b, '.')
			}
		}
		return b
	}
	seg := a.Segments()

	// Find the longest run of zero segments with length >= 2.
	bestStart, bestLen := -1, 0
	runStart, runLen := -1, 0
	for i := 0; i < 8; i++ {
		if seg[i] == 0 {
			if runStart < 0 {
				runStart, runLen = i, 0
			}
			runLen++
			if runLen > bestLen {
				bestStart, bestLen = runStart, runLen
			}
		} else {
			runStart, runLen = -1, 0
		}
	}
	if bestLen < 2 {
		bestStart = -1
	}

	for i := 0; i < 8; i++ {
		if i == bestStart {
			b = append(b, ':', ':')
			i += bestLen - 1
			continue
		}
		if i > 0 && !(bestStart >= 0 && i == bestStart+bestLen) {
			b = append(b, ':')
		}
		switch v := seg[i]; {
		case v >= 0x1000:
			b = append(b, hexDigits[v>>12], hexDigits[v>>8&0xf], hexDigits[v>>4&0xf], hexDigits[v&0xf])
		case v >= 0x100:
			b = append(b, hexDigits[v>>8], hexDigits[v>>4&0xf], hexDigits[v&0xf])
		case v >= 0x10:
			b = append(b, hexDigits[v>>4], hexDigits[v&0xf])
		default:
			b = append(b, hexDigits[v])
		}
	}
	return b
}

// ParseAddr parses an IPv6 address in textual form: the full grammar of
// RFC 4291 section 2.2, including "::" compression and a trailing
// IPv4 dotted-quad (mixed notation).
func ParseAddr(s string) (Addr, error) {
	orig := s
	if s == "" {
		return Addr{}, fmt.Errorf("ipv6: empty address")
	}
	// Mixed notation: rewrite a trailing dotted quad as two hex groups.
	if i := strings.LastIndexByte(s, ':'); i >= 0 && strings.Contains(s[i+1:], ".") {
		v4, err := ParseDottedQuad(s[i+1:])
		if err != nil {
			return Addr{}, fmt.Errorf("ipv6: bad IPv4 suffix in %q: %w", orig, err)
		}
		s = fmt.Sprintf("%s:%x:%x", s[:i], v4>>16, v4&0xffff)
		// "::1.2.3.4" became ":" + groups; restore the compression.
		if strings.HasPrefix(s, ":") && !strings.HasPrefix(s, "::") {
			s = ":" + s
		}
	}

	var head, tail []uint16
	compressed := false

	// Handle a leading "::".
	if strings.HasPrefix(s, "::") {
		compressed = true
		s = s[2:]
		if s == "" {
			return Addr{}, nil // "::"
		}
	} else if strings.HasPrefix(s, ":") {
		return Addr{}, fmt.Errorf("ipv6: address %q begins with single colon", orig)
	}

	cur := &head
	if compressed {
		cur = &tail
	}
	for len(s) > 0 {
		i := strings.IndexByte(s, ':')
		var tok string
		if i < 0 {
			tok, s = s, ""
		} else {
			tok, s = s[:i], s[i+1:]
			if tok == "" { // "::" encountered mid-string
				if compressed {
					return Addr{}, fmt.Errorf("ipv6: address %q has multiple \"::\"", orig)
				}
				compressed = true
				cur = &tail
				if s == "" {
					break
				}
				continue
			}
			if s == "" { // trailing single colon
				return Addr{}, fmt.Errorf("ipv6: address %q ends with single colon", orig)
			}
		}
		if len(tok) > 4 {
			return Addr{}, fmt.Errorf("ipv6: segment %q too long in %q", tok, orig)
		}
		v, err := strconv.ParseUint(tok, 16, 16)
		if err != nil {
			return Addr{}, fmt.Errorf("ipv6: bad segment %q in %q", tok, orig)
		}
		*cur = append(*cur, uint16(v))
	}

	n := len(head) + len(tail)
	switch {
	case compressed && n >= 8:
		return Addr{}, fmt.Errorf("ipv6: address %q has too many segments for \"::\"", orig)
	case !compressed && n != 8:
		return Addr{}, fmt.Errorf("ipv6: address %q has %d segments, want 8", orig, n)
	}

	var seg [8]uint16
	copy(seg[:], head)
	copy(seg[8-len(tail):], tail)
	return AddrFromSegments(seg), nil
}

// V4Mapped returns the IPv4-mapped IPv6 address ::ffff:a.b.c.d for the
// 32-bit v4 address. The scanner uses this embedding to treat IPv4
// targets uniformly ("192.168.0.0/20-25" in the paper's Section IV-B).
func V4Mapped(v4 uint32) Addr {
	return AddrFrom128(uint128.New(0, 0xffff_0000_0000|uint64(v4)))
}

// AsV4 extracts the 32-bit address from an IPv4-mapped IPv6 address,
// reporting ok=false for anything outside ::ffff:0:0/96.
func (a Addr) AsV4() (uint32, bool) {
	if a.u.Hi != 0 || a.u.Lo>>32 != 0xffff {
		return 0, false
	}
	return uint32(a.u.Lo), true
}

// MustParseAddr is ParseAddr, panicking on error. For tests and constants.
func MustParseAddr(s string) Addr {
	a, err := ParseAddr(s)
	if err != nil {
		panic(err)
	}
	return a
}

// ParseDottedQuad parses an IPv4 address "a.b.c.d" strictly: four
// octets 0-255, each in decimal digits with no sign and no leading zero
// beyond a bare "0".
func ParseDottedQuad(s string) (uint32, error) {
	parts := strings.Split(s, ".")
	if len(parts) != 4 {
		return 0, fmt.Errorf("want 4 octets, have %d", len(parts))
	}
	var v uint32
	for _, p := range parts {
		n, err := strconv.Atoi(p)
		if err != nil || n < 0 || n > 255 || strconv.Itoa(n) != p {
			return 0, fmt.Errorf("bad octet %q", p)
		}
		v = v<<8 | uint32(n)
	}
	return v, nil
}
