// Package lpm implements a longest-prefix-match table over IPv6 prefixes
// as a binary (bit-at-a-time) trie. Every router in the network simulator
// holds one as its forwarding table; the analysis code uses it for
// prefix-to-metadata lookups (GeoIP, BGP origin).
package lpm

import (
	"fmt"
	"math/bits"
	"strings"

	"repro/internal/ipv6"
	"repro/internal/uint128"
)

// Table is a longest-prefix-match table mapping prefixes to values of
// type V. The zero value is not usable; call New.
type Table[V any] struct {
	root *node[V]
	size int

	// small mirrors the trie, sorted longest-prefix-first, while the
	// table holds at most smallMax entries; forwarding tables in the
	// simulator are almost always tiny, and a linear scan over a few
	// prefixes beats a 32–128-step trie walk. Once the table outgrows
	// smallMax the mirror is dropped for good (overflowed), and lookups
	// fall back to the trie. The mirror is only mutated by Insert and
	// Remove, so concurrent read-only lookups stay safe.
	small      []smallEntry[V]
	overflowed bool

	// maxBits tracks the longest prefix ever inserted (Remove leaves it
	// as a conservative upper bound). UniformWidth falls back to it: with
	// maxBits <= 64, every address of one /64 matches the same entry.
	maxBits int
}

type smallEntry[V any] struct {
	p ipv6.Prefix
	v V
}

const smallMax = 16

type node[V any] struct {
	child [2]*node[V]
	val   V
	set   bool
}

// New returns an empty table.
func New[V any]() *Table[V] {
	return &Table[V]{root: &node[V]{}}
}

// Len returns the number of installed prefixes.
func (t *Table[V]) Len() int { return t.size }

// Insert installs or replaces the value for p.
func (t *Table[V]) Insert(p ipv6.Prefix, v V) {
	n := t.root
	u := p.Addr().Uint128()
	for i := 0; i < p.Bits(); i++ {
		b := u.Bit(uint(127 - i))
		if n.child[b] == nil {
			n.child[b] = &node[V]{}
		}
		n = n.child[b]
	}
	if !n.set {
		t.size++
	}
	n.val, n.set = v, true
	if p.Bits() > t.maxBits {
		t.maxBits = p.Bits()
	}
	t.smallInsert(p, v)
}

// UniformWidth returns the smallest prefix length w such that every
// address sharing a's first w bits takes the same Lookup decision: the
// region prefix(a, w) lies inside the matched prefix (if any) and
// overlaps no other installed prefix. Route compilation uses it to key
// flow-cache entries at the widest sound granularity. Tables past the
// small-mirror bound fall back to the conservative maxBits answer
// (which may exceed 64, telling the caller the region is unusable).
func (t *Table[V]) UniformWidth(a ipv6.Addr) int {
	if t.overflowed {
		if t.maxBits <= 64 {
			return 64
		}
		return t.maxBits
	}
	w := 1
	u := a.Uint128()
	for i := range t.small {
		p := &t.small[i].p
		c := commonBits(u, p.Addr().Uint128())
		if c >= p.Bits() {
			// An ancestor of a: the region must stay inside it (the
			// deepest ancestor is the LPM match).
			if p.Bits() > w {
				w = p.Bits()
			}
		} else if c+1 > w {
			// Disjoint: the region must stop before the first bit
			// where a and p diverge.
			w = c + 1
		}
	}
	return w
}

// commonBits counts the leading bits a and b share.
func commonBits(a, b uint128.Uint128) int {
	if x := a.Hi ^ b.Hi; x != 0 {
		return bits.LeadingZeros64(x)
	}
	if x := a.Lo ^ b.Lo; x != 0 {
		return 64 + bits.LeadingZeros64(x)
	}
	return 128
}

func (t *Table[V]) smallInsert(p ipv6.Prefix, v V) {
	if t.overflowed {
		return
	}
	for i := range t.small {
		if t.small[i].p == p {
			t.small[i].v = v
			return
		}
	}
	if len(t.small) == smallMax {
		t.overflowed = true
		t.small = nil
		return
	}
	pos := 0
	for pos < len(t.small) && t.small[pos].p.Bits() >= p.Bits() {
		pos++
	}
	t.small = append(t.small, smallEntry[V]{})
	copy(t.small[pos+1:], t.small[pos:])
	t.small[pos] = smallEntry[V]{p: p, v: v}
}

// Remove deletes the exact prefix p, reporting whether it was present.
// Trie nodes are not compacted; tables in this repository only grow.
func (t *Table[V]) Remove(p ipv6.Prefix) bool {
	n := t.root
	u := p.Addr().Uint128()
	for i := 0; i < p.Bits(); i++ {
		b := u.Bit(uint(127 - i))
		if n.child[b] == nil {
			return false
		}
		n = n.child[b]
	}
	if !n.set {
		return false
	}
	var zero V
	n.val, n.set = zero, false
	t.size--
	for i := range t.small {
		if t.small[i].p == p {
			t.small = append(t.small[:i], t.small[i+1:]...)
			break
		}
	}
	return true
}

// Lookup returns the value of the longest installed prefix containing a,
// and ok=false if no prefix matches.
func (t *Table[V]) Lookup(a ipv6.Addr) (V, bool) {
	if !t.overflowed {
		for i := range t.small {
			if t.small[i].p.Contains(a) {
				return t.small[i].v, true
			}
		}
		var zero V
		return zero, false
	}
	var (
		best  V
		found bool
	)
	n := t.root
	u := a.Uint128()
	for i := 0; ; i++ {
		if n.set {
			best, found = n.val, true
		}
		if i == 128 {
			break
		}
		b := u.Bit(uint(127 - i))
		if n.child[b] == nil {
			break
		}
		n = n.child[b]
	}
	return best, found
}

// LookupPrefix returns the value and the matched prefix itself.
func (t *Table[V]) LookupPrefix(a ipv6.Addr) (ipv6.Prefix, V, bool) {
	var (
		best     V
		bestBits = -1
	)
	n := t.root
	u := a.Uint128()
	for i := 0; ; i++ {
		if n.set {
			best, bestBits = n.val, i
		}
		if i == 128 {
			break
		}
		b := u.Bit(uint(127 - i))
		if n.child[b] == nil {
			break
		}
		n = n.child[b]
	}
	if bestBits < 0 {
		var zero V
		return ipv6.Prefix{}, zero, false
	}
	p, err := ipv6.NewPrefix(a, bestBits)
	if err != nil {
		panic(fmt.Sprintf("lpm: internal prefix error: %v", err))
	}
	return p, best, true
}

// Exact returns the value installed for exactly p.
func (t *Table[V]) Exact(p ipv6.Prefix) (V, bool) {
	n := t.root
	u := p.Addr().Uint128()
	for i := 0; i < p.Bits(); i++ {
		b := u.Bit(uint(127 - i))
		if n.child[b] == nil {
			var zero V
			return zero, false
		}
		n = n.child[b]
	}
	if !n.set {
		var zero V
		return zero, false
	}
	return n.val, true
}

// Walk visits every installed prefix in lexicographic bit order.
func (t *Table[V]) Walk(fn func(ipv6.Prefix, V) bool) {
	var rec func(n *node[V], addr ipv6.Addr, depth int) bool
	rec = func(n *node[V], addr ipv6.Addr, depth int) bool {
		if n == nil {
			return true
		}
		if n.set {
			p, err := ipv6.NewPrefix(addr, depth)
			if err != nil {
				panic(fmt.Sprintf("lpm: internal prefix error: %v", err))
			}
			if !fn(p, n.val) {
				return false
			}
		}
		if depth == 128 {
			return true
		}
		if !rec(n.child[0], addr, depth+1) {
			return false
		}
		one := ipv6.AddrFrom128(addr.Uint128().SetBit(uint(127-depth), 1))
		return rec(n.child[1], one, depth+1)
	}
	rec(t.root, ipv6.Addr{}, 0)
}

// String renders the table for debugging.
func (t *Table[V]) String() string {
	var b strings.Builder
	t.Walk(func(p ipv6.Prefix, v V) bool {
		fmt.Fprintf(&b, "%s -> %v\n", p, v)
		return true
	})
	return b.String()
}
