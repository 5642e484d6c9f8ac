package netsim

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/ipv6"
	"repro/internal/wire"
)

// ISPRouter is the provider-edge router of one ISP block. Instead of a
// general LPM table it holds one span per delegated prefix (gapIndex),
// which is memory-proportional to the number of subscribers and is the
// same index the block's gap flow reads as its hole set.
type ISPRouter struct {
	attachments
	forwarder
	name     string
	block    ipv6.Prefix
	upstream *Iface
	addrs    map[ipv6.Addr]struct{}
	// addrList holds the distinct interface addresses. Provider edges
	// share one provider-side address across all subscriber links
	// (topo's downAddr), so this stays tiny even with thousands of
	// interfaces — isLocal scans it linearly instead of hashing a
	// 16-byte map key per transit packet. isLocal falls back to the
	// map if a topology ever gives every interface its own address.
	addrList []ipv6.Addr
	// gaps holds every delegation and is what the block's gap flow does
	// not cover. AddIface and Delegate mark it stale; the next lookup or
	// gap claim rebuilds it. finest is the longest delegated length.
	gaps      gapIndex
	gapsStale bool
	finest    int

	// CountForwarded tallies transit packets for amplification
	// measurements.
	CountForwarded uint64
}

var _ Node = (*ISPRouter)(nil)

// NewISPRouter creates the edge router for the given ISP block.
func NewISPRouter(name string, block ipv6.Prefix, policy ErrorPolicy) *ISPRouter {
	r := &ISPRouter{
		name:      name,
		block:     block,
		addrs:     make(map[ipv6.Addr]struct{}),
		gapsStale: true,
	}
	r.forwarder = forwarder{self: r, fwd: &r.CountForwarded, suppress: policy.Suppress}
	return r
}

// Name implements Node.
func (r *ISPRouter) Name() string { return r.name }

// Block returns the ISP's address block.
func (r *ISPRouter) Block() ipv6.Prefix { return r.block }

// AddIface registers a new interface with the given address.
func (r *ISPRouter) AddIface(addr ipv6.Addr, name string) *Iface {
	ifc := NewIface(r, addr, name)
	if _, ok := r.addrs[addr]; !ok {
		r.addrs[addr] = struct{}{}
		r.addrList = append(r.addrList, addr)
		r.gapsStale = true
	}
	r.bumpFlows()
	return ifc
}

// SetUpstream nominates the interface toward the Internet core; traffic
// not covered by the block or delegations leaves through it.
func (r *ISPRouter) SetUpstream(ifc *Iface) {
	r.upstream = ifc
	r.bumpFlows()
}

// Delegate routes the sub-prefix p of the block, at most a /64, to the
// subscriber behind out. Delegating the same prefix again re-routes it.
func (r *ISPRouter) Delegate(p ipv6.Prefix, out *Iface) error {
	if !r.block.Overlaps(p) || p.Bits() <= r.block.Bits() {
		return fmt.Errorf("netsim: delegation %s outside block %s", p, r.block)
	}
	if p.Bits() > 64 {
		return fmt.Errorf("netsim: delegation %s longer than /64", p)
	}
	lo := p.Addr().Uint128().Hi
	r.gaps.spans = append(r.gaps.spans, span{lo: lo, hi: lo | (1<<(64-p.Bits()) - 1), out: out})
	r.finest = max(r.finest, p.Bits())
	r.gapsStale = true
	r.bumpFlows()
	return nil
}

// lookup resolves dst to the interface of its longest delegation.
func (r *ISPRouter) lookup(dst ipv6.Addr) (*Iface, bool) {
	if !r.block.Contains(dst) {
		return nil, false
	}
	g := r.gapIndex()
	if i := g.find(dst.Uint128().Hi); i >= 0 {
		return g.spans[i].out, true
	}
	return nil, false
}

// isLocal reports whether dst is one of the router's interface
// addresses. The distinct-address list is normally a couple of entries
// (see addrList), so a linear scan beats hashing; degenerate
// topologies with many distinct addresses use the map.
func (r *ISPRouter) isLocal(dst ipv6.Addr) bool {
	if len(r.addrList) <= 8 {
		for _, a := range r.addrList {
			if a == dst {
				return true
			}
		}
		return false
	}
	_, ok := r.addrs[dst]
	return ok
}

// decide is the provider edge's rule: echo for its own addresses, Time
// Exceeded from the arrival interface on expiry (the provider half of
// the bounce when a looping probe dies here rather than at the CPE),
// else the delegations, the upstream default for out-of-block
// space — and for unassigned space within the block, no route: exactly
// the error the paper's periphery discovery exploits, here one hop
// early. Every unassigned in-block dst draws it alike, so it claims the
// whole block as one gap flow whose holes are the emptiness index; only
// the rest of a /64 the router itself has an address in — a hole of that
// flow — is claimed alone.
func (r *ISPRouter) decide(in *Iface, dst ipv6.Addr, expired bool, reg *region) verdict {
	if r.isLocal(dst) {
		return verdict{act: actEcho}
	}
	if expired {
		if reg != nil {
			reg.width = avoidAddrs(1, dst, r.addrList, reg)
		}
		return timeExceeded(in)
	}
	if out, ok := r.lookup(dst); ok {
		if reg != nil {
			reg.width = r.regionClaim(dst, reg)
		}
		return forwardOut(out)
	}
	if r.block.Contains(dst) {
		if reg != nil {
			if b := r.block.Bits(); b < 1 || b > 64 {
				reg.width = 0 // unexpressible in the top 64 bits: exact
			} else if idx := r.gapIndex(); !idx.assigned(dst.Uint128().Hi) {
				reg.width, reg.gaps = uint8(b), idx
			} else {
				reg.width = avoidAddrs(64, dst, r.addrList, reg)
			}
		}
		return unreachable(in, wire.UnreachNoRoute)
	}
	if reg != nil {
		reg.width = r.regionClaim(dst, reg)
	}
	if r.upstream != nil && in != r.upstream {
		return forwardOut(r.upstream)
	}
	return unreachable(in, wire.UnreachNoRoute)
}

// span is one delegation: the inclusive range of top-64-bit address
// words its prefix covers, the subscriber interface, and the position of
// the nearest span enclosing it (-1 if none). top is the hi of the
// widest span enclosing it (its own hi if none): an address past top is
// in none of them, so a miss needs no walk.
type span struct {
	lo, hi, top uint64
	out         *Iface
	up          int32
}

// gapIndex is a block's delegations and emptiness index: everything in it
// that is not plain unassigned space. The block's gap flow points at it as
// its hole set (flowCache.lookup), and a live flow never reads a stale
// index: whatever marks it stale also bumps the flow generation of every
// engine the router is attached to, and the next claim rebuilds it.
type gapIndex struct {
	// spans is one entry per delegated prefix, sorted by lo with the wider
	// of two spans sharing a lo first, so a span's enclosing spans all sit
	// before it; own the /64s of the router's in-block addresses.
	spans []span
	own   []uint64
	// start[k] is the first span with lo at or past base+k<<shift:
	// delegations spread over the window, so a bucket holds about one, where
	// a search over all of them mispredicts every other step of a sweep.
	// base is spans[0].lo, or the highest top word when there are no
	// spans; kept apart so that last is cheap enough to inline into the
	// gap flow's per-probe assigned.
	start []uint32
	shift uint
	base  uint64
}

// last returns the position of the last span starting at or before the
// /64 with top word h, or -1. Any span holding h encloses that one or is
// it, so h lies in some span iff that span's top reaches h.
func (g *gapIndex) last(h uint64) int {
	if h < g.base {
		return -1
	}
	k := min((h-g.base)>>g.shift, uint64(len(g.start)-2))
	i, j := g.start[k], g.start[k+1]
	for i < j {
		if m := (i + j) / 2; g.spans[m].lo <= h {
			i = m + 1
		} else {
			j = m
		}
	}
	return int(i) - 1
}

// assigned reports whether the /64 with top word h lies in the index.
func (g *gapIndex) assigned(h uint64) bool {
	i := g.last(h)
	return i >= 0 && g.spans[i].top >= h || slices.Contains(g.own, h)
}

// find returns the position of the narrowest span holding the /64 with
// top word h, or -1: the last span starting at or before h, then out
// through its enclosing spans until one reaches h.
func (g *gapIndex) find(h uint64) int {
	i := g.last(h)
	if i < 0 || g.spans[i].top < h {
		return -1
	}
	for g.spans[i].hi < h {
		i = int(g.spans[i].up)
	}
	return i
}

// gapIndex returns the index, rebuilt if an interface or a delegation
// landed since the last lookup or claim.
func (r *ISPRouter) gapIndex() *gapIndex {
	g := &r.gaps
	if !r.gapsStale {
		return g
	}
	g.own = g.own[:0]
	for _, a := range r.addrList {
		if h := a.Uint128().Hi; r.block.Contains(a) && !slices.Contains(g.own, h) {
			g.own = append(g.own, h)
		}
	}
	s := g.spans
	slices.SortStableFunc(s, func(a, b span) int {
		return cmp.Or(cmp.Compare(a.lo, b.lo), cmp.Compare(b.hi, a.hi))
	})
	n := 0
	for _, x := range s {
		if n > 0 && s[n-1].lo == x.lo && s[n-1].hi == x.hi {
			s[n-1].out = x.out // a repeated prefix: the last Delegate wins
			continue
		}
		// The nearest enclosing span is the previous one or encloses it.
		x.up, x.top = int32(n-1), x.hi
		for x.up >= 0 && s[x.up].hi < x.lo {
			x.up = s[x.up].up
		}
		if x.up >= 0 {
			x.top = s[x.up].top
		}
		s[n] = x
		n++
	}
	g.spans, g.start, g.shift, g.base = s[:n], append(g.start[:0], 0), 0, ^uint64(0)
	if n > 0 {
		g.base = s[0].lo
		width := s[n-1].lo - g.base
		for width>>g.shift >= uint64(2*n) {
			g.shift++
		}
		for k, j := uint64(1), 0; k <= width>>g.shift; k++ {
			for s[j].lo < g.base+k<<g.shift {
				j++
			}
			g.start = append(g.start, uint32(j))
		}
	}
	g.start = append(g.start, uint32(n))
	r.gapsStale = false
	return g
}

// regionClaim returns the width of the largest region around dst — a
// delegated or an out-of-block destination — over which the forwarding
// decision is uniform, bounded away from the router's own interface
// addresses (same-/64 ones become /128 holes instead). For a delegated
// destination that is one cell of the finest delegated length (every
// address of a delegated /60 resolves to the same subscriber); outside
// the block the region also stops at the first bit where dst and the
// block diverge. 0 means unexpressible in the top 64 bits (claim must
// be exact).
func (r *ISPRouter) regionClaim(dst ipv6.Addr, reg *region) uint8 {
	if r.block.Bits() > 64 {
		return 0
	}
	w := uint8(max(1, r.finest))
	if r.block.Contains(dst) {
		w = max(w, uint8(r.block.Bits()))
	} else {
		c := bits.LeadingZeros64(dst.Uint128().Hi ^ r.block.Addr().Uint128().Hi)
		if c >= 64 {
			return 0
		}
		w = max(w, uint8(c+1))
	}
	return avoidAddrs(w, dst, r.addrList, reg)
}

// DelegationCount returns the number of installed delegations (for
// diagnostics and tests).
func (r *ISPRouter) DelegationCount() int { return len(r.gapIndex().spans) }
