package netsim

import (
	"fmt"
	"math/bits"
	"slices"
	"sort"

	"repro/internal/ipv6"
	"repro/internal/wire"
)

// ISPRouter is the provider-edge router of one ISP block. Instead of a
// general LPM table it holds per-length delegation tables (an exact-match
// table per delegated prefix length), which is both how provider BNGs
// are provisioned and memory-proportional to the number of subscribers.
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
	delegs   []*delegTable
	// gaps is what the block's gap flow does not cover. AddIface and
	// Delegate mark it stale; the next gap claim rebuilds it.
	gaps      gapIndex
	gapsStale bool

	// CountForwarded tallies transit packets for amplification
	// measurements.
	CountForwarded uint64
}

var _ Node = (*ISPRouter)(nil)

// delegTable maps sub-prefix indices (at one prefix length within the
// block) to subscriber-facing interfaces. Provisioned indices are small
// and dense (subscribers are assigned consecutive sub-prefixes), so
// indices under denseCap live in a direct-index slice — the transit hot
// path then costs one bounds check instead of a hash probe per packet —
// with the map kept for sparse outliers.
type delegTable struct {
	subLen  int
	dense   []*Iface
	entries map[uint64]*Iface
}

// denseCap bounds the direct-index slice (64k entries, 512 KiB of
// pointers at worst); delegation indices past it fall back to the map.
const denseCap = 1 << 16

// set records one delegation, keeping the dense/map invariant: indices
// under denseCap are stored in both (the slice answers lookups, the map
// keeps DelegationCount trivial), larger ones in the map alone.
func (t *delegTable) set(idx uint64, out *Iface) {
	t.entries[idx] = out
	if idx < denseCap {
		if n := uint64(len(t.dense)); idx >= n {
			t.dense = append(t.dense, make([]*Iface, idx+1-n)...)
		}
		t.dense[idx] = out
	}
}

// get resolves one sub-prefix index.
func (t *delegTable) get(idx uint64) (*Iface, bool) {
	if idx < uint64(len(t.dense)) {
		out := t.dense[idx]
		return out, out != nil
	}
	if idx < denseCap {
		// Under the dense bound but past the slice: never delegated.
		return nil, false
	}
	out, ok := t.entries[idx]
	return out, ok
}

// NewISPRouter creates the edge router for the given ISP block.
func NewISPRouter(name string, block ipv6.Prefix, policy ErrorPolicy) *ISPRouter {
	r := &ISPRouter{
		name:  name,
		block: block,
		addrs: make(map[ipv6.Addr]struct{}),
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

// Delegate routes the sub-prefix p of the block to the subscriber behind
// out. All delegations of the same length share one exact-match table.
func (r *ISPRouter) Delegate(p ipv6.Prefix, out *Iface) error {
	if !r.block.Overlaps(p) || p.Bits() <= r.block.Bits() {
		return fmt.Errorf("netsim: delegation %s outside block %s", p, r.block)
	}
	idx, err := r.block.SubIndex(p.Addr(), p.Bits())
	if err != nil {
		return err
	}
	if idx.Hi != 0 {
		return fmt.Errorf("netsim: delegation index for %s exceeds 64 bits", p)
	}
	// Tables stay sorted longest-first so more-specific delegations win.
	pos := 0
	for pos < len(r.delegs) && r.delegs[pos].subLen > p.Bits() {
		pos++
	}
	if pos == len(r.delegs) || r.delegs[pos].subLen != p.Bits() {
		t := &delegTable{subLen: p.Bits(), entries: map[uint64]*Iface{}}
		r.delegs = slices.Insert(r.delegs, pos, t)
	}
	r.delegs[pos].set(idx.Lo, out)
	r.gapsStale = true
	r.bumpFlows()
	return nil
}

// lookup resolves dst against the delegation tables.
func (r *ISPRouter) lookup(dst ipv6.Addr) (*Iface, bool) {
	for _, t := range r.delegs {
		idx, ok := r.block.SubIndexIn(dst, t.subLen)
		if !ok {
			return nil, false // not in block at all
		}
		if idx.Hi != 0 {
			continue
		}
		if out, ok := t.get(idx.Lo); ok {
			return out, true
		}
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
// else the delegation tables, the upstream default for out-of-block
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
			if idx := r.gapIndex(); idx == nil {
				reg.width = 0
			} else if !idx.assigned(dst.Uint128().Hi) {
				reg.width, reg.gaps = uint8(r.block.Bits()), idx
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

// hiRange is an inclusive range of top-64-bit address words.
type hiRange struct{ lo, hi uint64 }

// gapIndex is a block's emptiness index: everything in it that is not
// plain unassigned space. The block's gap flow points at it as its hole
// set (flowCache.lookup), and a live flow never reads a stale index:
// whatever marks it stale also bumps the flow generation of every
// engine the router is attached to, and the next claim rebuilds it.
type gapIndex struct {
	// ranges is every table's delegations, merged and sorted, over the
	// top 64 address bits; own the /64s of the router's in-block addresses.
	ranges []hiRange
	own    []uint64
	// start[k] is the first range ending at or past ranges[0].lo+k<<shift:
	// delegations spread over the window, so a bucket holds about one, where
	// a search over all of them mispredicts every other step of a sweep.
	start []uint32
	shift uint
}

// assigned reports whether the /64 with top word h lies in the index.
func (g *gapIndex) assigned(h uint64) bool {
	if slices.Contains(g.own, h) {
		return true
	}
	rs := g.ranges
	if len(rs) == 0 || h < rs[0].lo || h > rs[len(rs)-1].hi {
		return false
	}
	k := (h - rs[0].lo) >> g.shift
	seg := rs[g.start[k]:min(int(g.start[k+1])+1, len(rs))]
	i := sort.Search(len(seg), func(i int) bool { return seg[i].hi >= h })
	return i < len(seg) && seg[i].lo <= h
}

// gapIndex returns the emptiness index, rebuilt if an interface or a
// delegation landed since the last claim; nil when it is unexpressible
// in the top 64 bits (gap claims are then exact).
func (r *ISPRouter) gapIndex() *gapIndex {
	if b := r.block.Bits(); b < 1 || b > 64 || len(r.delegs) > 0 && r.delegs[0].subLen > 64 {
		return nil // delegs is sorted longest-first
	}
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
	rs := g.ranges[:0]
	base := r.block.Addr().Uint128().Hi
	for _, t := range r.delegs {
		shift := uint(64 - t.subLen)
		for idx := range t.entries {
			lo := base | idx<<shift
			rs = append(rs, hiRange{lo, lo | (uint64(1)<<shift - 1)})
		}
	}
	sort.Slice(rs, func(i, j int) bool { return rs[i].lo < rs[j].lo })
	n := 0
	for _, x := range rs {
		if n > 0 && x.lo <= rs[n-1].hi+1 {
			// Nested in the last range or adjacent to it: one range.
			rs[n-1].hi = max(rs[n-1].hi, x.hi)
			continue
		}
		rs[n] = x
		n++
	}
	g.ranges, g.start, g.shift = rs[:n], g.start[:0], 0
	if n > 0 {
		span := rs[n-1].hi - rs[0].lo
		for span>>g.shift >= uint64(2*n) {
			g.shift++
		}
		for k, j := uint64(0), 0; k <= span>>g.shift; k++ {
			for rs[j].hi < rs[0].lo+k<<g.shift {
				j++
			}
			g.start = append(g.start, uint32(j))
		}
		g.start = append(g.start, uint32(n))
	}
	r.gapsStale = false
	return g
}

// regionClaim returns the width of the largest region around dst — a
// delegated or an out-of-block destination — over which the forwarding
// decision is uniform, bounded away from the router's own interface
// addresses (same-/64 ones become /128 holes instead). For a delegated
// destination that is one cell of the finest delegation table (every
// address of a delegated /60 resolves to the same subscriber); outside
// the block the region also stops at the first bit where dst and the
// block diverge. 0 means unexpressible in the top 64 bits (claim must
// be exact).
func (r *ISPRouter) regionClaim(dst ipv6.Addr, reg *region) uint8 {
	if r.block.Bits() > 64 {
		return 0
	}
	w := uint8(1)
	if len(r.delegs) > 0 {
		if r.delegs[0].subLen > 64 { // sorted longest-first
			return 0
		}
		w = uint8(r.delegs[0].subLen)
	}
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
func (r *ISPRouter) DelegationCount() int {
	n := 0
	for _, t := range r.delegs {
		n += len(t.entries)
	}
	return n
}
