package netsim

import (
	"fmt"
	"math/bits"
	"sort"

	"repro/internal/ipv6"
	"repro/internal/wire"
)

// ISPRouter is the provider-edge router of one ISP block. Instead of a
// general LPM table it holds per-length delegation tables (an exact-match
// table per delegated prefix length), which is both how provider BNGs
// are provisioned and memory-proportional to the number of subscribers.
type ISPRouter struct {
	name     string
	block    ipv6.Prefix
	upstream *Iface
	ifs      []*Iface
	addrs    map[ipv6.Addr]struct{}
	// addrList holds the distinct interface addresses. Provider edges
	// share one provider-side address across all subscriber links
	// (topo's downAddr), so this stays tiny even with thousands of
	// interfaces — isLocal scans it linearly instead of hashing a
	// 16-byte map key per transit packet. isLocal falls back to the
	// map if a topology ever gives every interface its own address.
	addrList []ipv6.Addr
	delegs   []*delegTable
	// assigned is the emptiness index gap claims are answered from: the
	// delegations of every table as merged, sorted ranges over the top 64
	// address bits. Delegate marks it stale; the next gap claim rebuilds
	// it (route compilation is its only reader).
	assigned      []hiRange
	assignedStale bool
	gate          errorGate
	sc            emitScratch

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
		for uint64(len(t.dense)) <= idx {
			t.dense = append(t.dense, nil)
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
	return &ISPRouter{
		name:  name,
		block: block,
		addrs: make(map[ipv6.Addr]struct{}),
		gate:  errorGate{policy: policy},
	}
}

// Name implements Node.
func (r *ISPRouter) Name() string { return r.name }

// Block returns the ISP's address block.
func (r *ISPRouter) Block() ipv6.Prefix { return r.block }

// AddIface registers a new interface with the given address.
func (r *ISPRouter) AddIface(addr ipv6.Addr, name string) *Iface {
	ifc := NewIface(r, addr, name)
	r.ifs = append(r.ifs, ifc)
	if _, ok := r.addrs[addr]; !ok {
		r.addrs[addr] = struct{}{}
		r.addrList = append(r.addrList, addr)
	}
	bumpFlows(r.ifs)
	return ifc
}

// SetUpstream nominates the interface toward the Internet core; traffic
// not covered by the block or delegations leaves through it.
func (r *ISPRouter) SetUpstream(ifc *Iface) {
	r.upstream = ifc
	bumpFlows(r.ifs)
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
	r.assignedStale = true
	for _, t := range r.delegs {
		if t.subLen == p.Bits() {
			t.set(idx.Lo, out)
			bumpFlows(r.ifs)
			return nil
		}
	}
	t := &delegTable{subLen: p.Bits(), entries: map[uint64]*Iface{}}
	t.set(idx.Lo, out)
	// Keep tables sorted longest-first so more-specific delegations win.
	pos := 0
	for pos < len(r.delegs) && r.delegs[pos].subLen > t.subLen {
		pos++
	}
	r.delegs = append(r.delegs, nil)
	copy(r.delegs[pos+1:], r.delegs[pos:])
	r.delegs[pos] = t
	bumpFlows(r.ifs)
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

// Handle implements Node: RFC 8200 forwarding with RFC 4443 errors. A
// destination inside the block but matching no delegation draws an
// address-unreachable error — exactly the mechanism the paper's
// discovery strategy exploits at the periphery, here occurring one hop
// earlier for unassigned space.
func (r *ISPRouter) Handle(in *Iface, pkt []byte) []Emission {
	dst, ok := wire.ForwardDst(pkt)
	if !ok {
		return nil
	}
	if r.isLocal(dst) {
		return respondLocalEcho(&r.sc, in, dst, pkt)
	}
	if !decrementHopLimit(pkt) {
		return r.emitError(in, pkt, wire.ICMPTimeExceeded, wire.TimeExceedHopLimit)
	}
	if out, ok := r.lookup(dst); ok {
		r.CountForwarded++
		return r.sc.emit(out, pkt)
	}
	if r.block.Contains(dst) {
		// Unassigned space within the block.
		return r.emitError(in, pkt, wire.ICMPDestUnreach, wire.UnreachNoRoute)
	}
	if r.upstream != nil && in != r.upstream {
		r.CountForwarded++
		return r.sc.emit(r.upstream, pkt)
	}
	return r.emitError(in, pkt, wire.ICMPDestUnreach, wire.UnreachNoRoute)
}

// gapStep quantises gap claims: an unassigned region's width is rounded
// up (narrowed) to a multiple of it, so a window's gaps share a handful
// of flow-cache key widths instead of one per bit — every live width is
// one more probe in flowCache.lookup, and fpWidthCap bounds them. Two
// bits is the measured optimum (DESIGN.md "Forwarding fast path"):
// nybble steps leave each subscriber fifteen single-probe sibling
// entries and overflow the flow table on a 2^20 window, one-bit steps
// need more live widths than fpWidthCap holds.
const gapStep = 2

// hiRange is an inclusive range of top-64-bit address words.
type hiRange struct{ lo, hi uint64 }

// assignedRanges returns the emptiness index, rebuilding it if a
// delegation landed since the last claim. Only valid when every table's
// length is ≤ 64 (uniformWidth checks before asking).
func (r *ISPRouter) assignedRanges() []hiRange {
	if !r.assignedStale {
		return r.assigned
	}
	rs := r.assigned[:0]
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
		if n > 0 && x.lo <= rs[n-1].hi {
			// Prefixes only ever nest; keep the outer one's extent.
			rs[n-1].hi = max(rs[n-1].hi, x.hi)
			continue
		}
		rs[n] = x
		n++
	}
	r.assigned, r.assignedStale = rs[:n], false
	return r.assigned
}

// gapWidth returns the length of the widest aligned prefix around dh —
// the top word of an in-block destination no table delegates — that
// contains no delegation at all: it must split from both the nearest
// assigned range below and the nearest above.
func (r *ISPRouter) gapWidth(dh uint64) uint8 {
	rs := r.assignedRanges()
	i := sort.Search(len(rs), func(i int) bool { return rs[i].lo > dh })
	w := 1
	if i < len(rs) {
		w = bits.LeadingZeros64(dh^rs[i].lo) + 1
	}
	if i > 0 {
		w = max(w, bits.LeadingZeros64(dh^rs[i-1].hi)+1)
	}
	return uint8(w)
}

// uniformWidth returns the width of the largest region around dst over
// which the forwarding decision is uniform, clipped to the block
// boundary. For a delegated destination that is one cell of the finest
// delegation table (every address of a delegated /60 resolves to the
// same subscriber); for an unassigned one (gap) it is the whole empty
// stretch around it, so one entry answers every probe into the gap.
// For destinations outside the block the region extends to the first
// bit where dst and the block diverge. 0 means unexpressible in the top
// 64 bits (claim must be exact).
func (r *ISPRouter) uniformWidth(dst ipv6.Addr, gap bool) uint8 {
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
		if gap {
			w = r.gapWidth(dst.Uint128().Hi)
		}
		if bw := uint8(r.block.Bits()); bw > w {
			w = bw
		}
	} else {
		// Outside the block the decision (upstream default) is uniform
		// up to the first bit where dst and the block diverge.
		c := bits.LeadingZeros64(dst.Uint128().Hi ^ r.block.Addr().Uint128().Hi)
		if c >= 64 {
			return 0
		}
		if uint8(c+1) > w {
			w = uint8(c + 1)
		}
	}
	return w
}

// regionClaim is uniformWidth bounded away from the router's own
// interface addresses (same-/64 ones are excluded instead); a gap claim
// is then narrowed to the next gapStep multiple.
func (r *ISPRouter) regionClaim(dst ipv6.Addr, gap bool, excl *[fpExclCap]ipv6.Addr, nExcl *uint8) uint8 {
	w := r.uniformWidth(dst, gap)
	if w == 0 {
		return 0
	}
	width, ok := avoidAddrs(w, dst, r.addrList, excl, nExcl)
	if !ok {
		*nExcl = 0
		return 0
	}
	if gap {
		width = (width + gapStep - 1) &^ (gapStep - 1)
	}
	return width
}

// CompileStep implements CompilableHop: transit via a delegation or the
// upstream default.
func (r *ISPRouter) CompileStep(in *Iface, dst ipv6.Addr) (CompiledStep, bool) {
	if r.isLocal(dst) {
		return CompiledStep{}, false
	}
	out, ok := r.lookup(dst)
	if !ok {
		if r.block.Contains(dst) || r.upstream == nil || in == r.upstream {
			return CompiledStep{}, false
		}
		out = r.upstream
	}
	step := CompiledStep{Out: out, Forwarded: &r.CountForwarded}
	step.Width = r.regionClaim(dst, false, &step.Excl, &step.NExcl)
	return step, true
}

// CompileTerminal implements terminalCompiler: unassigned space within
// the block — and, absent a usable upstream, anything unrouted — draws
// Destination Unreachable / no route. This is the error the paper's
// periphery discovery exploits one hop early; the whole empty stretch
// around dst compiles to one wide entry.
func (r *ISPRouter) CompileTerminal(in *Iface, dst ipv6.Addr) (compiledTerm, bool) {
	if r.isLocal(dst) {
		return compiledTerm{}, false
	}
	if _, ok := r.lookup(dst); ok {
		return compiledTerm{}, false
	}
	if !r.block.Contains(dst) && r.upstream != nil && in != r.upstream {
		return compiledTerm{}, false // transit hop, not a terminal
	}
	t := compiledTerm{
		typ:  wire.ICMPDestUnreach,
		code: wire.UnreachNoRoute,
		src:  in.addr,
		gate: &r.gate,
	}
	t.width = r.regionClaim(dst, r.block.Contains(dst), &t.excl, &t.nExcl)
	return t, true
}

// compileExpiry implements hopExpirer: Time Exceeded from the arrival
// interface's address for any non-local destination. This is the node
// half of the bounce when a looping probe's hop limit happens to die on
// the provider side rather than at the CPE.
func (r *ISPRouter) compileExpiry(in *Iface, dst ipv6.Addr) (compiledTerm, bool) {
	if r.isLocal(dst) {
		return compiledTerm{}, false
	}
	t := compiledTerm{
		typ: wire.ICMPTimeExceeded, code: wire.TimeExceedHopLimit,
		src:  in.addr,
		gate: &r.gate,
	}
	if width, ok := avoidAddrs(1, dst, r.addrList, &t.excl, &t.nExcl); ok {
		t.width = width
	} else {
		t.nExcl = 0
	}
	return t, true
}

func (r *ISPRouter) emitError(in *Iface, invoking []byte, typ, code uint8) []Emission {
	if !r.gate.allow() {
		return nil
	}
	out := icmpError(in, in.addr, invoking, typ, code)
	if out == nil {
		r.gate.generated--
		return nil
	}
	return r.sc.emit(in, out)
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
