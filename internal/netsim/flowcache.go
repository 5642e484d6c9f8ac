package netsim

import (
	"math/bits"
	"slices"
	"unsafe"

	"repro/internal/ipv6"
	"repro/internal/wire"
)

// This file is the compiled forwarding fast path: a per-engine flow
// cache that records, the first time a packet class is injected, the
// round trip it takes through statically-forwarding nodes — the links
// crossed, the hop-limit decrements, the terminal action, the reply's
// way back to an Edge — so later injections of the flow replay as one
// fused event each (inject.go). The cache is consulted at injection,
// for plain runs, on an unobserved engine: queued deliveries are
// interpreted; a round trip that did not compile end to end is cached
// negative and interpreted; a probe whose flow a FlowTracer samples is
// interpreted, so the interpreter is the one recorder of crossings; and
// with a fault layer or a tap installed nothing is looked up or
// compiled, so loss, duplication, reordering and rate limiting are the
// interpreter's alone. A replayed probe's fate is a function of the
// packet and the entry alone: no node state is read or charged beyond
// the link stats and transit counters — with one exception, the answer
// of a node to a packet addressed to it (an echo reply, its stack's TCP
// or UDP reply), which the replay asks of the node's one local path
// (forwarder.answer) exactly as the interpreter does. Flows are keyed
// by (ingress interface, destination); entries whose every decision is
// uniform across a region of the destination space are stored wide, so
// the scanner's random-IID probes into one window cell share an entry —
// and all the unassigned space of an ISP block is one entry, the gap
// flow, whose hole set is the provider edge's own emptiness index
// (gapIndex, isp.go), not a list it carries.
//
// The compiler walks the same rule the interpreter applies: each node
// on the path that implements decider (rule.go) is asked for its verdict
// and the region that verdict holds over, and the walk stops — the flow
// stays interpreted — at any node that is not a decider (an Edge,
// Hostile, NAT and IPv4 nodes) and at any verdict that is not a
// stateless forward, an error or local delivery (a drop, a loop bounded
// by per-destination state, a UE's expiry). The walk never asks about
// the compiling probe's hop limit: an entry is a function of its path
// alone, and the resolve pass decides which hop limits it serves.
// Entries are validated against a generation counter bumped on topology
// mutation or fast-path toggle — a stale compiled path is never
// replayed — and hold no fault-dependent fact, so arming and disarming
// a fault layer leaves them valid.
//
// The table's memory follows its flows, not its slots: a slot is an
// 8-byte tag plus a 64-byte hot header, and the 456-byte cold tails
// are held densely, one per live entry that replays (flowCache).

// fpHoleCap bounds the per-entry hole list: what a wide entry's region
// does not cover — sub-prefixes (operated subnets, the WAN /64 inside a
// delegation) and, as /128 holes, addresses the path treats specially (a
// node's own addresses, operated LAN hosts). Lookups to them miss and
// compile their own entry. No measured entry holds more than four; five
// keeps the engine's batched-injection scratch at the same offset within
// its cache line (TestEngineLayout).
const fpHoleCap = 5

// entryKind discriminates flow-cache entries.
type entryKind uint8

const (
	// entryNeg: the round trip did not compile end to end (a stateful
	// hop, a drop, an unconnected egress, a reply path that does not
	// compile, more than maxCompiledHops); the flow is interpreted,
	// cached so the walk isn't retried. Always exact.
	entryNeg entryKind = iota
	// entryError: fused transit, compiled ICMPv6 error at the terminal,
	// fused reply path, inline delivery to the Edge. Serves every probe
	// whose hop limit outlives the forward hops and the terminal's own
	// decrement.
	entryError
	// entryLoop: a routing loop (the paper's flawed-CPE bounce, ISP↔CPE
	// until the hop limit dies). The entry records the acyclic prefix
	// (fwd[:loopStart]), one turn of the cycle (fwd[loopStart:nf]), the
	// turn loopTurn of the cycle whose node's Time Exceeded it compiled,
	// and the fused reply path from there. It serves every probe that
	// dies on that turn — hop limit hl with hl-1 ≥ loopStart and
	// (hl-1-loopStart) mod loopLen = loopTurn — whose hl-1 crossings
	// replay as one event with batched charging.
	entryLoop
	// entryLocal: fused transit to a node answering for its own address
	// (flowHot.act: actLocal or actEcho), the node's answer computed at
	// replay by its local path, and the fused reply path back to the
	// probe's source (rev[0] is the terminal's ingress). Always exact; it
	// replays as a run of one (fpReplayLocal), since the answer is the
	// node's state and not the entry's.
	entryLocal
)

// maxCompiledHops bounds recorded path length in each direction; longer
// paths are interpreted.
const maxCompiledHops = 6

// fpTmplLen is the inline error-template length: exactly the error's
// 40-byte IPv6 header plus the 8-byte ICMPv6 header. The invoking
// packet that follows is spliced in from the live probe at replay, so
// only the header is compiled.
const fpTmplLen = wire.HeaderLen + 8

// compiledHop is one recorded link crossing. st caches &out.link.
// stats[out.end] so replay charges the crossing with one load from the
// hop list instead of chasing out -> link -> stats through two cold
// lines per hop; the pointer stays valid because links never reallocate
// their stats and every topology mutation invalidates compiled flows.
type compiledHop struct {
	out *Iface
	fwd *uint64    // transit counter to charge, may be nil
	st  *LinkStats // out's per-direction stat block
}

// hopTo builds the compiled crossing out of an interface.
func hopTo(out *Iface, fwd *uint64) compiledHop {
	return compiledHop{out: out, fwd: fwd, st: &out.link.stats[out.end]}
}

// flowHot flag bits.
const (
	// fpFlagWide: the entry serves every destination sharing its masked
	// hi bits (minus the cold tail's holes).
	fpFlagWide = 1 << 0
)

// flowHot is the hot header of one compiled flow: everything the
// lookup's key confirmation, the resolve guards and the replay dispatch
// need, packed into exactly one 64-byte cache line. A warm probe touches one
// tag line and this line before committing to a replay; the cold tail
// (flowCold, in the dense tail array, found through cold) is reached
// only once the entry is going to be used. The layout is pinned by a
// compile-time assertion below and by TestFlowEntryLayout — widening it
// past a cache line is a silent ~30% lookup regression, so it fails the
// build instead.
type flowHot struct {
	hi, lo uint64 // destination (hi masked to width); lo ignored when wide
	// gen validates the slot: live iff gen == flowCache.gen. 32 bits: a
	// bump that wraps it clears every tag (bumpLocked), so a slot written
	// 2^32 generations ago cannot come back to life.
	gen uint32
	// cold indexes the entry's tail in flowCache.cold. Meaningless on a
	// negative entry, which has none.
	cold uint32
	// gaps is a gap flow's hole set, the terminal ISP router's emptiness
	// index: the entry serves no /64 it holds. nil on every other entry.
	gaps *gapIndex
	ifid uint32
	// Shadow pre-filter: the region's /64 cells (≤16 of them when width
	// ≥ 60; cellShift = 64-width) that contain a hole. A destination in
	// an unmarked cell is definitely not shadowed, so the hit path skips
	// the hole walk in the cold tail. Regions wider than 16 cells mark
	// everything (always walk).
	shadowCell uint16
	kind       entryKind
	flags      uint8 // fpFlag* bits
	// width is the entry's key granularity: hi is masked to its top
	// `width` bits and the entry serves every destination sharing them
	// (minus holes). Exact entries use width 64 with lo compared.
	width     uint8
	nf, nr    uint8
	nHole     uint8
	cellShift uint8
	// entryLoop geometry: fwd[:loopStart] is the acyclic prefix,
	// fwd[loopStart:nf] one turn of the cycle, and the terminal expires
	// loopTurn crossings into a turn. A probe's crossings follow from
	// its own hop limit.
	loopStart uint8
	loopLen   uint8
	loopTurn  uint8
	act       action   // entryLocal: the terminal's verdict
	_         [15]byte // explicit pad: 64 bytes total, asserted below
}

// flowHotSize pins flowHot to one cache line; either assertion failing
// to compile means a field change altered the hot layout.
const flowHotSize = 64

var _ [flowHotSize - unsafe.Sizeof(flowHot{})]byte
var _ [unsafe.Sizeof(flowHot{}) - flowHotSize]byte

func (h *flowHot) wide() bool { return h.flags&fpFlagWide != 0 }

// flowCold is the cold tail of one compiled flow (456 B): the
// forward/reverse hop lists, the reply path metadata, the error header
// and the wide region's holes. Tails are held densely, one per live
// non-negative entry, not one per slot: the table runs a few percent
// full (see the sizing comment), so a slot-parallel array spent ~37 MB
// on a 64K-slot table to hold ~2 MB of flows. Field order is replay
// order — the batched resolve guard (replySrc), the delivery target
// (edge) and the template checksum share the tail's first cache line,
// which the resolve pass pulls alongside the hot header — with the
// holes last, walked only for destinations whose /64 cell the hot
// pre-filter marked. Nothing writes a tail after compile.
type flowCold struct {
	replySrc ipv6.Addr // reply path below is valid only for this probe source
	edge     *Iface    // edge ingress for the reply (nr > 0)
	// Error header template, built at compile (compileErrorTerm): the
	// error's IPv6 + ICMPv6 headers with the payload length and checksum
	// left for the replay, plus the partial checksum of everything but
	// the length and the quote. Replay copies the header, splices the
	// invoking packet after it, and finishes length and checksum
	// arithmetically (fpBuildErrorFrom).
	tmplSum uint64
	tmpl    [fpTmplLen]byte
	rev     [maxCompiledHops]compiledHop
	fwd     [maxCompiledHops]compiledHop
	// Holes of a wide region, pre-split for the lookup path: holeBits ≤
	// 64 compares masked hi only, longer holes (a /128 among them)
	// compare hi exactly plus masked lo.
	holeBits [fpHoleCap]uint8
	holeHi   [fpHoleCap]uint64
	holeLo   [fpHoleCap]uint64
}

// Flow-table sizing: open-addressed, fixed slot count per generation,
// grown ×4 up to fpMaxSlots when fill passes 40% or a probe window is
// full. A lookup probes fpProbe consecutive slots; insert evicts within
// the same window, so a hot flow displaced by a collision is simply
// recompiled. In practice the full window, not the fill, sizes the
// table: some 4-slot window overflows long before 40% fill (at 6–32%
// for random keys, lower the larger the table), and a seed-1 scan_cold
// sweep ends with 3,659 flows in 65,536 slots (5.6%). That is why a
// slot carries only its tag and hot header (72 B) and the tails are
// dense.
const (
	fpMinSlots = 1 << 10
	fpMaxSlots = 1 << 16
	fpProbe    = 4
)

// fpWidthCap bounds how many distinct entry widths one cache tracks; a
// lookup probes once per live width, so topologies keep this tiny (64
// for exact and /64 entries, the ISP delegation granularities, and the
// gap flows' block width as the upstream hops' addresses narrow it).
const fpWidthCap = 8

// fpWidthDecay is the per-width hit count at which all counts halve:
// the probe order follows roughly the last 2^16 hits.
const fpWidthDecay = 1 << 16

// flowCache is the per-engine compiled-flow table.
//
// tags is a parallel array of one 8-byte hash tag per slot (eight per
// cache line), so a lookup's probe window costs one dense line load
// instead of touching the entry payloads; a tag match reads the 64-byte
// hot header, whose own key fields confirm it (a colliding tag is a
// wasted slot load, never a wrong hit). Tag zero means the slot has not
// been written since the table was made or the generation wrapped. The
// payload itself is split hot/cold: hot is parallel to tags, and cold is
// a dense array of tails, one per live non-negative entry, indexed by
// flowHot.cold. The per-probe line budget of a warm error replay is
// tags + hot + the cold tail's first line instead of the ~8 lines a
// single monolithic struct cost.
//
// cold may move when a compile appends to it, so no *flowCold is held
// across an insert. The run replay relies on only the head of a run
// compiling (inject.go): every tail pointer it takes is taken after the
// run's one compile.
type flowCache struct {
	enabled bool
	tags    []uint64
	hot     []flowHot
	mask    uint64
	fill    int
	// cold holds the tails; free lists the indices of tails released
	// when a live entry was overwritten by a negative one or evicted
	// during growth, reused before cold is appended to. Both are
	// emptied on a bump.
	cold []flowCold
	free []uint32
	// gen validates entries: a slot is live iff its tag is non-zero and
	// hot.gen == gen. Bumping gen invalidates every compiled flow at once.
	gen    uint32
	nextID uint32

	// widths lists the distinct key widths of live entries. Probe order
	// is a perf knob, not a correctness one — a wide entry refuses
	// destinations in its holes (shadowed), so any entry a
	// lookup matches is safe to replay — and lookups keep it sorted by
	// whits, each width's recent hit count (halved all round when one
	// reaches fpWidthDecay), so the workload's dominant granularity is
	// probed first and stays first while a second one takes a steady
	// share of the hits. Reset on bump along with the entries.
	widths  [fpWidthCap]uint8
	whits   [fpWidthCap]uint32
	nWidths uint8

	hits          uint64
	misses        uint64
	invalidations uint64
	// compiles counts compileFlow walks; evictions counts live entries
	// overwritten because their probe window was full at fpMaxSlots, or
	// full of entries sharing the new one's slot hash, which no growth
	// separates.
	compiles  uint64
	evictions uint64
}

// bumpLocked invalidates all compiled flows and drops their tails.
func (fp *flowCache) bumpLocked() {
	fp.gen++
	if fp.gen == 0 {
		// Wrapped: slots last written at this generation number 2^32
		// bumps ago would read as live again. Kill them all.
		clear(fp.tags)
	}
	fp.cold = fp.cold[:0]
	fp.free = fp.free[:0]
	fp.fill = 0
	fp.nWidths = 0
	fp.invalidations++
}

// live reports whether slot j holds an entry of the current generation.
func (fp *flowCache) live(j uint64) bool { return fp.tags[j] != 0 && fp.hot[j].gen == fp.gen }

// assignIDLocked gives an interface its engine-local flow-key id.
func (fp *flowCache) assignIDLocked(i *Iface) {
	if i.fpID == 0 {
		fp.nextID++
		i.fpID = fp.nextID
	}
}

func fpHash(ifid uint32, hi uint64) uint64 {
	x := hi ^ uint64(ifid)*0x9E3779B97F4A7C15
	x ^= x >> 33
	x *= 0xFF51AFD7ED558CCD
	x ^= x >> 29
	return x
}

// fpMask is the hi-bits mask of a key width in 1..64.
func fpMask(w uint8) uint64 { return ^uint64(0) << (64 - w) }

// slotHash keys a slot by (interface, width, masked destination bits);
// mixing the width keeps one cell's entries at different granularities
// in distinct probe windows.
func slotHash(ifid uint32, w uint8, hw uint64) uint64 {
	return fpHash(ifid, hw) ^ uint64(w)*0x9FB21C651E98DF25
}

// fpTagWide is the tag of a wide entry: the slot hash itself, with the
// low bit claimed so live tags are never zero. The hash's high bits
// discriminate between flows whose windows overlap (the window index
// consumes only the low bits).
func fpTagWide(h uint64) uint64 { return h | 1 }

// fpTagExact is the tag of an exact (/128) entry, folding the low
// destination word in so two addresses in one /64 get distinct tags.
func fpTagExact(h, lo uint64) uint64 {
	x := h ^ lo*0x9E3779B97F4A7C15
	x ^= x >> 29
	x *= 0xFF51AFD7ED558CCD
	x ^= x >> 32
	return x | 1
}

// keyWidth returns the width an entry claiming w is keyed at: w itself
// when it is live or the width table has room for it, else the nearest
// live width above it. Narrowing a claim is always sound — the smaller
// region is a subset of a uniform one, aligned on the same destination,
// and the holes stay a superset of what it needs — and
// keeps the entry shared across a region instead of degrading it to one
// address. ok=false when no live width is that narrow.
func (fp *flowCache) keyWidth(w uint8) (uint8, bool) {
	var above uint8
	for _, lw := range fp.widths[:fp.nWidths] {
		if lw == w {
			return w, true
		}
		if lw > w && (above == 0 || lw < above) {
			above = lw
		}
	}
	if int(fp.nWidths) < fpWidthCap {
		fp.widths[fp.nWidths], fp.whits[fp.nWidths] = w, 0
		fp.nWidths++
		return w, true
	}
	return above, above != 0
}

// buildShadowCells precomputes a wide entry's shadow pre-filter: one
// bit per /64 cell of the region that holds a hole. Marking too much is
// sound (a marked cell just walks the full list), so anything
// unexpressible marks everything.
func buildShadowCells(h *flowHot, c *flowCold) {
	shift := 64 - int(h.width)
	if shift > 4 {
		h.cellShift = 4
		h.shadowCell = ^uint16(0)
		return
	}
	h.cellShift = uint8(shift)
	mask := uint64(1)<<shift - 1
	var cells uint16
	for k := uint8(0); k < h.nHole; k++ {
		hb := int(c.holeBits[k])
		base := c.holeHi[k] & mask
		switch {
		case hb >= 64:
			cells |= 1 << (base & 15)
		case hb < int(h.width):
			cells = ^uint16(0) // hole coarser than the region: mark all
		default:
			for cc := uint64(0); cc < uint64(1)<<(64-hb); cc++ {
				cells |= 1 << ((base + cc) & 15)
			}
		}
	}
	h.shadowCell = cells
}

// shadowed reports whether dst (hi, lo) falls in one of a wide entry's
// holes — a carved-out sub-prefix or a special address. Such lookups
// miss, so the holed destination compiles its own (more specific) entry
// rather than replaying the wide one.
func shadowed(h *flowHot, c *flowCold, hi, lo uint64) bool {
	for k := uint8(0); k < h.nHole; k++ {
		hb := c.holeBits[k]
		if hb <= 64 {
			if (hi^c.holeHi[k])&fpMask(hb) == 0 {
				return true
			}
		} else if hi == c.holeHi[k] && (lo^c.holeLo[k])&fpMask(hb-64) == 0 {
			return true
		}
	}
	return false
}

// lookup finds a live entry for (ifid, dst), probing once per live key
// width, and returns its slot index (-1 on miss). Wide entries match
// any address sharing the masked hi bits outside their holes;
// exact entries require the full destination. The width that hits moves
// ahead of any it has out-hit, so steady-state traffic resolves against
// its dominant granularity on the first probe.
func (fp *flowCache) lookup(ifid uint32, hi, lo uint64) int {
	if fp.tags == nil {
		return -1
	}
	gen := fp.gen
	for wi := uint8(0); wi < fp.nWidths; wi++ {
		w := fp.widths[wi]
		hw := hi & fpMask(w)
		h := slotHash(ifid, w, hw)
		// Entries narrower than /64 are always wide; at exactly 64 the
		// slot may hold either a wide /64 region or an exact address.
		want, wantExact := fpTagWide(h), fpTagWide(h)
		if w == 64 {
			wantExact = fpTagExact(h, lo)
		}
		for i := uint64(0); i < fpProbe; i++ {
			j := (h + i) & fp.mask
			t := fp.tags[j]
			if t != want && t != wantExact {
				continue
			}
			s := &fp.hot[j]
			if s.gen != gen || s.hi != hw || s.ifid != ifid || s.width != w ||
				(s.flags&fpFlagWide == 0 && s.lo != lo) {
				continue
			}
			if s.gaps != nil && s.gaps.assigned(hi) {
				continue // a hole of the gap flow: the narrower widths hold it
			}
			if s.flags&fpFlagWide != 0 && s.nHole != 0 {
				cell := uint16(1) << (hi & (uint64(1)<<s.cellShift - 1))
				if s.shadowCell&cell != 0 && shadowed(s, &fp.cold[s.cold], hi, lo) {
					continue
				}
			}
			if fp.whits[wi]++; fp.whits[wi] == fpWidthDecay {
				for k := range fp.whits {
					fp.whits[k] >>= 1
				}
			}
			if wi > 0 && fp.whits[wi] > fp.whits[wi-1] {
				fp.widths[wi-1], fp.widths[wi] = fp.widths[wi], fp.widths[wi-1]
				fp.whits[wi-1], fp.whits[wi] = fp.whits[wi], fp.whits[wi-1]
			}
			return int(j)
		}
	}
	return -1
}

// insert stores the (hot, cold) pair and returns its table slot index.
// The table grows when fill passes 40% — or, crucially, whenever a
// probe window is full of live entries that growth can spread out:
// evictions don't raise fill, so without the second trigger a saturated
// table would stall below the threshold and churn (every insert killing
// a live flow) instead of growing.
func (fp *flowCache) insert(h *flowHot, c *flowCold) int {
	if fp.hot == nil {
		fp.tags = make([]uint64, fpMinSlots)
		fp.hot = make([]flowHot, fpMinSlots)
		fp.mask = fpMinSlots - 1
	} else if (fp.fill+1)*5 > len(fp.hot)*2 && len(fp.hot) < fpMaxSlots {
		fp.grow()
	}
	for {
		if j, ok := fp.tryPlace(h, c); ok {
			return j
		}
		if len(fp.hot) >= fpMaxSlots || !fp.separable(h) {
			return fp.place(h, c) // capped or inseparable: evict within the window
		}
		fp.grow()
	}
}

// separable reports whether growing can split the full probe window h
// hashes to: some resident has another slot hash, so a wider mask may
// send it elsewhere. Residents sharing h's hash — exact entries of one
// /64 through one ingress — share a window at every table size.
func (fp *flowCache) separable(h *flowHot) bool {
	hash := slotHash(h.ifid, h.width, h.hi)
	for i := uint64(0); i < fpProbe; i++ {
		s := &fp.hot[(hash+i)&fp.mask]
		if slotHash(s.ifid, s.width, s.hi) != hash {
			return true
		}
	}
	return false
}

// fpTag is the tag the entry will carry, given its slot hash.
func (h *flowHot) fpTag(hash uint64) uint64 {
	if h.wide() {
		return fpTagWide(hash)
	}
	return fpTagExact(hash, h.lo)
}

// setSlot writes the entry into slot j, keeping tag and payload in sync.
// c is a freshly compiled entry's tail, or nil when growth moves an
// entry that keeps the tail h.cold names. A tail held by the slot's
// previous live occupant is reused for c, or released if c takes none.
func (fp *flowCache) setSlot(j uint64, h *flowHot, c *flowCold) int {
	old, had := fp.hot[j].cold, fp.live(j) && fp.hot[j].kind != entryNeg
	fp.tags[j] = h.fpTag(slotHash(h.ifid, h.width, h.hi))
	s := &fp.hot[j]
	*s = *h
	s.gen = fp.gen
	if c != nil && h.kind != entryNeg {
		if !had {
			old = fp.newTail()
		}
		s.cold = old
		fp.cold[old] = *c
	} else if had {
		fp.free = append(fp.free, old)
	}
	return int(j)
}

// newTail returns the index of an unused tail: a released one, else one
// appended to cold (which may move it).
func (fp *flowCache) newTail() uint32 {
	if n := len(fp.free); n > 0 {
		t := fp.free[n-1]
		fp.free = fp.free[:n-1]
		return t
	}
	if len(fp.cold) == cap(fp.cold) {
		// Double: append steps a slice this large by ~1.25×, and every
		// step leaves the old tails as garbage — ~4× the live tails
		// over a sweep instead of ~1×.
		fp.cold = slices.Grow(fp.cold, max(64, len(fp.cold)))
	}
	fp.cold = append(fp.cold, flowCold{})
	return uint32(len(fp.cold) - 1)
}

// tryPlace stores the entry if its probe window has a dead slot or
// already holds the same flow; ok=false when placing would evict a live
// entry.
func (fp *flowCache) tryPlace(h *flowHot, c *flowCold) (int, bool) {
	hash := slotHash(h.ifid, h.width, h.hi)
	tag := h.fpTag(hash)
	victim := uint64(1) << 63
	for i := uint64(0); i < fpProbe; i++ {
		j := (hash + i) & fp.mask
		s := &fp.hot[j]
		if fp.live(j) {
			if fp.tags[j] == tag && s.ifid == h.ifid && s.width == h.width &&
				s.hi == h.hi && s.flags&fpFlagWide == h.flags&fpFlagWide &&
				(h.wide() || s.lo == h.lo) {
				return fp.setSlot(j, h, c), true // recompile of the same flow
			}
			continue
		}
		if victim == uint64(1)<<63 {
			victim = j
		}
	}
	if victim == uint64(1)<<63 {
		return 0, false
	}
	fp.fill++
	return fp.setSlot(victim, h, c), true
}

func (fp *flowCache) place(h *flowHot, c *flowCold) int {
	if j, ok := fp.tryPlace(h, c); ok {
		return j
	}
	hash := slotHash(h.ifid, h.width, h.hi)
	fp.evictions++
	return fp.setSlot(hash&fp.mask, h, c) // window full: evict
}

// grow rehashes the live entries into a table four times the size. The
// tails stay where they are: each moved entry keeps its cold index.
func (fp *flowCache) grow() {
	oldTags, oldHot := fp.tags, fp.hot
	gen := fp.gen
	fp.tags = make([]uint64, len(oldHot)*4)
	fp.hot = make([]flowHot, len(oldHot)*4)
	fp.mask = uint64(len(fp.hot) - 1)
	fp.fill = 0
	for i := range oldHot {
		if oldTags[i] != 0 && oldHot[i].gen == gen {
			fp.place(&oldHot[i], nil)
		}
	}
}

// avoidAddrs returns the width (≥ width) of the largest claimable
// region around dst that keeps every element of addrs out of it;
// addresses sharing dst's full /64 cannot be widened past and become
// /128 holes instead. When the hole list overflows the width is 0: the
// claim must be exact. Routers use this to bound region claims by their
// own interface addresses.
func avoidAddrs(width uint8, dst ipv6.Addr, addrs []ipv6.Addr, reg *region) uint8 {
	dh := dst.Uint128().Hi
	for _, a := range addrs {
		c := bits.LeadingZeros64(dh ^ a.Uint128().Hi)
		if c >= 64 {
			if a == dst {
				continue // the caller already handled dst itself
			}
			if !reg.addHole(ipv6.MustPrefix(a, 128)) {
				return 0
			}
			continue
		}
		if w := uint8(c + 1); w > width {
			width = w
		}
	}
	return width
}

// prefixWidth converts a region prefix into a width claim: its length
// when expressible in the top 64 bits, else 0 (exact).
func prefixWidth(p ipv6.Prefix) uint8 {
	if b := p.Bits(); b >= 1 && b <= 64 {
		return uint8(b)
	}
	return 0
}

// compileFlow dry-walks the round trip a packet delivered at `to` takes
// to dst and installs the resulting entry (negative unless the whole
// trip compiled) for the caller to look up. No Handle is executed and
// no state mutated: the walk asks each node's decide for its verdict
// and region only, as for a packet whose hop limit never expires on the
// way, so the entry depends on the path and not on the compiling
// probe's hop limit. The entry and the region are built in engine
// scratch, so compiling never allocates.
func (e *Engine) compileFlow(to *Iface, pkt []byte) {
	e.fp.compiles++
	dst := ipv6.AddrFromBytes(pkt[24:40])
	u := dst.Uint128()
	ent := &e.fpScratchH
	cld := &e.fpScratchC
	reg := &e.fpScratchR
	*ent = flowHot{}
	*cld = flowCold{}
	ent.ifid = to.fpID
	ent.hi, ent.lo = u.Hi, u.Lo
	ent.kind = entryNeg
	ent.flags = fpFlagWide
	ent.width = 1
	// Visited ingress interfaces, for routing-cycle detection: ins[i]
	// is where the packet is after i crossings.
	var ins [maxCompiledHops + 1]*Iface
	ins[0] = to
	in := to
	for {
		d, ok := in.node.(decider)
		if !ok {
			break // an Edge, or a node only the interpreter runs
		}
		*reg = region{}
		v := d.decide(in, dst, false, reg)
		if !v.compiles() {
			break
		}
		if v.act == actLocal || v.act == actEcho {
			compileLocalTerm(ent, cld, in, v.act, pkt)
			break
		}
		if v.act == actError {
			compileErrorTerm(ent, cld, in, d, v, reg, pkt)
			break
		}
		if int(ent.nf) == maxCompiledHops || v.ifc == nil || v.ifc.link == nil {
			// Path too long or egress unconnected: interpreted.
			break
		}
		applyRegion(ent, cld, reg)
		cld.fwd[ent.nf] = hopTo(v.ifc, d.fw().fwd)
		ent.nf++
		next := v.ifc.link.ends[1-v.ifc.end]
		if p := slices.Index(ins[:ent.nf], next); p >= 0 {
			// A routing loop: the packet bounces around the cycle
			// ins[p:nf] until its hop limit dies. A probe arriving with
			// hop limit hl expires after hl-1 crossings, at ins[p+r] for
			// the turn r = (hl-1-p) mod l. The entry takes this probe's
			// turn — or, when this probe dies before the cycle, the turn
			// a probe of the maximum hop limit dies on.
			l := int(ent.nf) - p
			k := int(pkt[7]) - 1
			if k < p {
				k = wire.MaxHopLimit - 1
			}
			r := (k - p) % l
			exp := ins[p+r]
			if d, ok := exp.node.(decider); ok {
				*reg = region{}
				if v := d.decide(exp, dst, true, reg); v.compiles() && v.act == actError {
					compileLoopTerm(ent, cld, exp, d, v, reg, pkt, p, l, r)
				}
			}
			break
		}
		ins[ent.nf] = next
		in = next
	}
	if ent.kind == entryNeg {
		ent.flags &^= fpFlagWide
	}
	if ent.wide() {
		if w, ok := e.fp.keyWidth(ent.width); ok {
			ent.width = w
		} else {
			ent.flags &^= fpFlagWide // no live width this narrow: key exactly
		}
	}
	if ent.wide() {
		ent.hi &= fpMask(ent.width)
		buildShadowCells(ent, cld)
	} else {
		// Exact entries are keyed at /64 with the low half compared,
		// and carry no holes.
		ent.width = 64
		ent.nHole, ent.gaps = 0, nil
		if _, ok := e.fp.keyWidth(64); !ok {
			return // unkeyable
		}
	}
	e.fp.insert(ent, cld)
}

// applyRegion folds one hop's or the terminal's region claim into the
// entry: the width narrows to the claim's (larger width = smaller
// region) and the holes accumulate; an overflow forces the entry exact.
func applyRegion(h *flowHot, c *flowCold, reg *region) {
	if reg.width == 0 {
		h.flags &^= fpFlagWide
	} else if reg.width > h.width {
		h.width = reg.width
	}
	for _, p := range reg.holes[:reg.nHole] {
		if !mergeHole(h, c, p) {
			h.flags &^= fpFlagWide
		}
	}
}

// mergeHole folds a hole into the entry, deduplicating; false when the inline list overflows (the entry must
// then be exact).
func mergeHole(h *flowHot, c *flowCold, p ipv6.Prefix) bool {
	b := p.Bits()
	if b < 1 || b > 128 {
		return false
	}
	u := p.Addr().Uint128()
	for k := uint8(0); k < h.nHole; k++ {
		if c.holeBits[k] == uint8(b) && c.holeHi[k] == u.Hi && c.holeLo[k] == u.Lo {
			return true
		}
	}
	if int(h.nHole) == fpHoleCap {
		return false
	}
	c.holeBits[h.nHole] = uint8(b)
	c.holeHi[h.nHole] = u.Hi
	c.holeLo[h.nHole] = u.Lo
	h.nHole++
	return true
}

// compileReply records the reply's return path from termIn back to an
// Edge into the cold tail's rev list (rev[0] is the emission out the
// arrival interface, the rest forwarding crossings). false when any
// reverse hop is uncompilable or unconnected.
func compileReply(h *flowHot, c *flowCold, termIn *Iface, rdst ipv6.Addr) bool {
	if termIn.link == nil {
		return false
	}
	c.rev[0] = hopTo(termIn, nil)
	nr := 1
	rin := termIn.link.ends[1-termIn.end]
	for {
		node := rin.node
		if _, isEdge := node.(*Edge); isEdge {
			c.edge = rin
			break
		}
		d, ok := node.(decider)
		if !ok {
			return false
		}
		// The reply path is keyed on the probe's source exactly, so no
		// region is asked for.
		v := d.decide(rin, rdst, false, nil)
		if !v.compiles() || v.act != actForward || nr == maxCompiledHops ||
			v.ifc == nil || v.ifc.link == nil {
			return false
		}
		c.rev[nr] = hopTo(v.ifc, d.fw().fwd)
		nr++
		rin = v.ifc.link.ends[1-v.ifc.end]
	}
	h.nr = uint8(nr)
	return true
}

// compileErrorTerm upgrades the entry to a fully fused error round
// trip: the terminal node's ICMPv6 error verdict over its region, the
// compiled reply path back to an Edge and the error's headers; without
// a reply path the entry stays negative. A terminal that suppresses its
// errors compiles with no reply path (nr == 0): its probes die there.
func compileErrorTerm(h *flowHot, c *flowCold, termIn *Iface, term decider, v verdict, reg *region, pkt []byte) {
	// The reply path is compiled for this probe's source; the resolve
	// pass guards on it.
	rdst := ipv6.AddrFromBytes(pkt[8:24])
	if !term.fw().suppress && !compileReply(h, c, termIn, rdst) {
		return
	}
	h.kind = entryError
	c.replySrc = rdst
	applyRegion(h, c, reg)
	h.gaps = reg.gaps
	// The headers of the error quoting nothing, built in place, with the
	// hop limit already lowered for the nr-1 reverse forwarding hops.
	// The checksum sum leaves out the length, which the quote sets.
	hl := uint8(wire.MaxHopLimit)
	if h.nr > 1 {
		hl -= h.nr - 1
	}
	if v.err.typ == wire.ICMPTimeExceeded {
		wire.AppendTimeExceeded(c.tmpl[:0], v.ifc.addr, rdst, hl, nil)
	} else {
		wire.AppendDestUnreach(c.tmpl[:0], v.ifc.addr, rdst, hl, v.err.code, nil)
	}
	c.tmplSum = wire.PseudoSum(v.ifc.addr, rdst, wire.ProtoICMPv6, 0) +
		uint64(v.err.typ)<<8 + uint64(v.err.code)
}

// compileLocalTerm upgrades the entry to a round trip ending at a node
// answering for its own address: the forward hops so far, the
// terminal's action and the reply path from its ingress back to this
// probe's source, which the resolve pass guards on. The entry is exact
// — the verdict holds for dst alone — and stays negative when the reply
// path does not compile.
func compileLocalTerm(h *flowHot, c *flowCold, termIn *Iface, act action, pkt []byte) {
	rdst := ipv6.AddrFromBytes(pkt[8:24])
	if !compileReply(h, c, termIn, rdst) {
		return
	}
	h.kind = entryLocal
	h.act = act
	h.flags &^= fpFlagWide
	c.replySrc = rdst
}

// compileLoopTerm upgrades the entry to a fused hop-limit-expiry round
// trip: prefix crossings (fwd[:p]), a cycle of l crossings (fwd[p:p+l]),
// the Time Exceeded that fires at expIn's node r crossings into a turn,
// and the compiled reply. The resolve pass serves it to every probe
// that dies on that turn.
func compileLoopTerm(h *flowHot, c *flowCold, expIn *Iface, exp decider, v verdict, reg *region, pkt []byte, p, l, r int) {
	compileErrorTerm(h, c, expIn, exp, v, reg, pkt)
	if h.kind != entryError {
		return
	}
	h.kind = entryLoop
	h.loopStart, h.loopLen, h.loopTurn = uint8(p), uint8(l), uint8(r)
}

// loopHopCount is how many times recorded hop i is crossed when a loop
// entry with acyclic prefix p and cycle length l expires after cross
// total crossings.
func loopHopCount(i, p, l, cross int) uint64 {
	if i < p {
		if i < cross {
			return 1
		}
		return 0
	}
	q := cross - p
	cnt := uint64(q / l)
	if i-p < q%l {
		cnt++
	}
	return cnt
}
