package netsim

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
	"unsafe"

	"repro/internal/ipv6"
	"repro/internal/wire"
)

// TestFlowEntryLayout pins the hot/cold entry split the batched resolve
// pass depends on: the hot header — everything the lookup guards and
// the replay dispatch read — must be exactly one 64-byte cache line, so
// a resolve run touches one tag word and one hot line per probe and
// nothing else until the probe is known to replay. The compile-time
// assertions in flowcache.go enforce the same bound; this test exists
// to name the failure when a field lands in the wrong half.
func TestFlowEntryLayout(t *testing.T) {
	if got := unsafe.Sizeof(flowHot{}); got != flowHotSize {
		t.Errorf("flowHot is %d bytes, want %d (one cache line)", got, flowHotSize)
	}
	if flowHotSize != 64 {
		t.Errorf("flowHotSize = %d, want 64", flowHotSize)
	}
	if a := unsafe.Alignof(flowHot{}); flowHotSize%a != 0 {
		t.Errorf("flowHot alignment %d does not pack line-aligned arrays", a)
	}
}

// TestEngineLayout pins netsim.Engine's field offsets (64-bit
// platforms). The pump's hot fields sit at the front; retMu/returned,
// which ReleaseBufs writes from another goroutine, sit last. The layout
// carries measurable speed that nothing else guards: 32 bytes inserted
// after pool made scan_cold and rescan_warm ~4.5% slower, while the
// same fields appended at the end left both flat.
func TestEngineLayout(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("offsets pinned for 64-bit platforms")
	}
	var e Engine
	for _, f := range []struct {
		name      string
		got, want uintptr
	}{
		{"mu", unsafe.Offsetof(e.mu), 0},
		{"queue", unsafe.Offsetof(e.queue), 8},
		{"links", unsafe.Offsetof(e.links), 32},
		{"steps", unsafe.Offsetof(e.steps), 56},
		{"seq", unsafe.Offsetof(e.seq), 64},
		{"fault", unsafe.Offsetof(e.fault), 72},
		{"tap", unsafe.Offsetof(e.tap), 80},
		{"txPackets", unsafe.Offsetof(e.txPackets), 88},
		{"txBytes", unsafe.Offsetof(e.txBytes), 96},
		{"txDropped", unsafe.Offsetof(e.txDropped), 104},
		{"pool", unsafe.Offsetof(e.pool), 112},
		{"owner", unsafe.Offsetof(e.owner), 136},
		{"ownerReused", unsafe.Offsetof(e.ownerReused), 144},
		{"ftr", unsafe.Offsetof(e.ftr), 152},
		{"fp", unsafe.Offsetof(e.fp), 168},
		{"fpScratchH", unsafe.Offsetof(e.fpScratchH), 384},
		{"fpScratchC", unsafe.Offsetof(e.fpScratchC), 448},
		{"fpScratchR", unsafe.Offsetof(e.fpScratchR), 904},
		{"inj", unsafe.Offsetof(e.inj), 1040},
		{"retMu", unsafe.Offsetof(e.retMu), 2088},
		{"returned", unsafe.Offsetof(e.returned), 2096},
		{"(end)", unsafe.Sizeof(e), 2120},
	} {
		if f.got != f.want {
			t.Errorf("Engine.%s at offset %d, pinned at %d. Re-pin only with paired "+
				"scan_cold/rescan_warm runs against the parent (bench/): a 32-byte insert "+
				"after pool cost ~4.5%%. Keep retMu/returned last.", f.name, f.got, f.want)
		}
	}
	if end := unsafe.Offsetof(e.returned) + unsafe.Sizeof(e.returned); end != unsafe.Sizeof(e) {
		t.Errorf("Engine.returned ends at %d of %d: retMu/returned must be the last fields", end, unsafe.Sizeof(e))
	}
}

// TestFlowCacheTagCollisionProperty is the tag-prefilter soundness
// property: a colliding tag — the 8-byte prefilter word matching a
// probe whose flow the slot does not hold — may cost a wasted hot-line
// load, but must never produce a wrong hit. The test plants forged tags
// in the exact probe windows random destinations hash to, over live
// slots holding other flows, and verifies every lookup result still
// genuinely covers the destination.
func TestFlowCacheTagCollisionProperty(t *testing.T) {
	n := buildTestNet(t, CPEBehavior{}, ErrorPolicy{})
	for i, dst := range []ipv6.Addr{
		wanAddr, lanHost,
		ipv6.MustParseAddr("2001:db8:aaaa:bbbb::1"),
		ipv6.MustParseAddr("2001:db8:cccc::99"),
	} {
		pkt, err := wire.BuildEchoRequest(scannerAddr, dst, 64, 0xbeef, uint16(i+1), nil)
		if err != nil {
			t.Fatal(err)
		}
		n.eng.Inject(n.scanner.Iface(), pkt)
	}
	fp := &n.eng.fp
	if fp.tags == nil || fp.nWidths == 0 {
		t.Fatal("no compiled flows to collide with")
	}
	var ifid uint32
	for j := range fp.tags {
		if fp.tags[j] != 0 && fp.hot[j].gen == fp.gen {
			ifid = fp.hot[j].ifid
			break
		}
	}
	if ifid == 0 {
		t.Fatal("no live entry found")
	}

	rng := rand.New(rand.NewSource(7))
	wrong := func(s *flowHot, hi, lo uint64) bool {
		if s.gen != fp.gen || s.ifid != ifid {
			return true
		}
		if hi&fpMask(s.width) != s.hi {
			return true
		}
		if !s.wide() {
			return s.width != 64 || s.lo != lo
		}
		// A wide region hit must not sit in a hole.
		return s.nHole != 0 && shadowed(s, &fp.cold[s.cold], hi, lo)
	}
	for trial := 0; trial < 5000; trial++ {
		hi, lo := rng.Uint64(), rng.Uint64()
		w := fp.widths[rng.Intn(int(fp.nWidths))]
		h := slotHash(ifid, w, hi&fpMask(w))
		j := (h + uint64(rng.Intn(fpProbe))) & fp.mask
		tag := fpTagWide(h)
		if w == 64 && rng.Intn(2) == 0 {
			tag = fpTagExact(h, lo)
		}
		old := fp.tags[j]
		fp.tags[j] = tag
		if got := fp.lookup(ifid, hi, lo); got >= 0 {
			if wrong(&fp.hot[got], hi, lo) {
				t.Fatalf("trial %d: forged tag %#x at slot %d made lookup(%#x, %#x) return slot %d holding width=%d hi=%#x",
					trial, tag, j, hi, lo, got, fp.hot[got].width, fp.hot[got].hi)
			}
		}
		fp.tags[j] = old
	}
}

// TestFlowCacheColdTailsTrackFlows pins the dense cold-tail layout on
// the cold sweep BenchmarkEngineInjectColdSparse times: one tail per live
// non-negative entry, and a sweep whose allocations follow the flows it
// compiles, not the slots the table grows to. With a tail per slot the
// same sweep allocated ~12.5 MB, nearly all of it table growth.
func TestFlowCacheColdTailsTrackFlows(t *testing.T) {
	delegs, pkts := coldSparseFixture(t)
	n := buildSparseNet(t, sparseBlock, delegs)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	n.sweep(pkts, nil)
	runtime.ReadMemStats(&after)

	fp := &n.eng.fp
	live := checkTails(t, fp)
	// ~3.1 MB: 72 B per slot through two growths plus ~1,000 tails.
	const bound = 6 << 20
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > bound {
		t.Errorf("a cold sweep compiling %d flows into %d slots allocated %.1f MB, want <= %d MB",
			live, len(fp.tags), float64(alloc)/(1<<20), bound>>20)
	}
}

// TestFlowCacheColdTailsChurn drives a table through recompiles,
// evictions between negative and compiled entries, growth and bumps,
// checking the tail bookkeeping every 97 inserts and at the end.
func TestFlowCacheColdTailsChurn(t *testing.T) {
	fp := flowCache{gen: 1}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 20000; i++ {
		if rng.Intn(5000) == 0 {
			fp.bumpLocked()
		}
		fp.keyWidth(64)
		h := flowHot{ifid: 1 + uint32(rng.Intn(2)), hi: uint64(rng.Intn(1 << 13)), lo: uint64(rng.Intn(3)), width: 64, kind: entryNeg}
		if rng.Intn(2) == 0 {
			h.kind = entryError
		}
		fp.insert(&h, &flowCold{})
		if i%97 == 0 {
			checkTails(t, &fp)
		}
	}
	checkTails(t, &fp)
	if fp.evictions == 0 || len(fp.free) == 0 {
		t.Errorf("churn evicted %d entries and left %d free tails: the release path went unexercised", fp.evictions, len(fp.free))
	}
}

// checkTails asserts the dense tail invariant: every live non-negative
// entry owns a distinct tail that is not on the free list, and no other
// tail is in use. It returns the number of live entries.
func checkTails(t *testing.T, fp *flowCache) int {
	t.Helper()
	owner := make(map[uint32]int)
	live := 0
	for j := range fp.tags {
		if !fp.live(uint64(j)) {
			continue
		}
		live++
		if fp.hot[j].kind == entryNeg {
			continue
		}
		c := fp.hot[j].cold
		if int(c) >= len(fp.cold) {
			t.Fatalf("slot %d names tail %d of %d", j, c, len(fp.cold))
		}
		if o, dup := owner[c]; dup {
			t.Fatalf("slots %d and %d share tail %d", o, j, c)
		}
		owner[c] = j
	}
	for _, c := range fp.free {
		if o, used := owner[c]; used {
			t.Fatalf("tail %d is free but slot %d holds it", c, o)
		}
	}
	if tails := len(fp.cold) - len(fp.free); tails != len(owner) {
		t.Fatalf("%d cold tails for %d live non-negative entries (%d live, %d slots)", tails, len(owner), live, len(fp.tags))
	}
	return live
}

// TestFlowCacheGenerationWrap bumps a table across 2^32 generations back
// to the one an entry was written in: the narrowed generation counter
// must not bring the entry back.
func TestFlowCacheGenerationWrap(t *testing.T) {
	fp := flowCache{gen: 5}
	h := flowHot{ifid: 1, hi: 0x20010db8_00000000, width: 48, flags: fpFlagWide, kind: entryError}
	fp.keyWidth(h.width)
	fp.insert(&h, &flowCold{})
	if fp.lookup(h.ifid, h.hi|7, 9) < 0 {
		t.Fatal("a freshly inserted entry misses")
	}
	// Every bump below 2^32-1 only counts; skip to the last few.
	fp.gen = math.MaxUint32
	for fp.gen != 5 {
		fp.bumpLocked()
	}
	fp.keyWidth(h.width) // the bumps forgot the width
	if j := fp.lookup(h.ifid, h.hi|7, 9); j >= 0 {
		t.Fatalf("an entry written 2^32 generations ago hits again at slot %d", j)
	}
	for j := range fp.tags {
		if fp.live(uint64(j)) {
			t.Fatalf("slot %d is live after the wrap", j)
		}
	}
}

// TestFlowCacheInseparableWindowEvicts fills one probe window with exact
// entries of a single /64 through one ingress. They share a slot hash,
// so no table size separates them: the fifth must evict within the
// window instead of growing the table to its cap.
func TestFlowCacheInseparableWindowEvicts(t *testing.T) {
	fp := flowCache{gen: 1}
	fp.keyWidth(64)
	for lo := uint64(1); lo <= fpProbe+1; lo++ {
		fp.insert(&flowHot{ifid: 1, hi: 0x20010db8_00000000, lo: lo, width: 64, kind: entryError}, &flowCold{})
	}
	if len(fp.hot) != fpMinSlots {
		t.Errorf("%d inserts of one /64 grew the table to %d slots, want %d", fpProbe+1, len(fp.hot), fpMinSlots)
	}
	if fp.evictions != 1 {
		t.Errorf("evictions = %d, want 1", fp.evictions)
	}
	if tails := len(fp.cold) - len(fp.free); tails != fpProbe {
		t.Errorf("%d cold tails for %d live entries", tails, fpProbe)
	}
}

// TestFlowCacheWidthOverflowNarrows: once fpWidthCap widths are live, an
// entry claiming a new width is narrowed to the nearest live width above
// it — still wide, still replayable — instead of being keyed per
// address.
func TestFlowCacheWidthOverflowNarrows(t *testing.T) {
	var fp flowCache
	live := []uint8{64, 60, 58, 56, 52, 48, 44, 40}
	if len(live) != fpWidthCap {
		t.Fatalf("test lists %d widths, fpWidthCap is %d", len(live), fpWidthCap)
	}
	for _, w := range live {
		if got, ok := fp.keyWidth(w); !ok || got != w {
			t.Fatalf("keyWidth(%d) = %d, %v with room in the table", w, got, ok)
		}
	}
	for _, tc := range []struct{ claim, want uint8 }{{54, 56}, {50, 52}, {41, 44}, {62, 64}, {56, 56}} {
		if got, ok := fp.keyWidth(tc.claim); !ok || got != tc.want {
			t.Errorf("keyWidth(%d) = %d, %v on a full table, want %d", tc.claim, got, ok, tc.want)
		}
	}
	fp = flowCache{nWidths: 1}
	fp.widths[0] = 48
	for i := 1; i < fpWidthCap; i++ {
		fp.keyWidth(uint8(30 + i))
	}
	if _, ok := fp.keyWidth(52); ok {
		t.Error("keyWidth(52) found a width with nothing live at or above 52")
	}

	// End to end: saturate an engine's width table, then probe a gap whose
	// claim (/42 here: the core's own in-block address bounds it) is not
	// live. The entry must land at a live width and serve its neighbours.
	n := buildSparseNet(t, sparseBlock, []ipv6.Prefix{ipv6.MustParsePrefix("2001:db8::/64")})
	n.eng.mu.Lock()
	n.eng.fp.nWidths = 0
	for _, w := range []uint8{64, 63, 62, 61, 59, 57, 56, 55} {
		n.eng.fp.keyWidth(w)
	}
	n.eng.mu.Unlock()
	probe := func(dst string, seq uint16) {
		pkt, err := wire.BuildEchoRequest(scannerAddr, ipv6.MustParseAddr(dst), 64, 1, seq, nil)
		if err != nil {
			t.Fatal(err)
		}
		n.eng.Inject(n.scanner.Iface(), pkt)
	}
	probe("2001:db8:80:1::1", 1)
	before := n.eng.Counters()
	probe("2001:db8:80:1::2", 2)   // same /64
	probe("2001:db8:80:2::1", 3)   // same /55, different /64
	probe("2001:db8:80:1ff::9", 4) // last /64 of the /55
	after := n.eng.Counters()
	if got := after.FastPathHits - before.FastPathHits; got != 3 {
		t.Errorf("%d of 3 probes into the narrowed region hit (compiles %d -> %d)",
			got, before.FastPathCompiles, after.FastPathCompiles)
	}
	if got := len(n.scanner.DrainInto(nil)); got != 4 {
		t.Errorf("%d replies for 4 probes", got)
	}
}
