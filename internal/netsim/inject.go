package netsim

import (
	"encoding/binary"

	"repro/internal/ipv6"
	"repro/internal/wire"
)

// Fast-path injection, the one place the flow cache is consulted:
// Inject and InjectBatch offer every send burst to injectFastLocked,
// which resolves a whole run of probes against the cache before
// replaying anything. A lookup is one cache-miss chain (tag line, hot
// header, cold tail, back to back); the resolve pass issues those loads
// for up to injRun probes in a tight loop, so the misses overlap in the
// memory system instead of queuing behind each other. The one replay,
// fpReplayRun, then charges link stats, transit counters and engine
// totals arithmetically — once per distinct flow entry in the run,
// multiplied by how many probes resolved to it — and builds replies in
// strict probe order, with totals, ordering and edge delivery order
// identical to interpreting the k probes one by one. Scanners randomize
// probe order, so aggregation keys on the distinct entries of the whole
// run rather than on consecutive-probe groups; a run that touches e
// entries pays the pointer-chasing stat walk e times, not k.
//
// Only the plain case qualifies: a fully compiled round trip from a
// connected interface, no fault layer, no tap. An unseen flow is
// compiled at the head of a run; anything else — negative entries,
// ICMP-error probes, guard mismatches — ends the run and that one
// packet is interpreted.

// injRun caps how many probes one batched pass resolves, sizing the
// engine-inline scratch below (no per-batch allocation).
const injRun = 256

// InjectRunLen is injRun for callers outside the package: the batch
// size above which one InjectBatch call spans multiple locked resolve
// runs. The differential oracles use it as a boundary batch size.
const InjectRunLen = injRun

// injScratch is the engine's batched-injection scratch state. slot maps
// each resolved probe to an index into the distinct-entry arrays;
// dslot/dcount/dbytes describe the run's distinct flow entries and
// dm/drbytes accumulate their reply counts and bytes as the gate
// decides, in probe order, which probes draw errors.
type injScratch struct {
	slot    [injRun]int32  // per-probe distinct-entry index
	dslot   [injRun]int32  // distinct index -> flow-table slot
	dcount  [injRun]uint32 // probes resolved to this entry
	dbytes  [injRun]uint64 // their summed lengths
	dm      [injRun]uint32 // replies the gate granted
	drbytes [injRun]uint64 // their summed lengths
	out     [][]byte       // delivery batch accumulated per edge
	sink    uint64         // defeats dead-code elimination of warm loads
}

// injectFastLocked replays a prefix of pkts through the flow cache as
// one run and returns how many packets it consumed, each one event; 0
// means the caller must interpret pkts[0]. On an engine with a fault
// layer or a tap the cache is not consulted at all; otherwise every
// packet offered is counted as exactly one hit or one miss.
func (e *Engine) injectFastLocked(from *Iface, pkts [][]byte) int {
	if !e.fp.enabled || e.fault != nil || e.tap != nil {
		return 0
	}
	fp := &e.fp
	l := from.link
	if l == nil {
		fp.misses++
		return 0
	}
	to := l.ends[1-from.end]
	ifid := to.fpID

	n := len(pkts)
	if n > injRun {
		n = injRun
	}

	// Resolve pass: per-probe flow lookup plus every guard the replay
	// relies on, stopping at the first probe the run cannot replay
	// exactly. Each resolved probe is folded into the run's
	// distinct-entry table as it lands.
	k, d := 0, 0
	cold := false
	var sumAll uint64
resolve:
	for k < n {
		pkt := pkts[k]
		// Same validation as wire.ForwardDst: anything else is
		// interpreted (nodes drop it without touching the cache).
		if len(pkt) < wire.HeaderLen || pkt[0]>>4 != 6 ||
			len(pkt)-wire.HeaderLen < int(binary.BigEndian.Uint16(pkt[4:6])) {
			break
		}
		hi := binary.BigEndian.Uint64(pkt[24:32])
		lo := binary.BigEndian.Uint64(pkt[32:40])
		j := fp.lookup(ifid, hi, lo)
		if j < 0 {
			// A compile may grow or evict the table the run's dslot
			// indices point into, and may move the dense tails: only
			// the head of a run compiles, so no tail pointer taken
			// below outlives an insert.
			if k > 0 {
				break
			}
			e.compileFlow(to, pkt)
			cold = true
			if j = fp.lookup(ifid, hi, lo); j < 0 {
				break
			}
		}
		h := &fp.hot[j]
		switch h.kind {
		case entryEdge:
			// The probe must survive nf hop-limit decrements.
			if int(pkt[7]) < int(h.nf)+1 {
				break resolve
			}
		case entryError:
			// nf decrements, the terminal's pre-error decrement, and
			// the gate's no-errors-about-errors refund must not differ
			// from the compiled decision.
			if int(pkt[7]) < int(h.nf)+2 || isICMPError(pkt) {
				break resolve
			}
			c := &fp.cold[h.cold]
			if binary.BigEndian.Uint64(pkt[8:16]) != c.replySrc.Uint128().Hi ||
				binary.BigEndian.Uint64(pkt[16:24]) != c.replySrc.Uint128().Lo {
				break resolve
			}
		case entryLoop:
			if pkt[7] != h.hlIn || isICMPError(pkt) {
				break resolve
			}
			c := &fp.cold[h.cold]
			if binary.BigEndian.Uint64(pkt[8:16]) != c.replySrc.Uint128().Hi ||
				binary.BigEndian.Uint64(pkt[16:24]) != c.replySrc.Uint128().Lo {
				break resolve
			}
		default: // entryNeg: interpreted
			break resolve
		}
		di := -1
		if k > 0 && e.inj.dslot[e.inj.slot[k-1]] == int32(j) {
			di = int(e.inj.slot[k-1])
		} else {
			for t := 0; t < d; t++ {
				if e.inj.dslot[t] == int32(j) {
					di = t
					break
				}
			}
		}
		if di < 0 {
			di = d
			d++
			e.inj.dslot[di] = int32(j)
			e.inj.dcount[di] = 0
			e.inj.dbytes[di] = 0
			e.inj.dm[di] = 0
			e.inj.drbytes[di] = 0
		}
		e.inj.dcount[di]++
		e.inj.dbytes[di] += uint64(len(pkt))
		sumAll += uint64(len(pkt))
		e.inj.slot[k] = int32(di)
		k++
	}
	if k == 0 {
		fp.misses++
		return 0
	}
	e.fpReplayRun(from, pkts[:k], d, sumAll)
	e.steps += uint64(k)
	fp.hits += uint64(k)
	if cold {
		// The head of the run compiled first: a miss, though replayed.
		fp.hits--
		fp.misses++
	}
	return k
}

// fpReplayRun replays one resolved run of probes, all guards
// pre-checked. Charging is arithmetic — once per distinct flow entry,
// scaled by its probe count — but sums to exactly what interpreting the
// k probes in turn would charge; the error gate is consumed in probe
// order; and deliveries reach each edge in probe order, batched into as
// few handoffs as the run's edge sequence allows.
func (e *Engine) fpReplayRun(from *Iface, pkts [][]byte, d int, sumAll uint64) {
	fp := &e.fp
	k := len(pkts)

	// Warm the distinct entries' replay state — the error gate, both ends
	// of the cold hop lists, and the leaf hops' link-stat blocks (the
	// spine links repeat across entries, but each entry's last hop is its
	// own device link) — in one dependency-free loop, so those lines miss
	// concurrently here instead of serializing inside the charging loops
	// below.
	var warm uint64
	for di := 0; di < d; di++ {
		j := int(e.inj.dslot[di])
		h := &fp.hot[j]
		c := &fp.cold[h.cold]
		if g := h.gate; g != nil {
			warm += uint64(g.generated)
		}
		if h.nf > 0 {
			warm += c.fwd[0].st.Packets + c.fwd[h.nf-1].st.Packets
		}
		if h.nr > 0 {
			warm += c.rev[0].st.Packets + c.rev[h.nr-1].st.Packets
		}
	}
	e.inj.sink += warm

	// The injection crossings: the batch enters from's link exactly as
	// k enqueued transmissions would.
	st := &from.link.stats[from.end]
	st.Packets += uint64(k)
	st.Bytes += sumAll
	crossings := uint64(k)
	bytes := sumAll

	// Forward-path charging, once per distinct entry.
	for di := 0; di < d; di++ {
		j := int(e.inj.dslot[di])
		h := &fp.hot[j]
		c := &fp.cold[h.cold]
		cnt := uint64(e.inj.dcount[di])
		cb := e.inj.dbytes[di]
		switch h.kind {
		case entryEdge, entryError:
			for i := uint8(0); i < h.nf; i++ {
				hop := &c.fwd[i]
				if hop.fwd != nil {
					*hop.fwd += cnt
				}
				lst := hop.st
				lst.Packets += cnt
				lst.Bytes += cb
			}
			crossings += cnt * uint64(h.nf)
			bytes += cb * uint64(h.nf)
		case entryLoop:
			cross := int(h.loopCross)
			p, ll := int(h.loopStart), int(h.loopLen)
			for i := 0; i < int(h.nf); i++ {
				hc := loopHopCount(i, p, ll, cross)
				if hc == 0 {
					continue
				}
				hop := &c.fwd[i]
				if hop.fwd != nil {
					*hop.fwd += hc * cnt
				}
				lst := hop.st
				lst.Packets += hc * cnt
				lst.Bytes += hc * cb
			}
			crossings += cnt * uint64(cross)
			bytes += cb * uint64(cross)
		}
	}

	// Delivery pass, strict probe order. Probes destined at an edge are
	// copied in (the edge retains its buffers); terminal-error probes
	// draw the gate in order — allowN per same-entry stretch — and
	// build replies straight from the caller's packets, no intermediate
	// copy. Deliveries accumulate into one slice flushed each time the
	// target edge changes (once per run when a single vantage scans).
	out := e.inj.out[:0]
	var cur *Edge
	for i := 0; i < k; {
		di := int(e.inj.slot[i])
		g := i + 1
		for g < k && int(e.inj.slot[g]) == di {
			g++
		}
		j := int(e.inj.dslot[di])
		h := &fp.hot[j]
		c := &fp.cold[h.cold]
		if h.kind == entryEdge {
			ed := c.edge.node.(*Edge)
			if cur != ed && len(out) > 0 {
				cur.handleBatch(out)
				out = out[:0]
			}
			cur = ed
			for _, pkt := range pkts[i:g] {
				cp := e.getBufLocked(len(pkt))
				copy(cp, pkt)
				cp[7] -= h.nf
				out = append(out, cp)
			}
			if e.ftr != nil {
				e.traceRunStretch(from, h, c, pkts[i:g], 0)
			}
			i = g
			continue
		}
		m := h.gate.allowN(g - i)
		if e.ftr != nil {
			// Synthesize the stretch's crossings — ungranted probes still
			// crossed every forward link before dying at the gate.
			e.traceRunStretch(from, h, c, pkts[i:g], m)
		}
		if m > 0 {
			ed := c.edge.node.(*Edge)
			if cur != ed && len(out) > 0 {
				cur.handleBatch(out)
				out = out[:0]
			}
			cur = ed
			var rb uint64
			for _, pkt := range pkts[i : i+m] {
				var hl uint8
				if h.kind == entryError {
					hl = pkt[7] - (h.nf + 1)
				} else {
					hl = h.hlIn - uint8(h.loopCross)
				}
				r := e.fpBuildErrorFrom(h, c, pkt, hl)
				rb += uint64(len(r))
				out = append(out, r)
			}
			e.inj.dm[di] += uint32(m)
			e.inj.drbytes[di] += rb
		}
		i = g
	}
	if len(out) > 0 {
		cur.handleBatch(out)
	}
	e.inj.out = out[:0]

	// Reverse-path charging, once per distinct entry that drew replies.
	for di := 0; di < d; di++ {
		m := uint64(e.inj.dm[di])
		if m == 0 {
			continue
		}
		j := int(e.inj.dslot[di])
		h := &fp.hot[j]
		c := &fp.cold[h.cold]
		rb := e.inj.drbytes[di]
		for i := uint8(0); i < h.nr; i++ {
			hop := &c.rev[i]
			// rev[0] is the terminal's own emission, not a transit hop.
			if i > 0 && hop.fwd != nil {
				*hop.fwd += m
			}
			lst := hop.st
			lst.Packets += m
			lst.Bytes += rb
		}
		crossings += m * uint64(h.nr)
		bytes += rb * uint64(h.nr)
	}

	e.txPackets += crossings
	e.txBytes += bytes
	e.seq += crossings
}

// fpBuildErrorFrom builds the terminal's ICMPv6 error for an invoking
// probe without mutating it: the quote is spliced from the caller's
// packet with the hop-limit byte patched to hl (what the terminal saw),
// its checksum contribution adjusted in place, and the reply's own hop
// limit pre-decremented for the nr-1 reverse forwarding crossings. The
// first reply for a probe length goes through the wire builders on a
// patched scratch copy (byte-exact by construction) and captures its
// headers as the entry's template for the later ones.
func (e *Engine) fpBuildErrorFrom(ent *flowHot, cld *flowCold, pkt []byte, hl uint8) []byte {
	hlOut := uint8(wire.MaxHopLimit)
	if ent.nr > 1 {
		hlOut -= ent.nr - 1
	}
	const invOff = fpTmplLen
	n := len(pkt)
	if ent.hasTmpl() && int(ent.probeLen) == n {
		out := e.getBufLocked(invOff + n)
		copy(out[:invOff], cld.tmpl[:])
		copy(out[invOff:], pkt)
		out[invOff+7] = hl
		// The quoted hop limit is the low byte of an aligned 16-bit
		// word, so the patch shifts the sum by exactly its difference.
		cs := wire.FoldSum(cld.tmplSum + wire.SumWords(pkt) - uint64(pkt[7]) + uint64(hl))
		binary.BigEndian.PutUint16(out[invOff-6:invOff-4], cs)
		out[7] = hlOut
		return out
	}
	cp := e.getBufLocked(n)
	copy(cp, pkt)
	cp[7] = hl
	scratch := e.getBufLocked(wire.ErrorLen(cp))
	rdst := ipv6.AddrFromBytes(cp[8:24])
	var out []byte
	if ent.errType == wire.ICMPTimeExceeded {
		out, _ = wire.AppendTimeExceeded(scratch, cld.errSrc, rdst, wire.MaxHopLimit, cp)
	} else {
		out, _ = wire.AppendDestUnreach(scratch, cld.errSrc, rdst, wire.MaxHopLimit, ent.errCode, cp)
	}
	e.putBufLocked(cp)
	if len(out) == invOff+n {
		// Untruncated: cache the headers as the template. The constant
		// checksum region is the pseudo-header plus the ICMPv6 header,
		// of which only type and code are non-zero.
		copy(cld.tmpl[:], out[:invOff])
		ent.flags |= fpFlagTmpl
		ent.probeLen = uint16(n)
		cld.tmplSum = wire.PseudoSum(cld.errSrc, rdst, wire.ProtoICMPv6, len(out)-wire.HeaderLen) +
			uint64(ent.errType)<<8 + uint64(ent.errCode)
	}
	out[7] = hlOut
	return out
}
