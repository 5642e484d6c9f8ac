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
// connected interface, no fault layer, no tap, a flow the FlowTracer
// does not sample. An unseen flow is compiled at the head of a run;
// anything else — negative entries, ICMP-error probes, guard
// mismatches, traced flows — ends the run and that one packet is
// interpreted. A probe to a node's own address (entryLocal) replays
// alone: it ends the run it would join, and at the head of a run it is
// the whole run, replayed by fpReplayLocal, so the batched arithmetic of
// fpReplayRun never meets an answer computed by a node's stack.

// injRun caps how many probes one batched pass resolves, sizing the
// engine-inline scratch below (no per-batch allocation).
const injRun = 256

// InjectRunLen is injRun for callers outside the package: the batch
// size above which one InjectBatch call spans multiple locked resolve
// runs. The differential oracles use it as a boundary batch size.
const InjectRunLen = injRun

// injScratch is the engine's batched-injection scratch state. slot maps
// each resolved probe to an index into the distinct-record arrays;
// dslot/dhl/dcount/dbytes describe the run's distinct (flow entry, hop
// limit) pairs — a loop entry's crossings follow from the hop limit —
// and drbytes accumulates the bytes of their replies as the delivery
// pass builds them (every probe of an entry with a reply path draws
// one).
type injScratch struct {
	slot    [injRun]int32  // per-probe distinct-record index
	dslot   [injRun]int32  // distinct index -> flow-table slot
	dcount  [injRun]uint16 // probes resolved to this record (≤ injRun)
	dhl     [injRun]uint8  // their arrival hop limit
	dbytes  [injRun]uint64 // their summed lengths
	drbytes [injRun]uint64 // their replies' summed lengths
	out     [][]byte       // delivery batch accumulated per edge
	sink    uint64         // defeats dead-code elimination of warm loads
}

// injectFastLocked replays a prefix of pkts through the flow cache as
// one run and returns how many packets it consumed and the events they
// cost — one each, plus the interpreted tail of a local answer the
// compiled reply path could not carry; k == 0 means the caller must
// interpret pkts[0]. On an engine with a fault layer or a tap the cache
// is not consulted at all; otherwise every packet offered is counted as
// exactly one hit or one miss.
func (e *Engine) injectFastLocked(from *Iface, pkts [][]byte) (k, events int) {
	if !e.fp.enabled || e.fault != nil || e.tap != nil {
		return 0, 0
	}
	fp := &e.fp
	l := from.link
	if l == nil {
		fp.misses++
		return 0, 0
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
	// distinct-record table as it lands.
	d := 0
	cold := false
	local := -1 // the flow-table slot of a local entry heading the run
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
		// A traced flow is interpreted: transmitLocked records its
		// crossings, as it does every other packet's.
		if e.ftr != nil {
			if thi, tlo, ok := flowTraceKey(pkt); ok && e.ftr.SampleFlow(thi, tlo) {
				break
			}
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
		hl := pkt[7]
		switch h.kind {
		case entryError:
			// nf decrements and the terminal's pre-error decrement must
			// leave the hop limit unexpired, and no error is sent about
			// an error: the compiled decision holds for neither.
			if int(hl) < int(h.nf)+2 || isICMPError(pkt) || !fromSrc(pkt, &fp.cold[h.cold]) {
				break resolve
			}
		case entryLoop:
			// The probe reaches the cycle and dies on the entry's turn
			// of it, after hl-1 crossings.
			if x := int(hl) - 1 - int(h.loopStart); x < 0 || x%int(h.loopLen) != int(h.loopTurn) ||
				isICMPError(pkt) || !fromSrc(pkt, &fp.cold[h.cold]) {
				break resolve
			}
		case entryLocal:
			// A run of one: the probe survives the nf forward decrements,
			// and the reply path was compiled for its source.
			if k > 0 || int(hl) < int(h.nf)+1 || !fromSrc(pkt, &fp.cold[h.cold]) {
				break resolve
			}
			local, k = j, 1
			break resolve
		default: // entryNeg: interpreted
			break resolve
		}
		di := -1
		if k > 0 && e.inj.dslot[e.inj.slot[k-1]] == int32(j) && e.inj.dhl[e.inj.slot[k-1]] == hl {
			di = int(e.inj.slot[k-1])
		} else {
			for t := 0; t < d; t++ {
				if e.inj.dslot[t] == int32(j) && e.inj.dhl[t] == hl {
					di = t
					break
				}
			}
		}
		if di < 0 {
			di = d
			d++
			e.inj.dslot[di] = int32(j)
			e.inj.dhl[di] = hl
			e.inj.dcount[di] = 0
			e.inj.dbytes[di] = 0
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
		return 0, 0
	}
	events = k
	if local >= 0 {
		events = e.fpReplayLocal(from, pkts[0], &fp.hot[local])
	} else {
		e.fpReplayRun(from, pkts[:k], d, sumAll)
	}
	e.steps += uint64(k)
	fp.hits += uint64(k)
	if cold {
		// The head of the run compiled first: a miss, though replayed.
		fp.hits--
		fp.misses++
	}
	return k, events
}

// charge adds cnt crossings of bytes in all to each compiled hop's link
// stats and transit counter (nil on rev[0], the terminal's own
// emission).
func charge(hops []compiledHop, cnt, bytes uint64) {
	for i := range hops {
		hop := &hops[i]
		if hop.fwd != nil {
			*hop.fwd += cnt
		}
		hop.st.Packets += cnt
		hop.st.Bytes += bytes
	}
}

// fromSrc reports whether pkt comes from the source the entry's reply
// path was compiled for.
func fromSrc(pkt []byte, c *flowCold) bool {
	u := c.replySrc.Uint128()
	return binary.BigEndian.Uint64(pkt[8:16]) == u.Hi && binary.BigEndian.Uint64(pkt[16:24]) == u.Lo
}

// fpReplayLocal replays one probe of a local entry: the injection and
// forward crossings charged arithmetically, the terminal node's answer
// computed by its own local path (forwarder.answer) on a copy of the
// probe as it arrives there, and the answer carried over the compiled
// reply path to the Edge. It returns the events the probe cost: one,
// plus the interpreted events of an answer the compiled path cannot
// carry — not a well-formed packet to the compiled source, too short a
// hop limit for the nr-1 forwarding hops back, or in a traced flow —
// which leaves the terminal's ingress through transmitLocked as the
// interpreter would send it.
func (e *Engine) fpReplayLocal(from *Iface, pkt []byte, h *flowHot) int {
	c := &e.fp.cold[h.cold]
	n := uint64(len(pkt))
	st := &from.link.stats[from.end]
	st.Packets++
	st.Bytes += n
	charge(c.fwd[:h.nf], 1, n)
	cross := 1 + uint64(h.nf)
	e.txPackets += cross
	e.txBytes += cross * n
	e.seq += cross

	term := c.rev[0].out
	cp := e.getBufLocked(len(pkt))
	copy(cp, pkt)
	cp[7] -= h.nf
	r := term.node.(decider).fw().answer(term, h.act, ipv6.AddrFromBytes(cp[24:40]), cp)
	if bufBase(r) != bufBase(cp) {
		e.putBufLocked(cp) // the answer does not reuse the request's buffer
	}
	if r == nil {
		return 1
	}
	if !e.fpCarries(h, c, r) {
		e.transmitLocked(term, r)
		return 1 + e.runLocked()
	}
	if h.nr > 1 {
		r[7] -= h.nr - 1
	}
	rb := uint64(len(r))
	charge(c.rev[:h.nr], 1, rb)
	e.txPackets += uint64(h.nr)
	e.txBytes += uint64(h.nr) * rb
	e.seq += uint64(h.nr)
	c.edge.node.Handle(c.edge, r)
	return 1
}

// fpCarries reports whether a local entry's compiled reply path carries
// the terminal's answer r exactly as the interpreter would: a packet
// every reverse hop forwards (the forwarder's validity check), to the
// compiled source, with a hop limit that outlives the nr-1 forwarding
// decrements, in a flow no tracer samples.
func (e *Engine) fpCarries(h *flowHot, c *flowCold, r []byte) bool {
	if dst, ok := wire.ForwardDst(r); !ok || dst != c.replySrc || int(r[7]) < int(h.nr) {
		return false
	}
	if e.ftr != nil {
		if hi, lo, ok := flowTraceKey(r); ok && e.ftr.SampleFlow(hi, lo) {
			return false
		}
	}
	return true
}

// fpReplayRun replays one resolved run of probes, all guards
// pre-checked. Charging is arithmetic — once per distinct record,
// scaled by its probe count — but sums to exactly what interpreting the
// k probes in turn would charge; and deliveries reach each edge in
// probe order, batched into as few handoffs as the run's edge sequence
// allows. Each probe's fate is its entry's: a reply when the entry has
// a reply path, or nothing past the terminal when it has none (nr == 0,
// a suppressing node).
func (e *Engine) fpReplayRun(from *Iface, pkts [][]byte, d int, sumAll uint64) {
	fp := &e.fp
	k := len(pkts)

	// Warm the distinct entries' replay state — both ends of the cold
	// hop lists, and the leaf hops' link-stat blocks (the spine links
	// repeat across entries, but each entry's last hop is its own device
	// link) — in one dependency-free loop, so those lines miss
	// concurrently here instead of serializing inside the charging loops
	// below.
	var warm uint64
	for di := 0; di < d; di++ {
		j := int(e.inj.dslot[di])
		h := &fp.hot[j]
		c := &fp.cold[h.cold]
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

	// Forward-path charging, once per distinct record.
	for di := 0; di < d; di++ {
		j := int(e.inj.dslot[di])
		h := &fp.hot[j]
		c := &fp.cold[h.cold]
		cnt := uint64(e.inj.dcount[di])
		cb := e.inj.dbytes[di]
		switch h.kind {
		case entryError:
			charge(c.fwd[:h.nf], cnt, cb)
			crossings += cnt * uint64(h.nf)
			bytes += cb * uint64(h.nf)
		case entryLoop:
			cross := int(e.inj.dhl[di]) - 1
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

	// Delivery pass, strict probe order. A probe whose entry has a reply
	// path gets its reply built straight from the caller's packet, no
	// intermediate copy. Deliveries accumulate into one slice flushed
	// each time the target edge changes (once per run when a single
	// vantage scans).
	out := e.inj.out[:0]
	var cur *Edge
	for i, pkt := range pkts {
		di := e.inj.slot[i]
		h := &fp.hot[e.inj.dslot[di]]
		if h.nr == 0 {
			continue // the terminal suppresses its error
		}
		c := &fp.cold[h.cold]
		if ed := c.edge.node.(*Edge); ed != cur {
			if len(out) > 0 {
				cur.handleBatch(out)
				out = out[:0]
			}
			cur = ed
		}
		hl := uint8(1) // a loop's terminal sees the hop limit expire
		if h.kind == entryError {
			hl = pkt[7] - (h.nf + 1)
		}
		r := e.fpBuildErrorFrom(c, pkt, hl)
		e.inj.drbytes[di] += uint64(len(r))
		out = append(out, r)
	}
	if len(out) > 0 {
		cur.handleBatch(out)
	}
	e.inj.out = out[:0]

	// Reverse-path charging, once per distinct record with a reply path:
	// every one of its probes drew a reply.
	for di := 0; di < d; di++ {
		j := int(e.inj.dslot[di])
		h := &fp.hot[j]
		if h.nr == 0 {
			continue
		}
		c := &fp.cold[h.cold]
		m := uint64(e.inj.dcount[di])
		rb := e.inj.drbytes[di]
		charge(c.rev[:h.nr], m, rb)
		crossings += m * uint64(h.nr)
		bytes += rb * uint64(h.nr)
	}

	e.txPackets += crossings
	e.txBytes += bytes
	e.seq += crossings
}

// fpBuildErrorFrom builds the terminal's ICMPv6 error for an invoking
// probe, reading the probe and the entry's tail and writing neither:
// the compiled headers, then the probe cut to what the error quotes
// (wire.ErrorLen) with its hop-limit byte patched to hl (what the
// terminal saw), then the payload length and the checksum, finished
// from the template's partial sum.
func (e *Engine) fpBuildErrorFrom(cld *flowCold, pkt []byte, hl uint8) []byte {
	out := e.getBufLocked(wire.ErrorLen(pkt))
	q := pkt[:len(out)-fpTmplLen]
	copy(out, cld.tmpl[:])
	copy(out[fpTmplLen:], q)
	out[fpTmplLen+7] = hl
	plen := len(out) - wire.HeaderLen
	binary.BigEndian.PutUint16(out[4:6], uint16(plen))
	// The quoted hop limit is the low byte of an aligned 16-bit word, so
	// the patch shifts the probe's sum by exactly its difference.
	cs := wire.FoldSum(cld.tmplSum + uint64(plen) + wire.SumWords(q) - uint64(pkt[7]) + uint64(hl))
	binary.BigEndian.PutUint16(out[wire.HeaderLen+2:wire.HeaderLen+4], cs)
	return out
}
