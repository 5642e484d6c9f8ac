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
// fpReplayRun, then walks the run once in probe order: it builds the
// replies and charges link stats, transit counters and engine totals
// arithmetically, once per stretch of consecutive probes resolved to
// one entry, scaled by the stretch's length, with totals, ordering and
// edge delivery order identical to interpreting the k probes one by
// one. A sweep's probes mostly resolve to one entry (a provider edge's
// gap flow), so a run is a few long stretches and pays the
// pointer-chasing stat walk a few times, not k.
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

// injScratch is the engine's batched-injection scratch state: the
// flow-table slot each resolved probe landed on, and the delivery batch
// accumulated per edge.
type injScratch struct {
	slot [injRun]int32 // per-probe flow-table slot
	out  [][]byte      // delivery batch accumulated per edge
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
	// exactly.
	cold := false
	local := -1 // the flow-table slot of a local entry heading the run
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
			// A compile may grow or evict the table the run's slot
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
		e.inj.slot[k] = int32(j)
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
		e.fpReplayRun(from, pkts[:k])
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
// pre-checked, in one pass in probe order. Consecutive probes resolved
// to the same entry with the same arrival hop limit form a stretch,
// whose injection, forward and reverse crossings are charged once,
// scaled by its length, when it ends; the charges sum to exactly what
// interpreting the k probes in turn would charge. Deliveries reach each
// edge in probe order, batched into as few handoffs as the run's edge
// sequence allows. Each probe's fate is its entry's: a reply when the
// entry has a reply path, or nothing past the terminal when it has none
// (nr == 0, a suppressing node).
func (e *Engine) fpReplayRun(from *Iface, pkts [][]byte) {
	fp := &e.fp
	var (
		sh               *flowHot // the open stretch's entry,
		shl              uint8    // its probes' arrival hop limit,
		n, bytes, rbytes uint64   // their number, bytes and replies' bytes
	)
	out := e.inj.out[:0]
	var cur *Edge
	for i, pkt := range pkts {
		h := &fp.hot[e.inj.slot[i]]
		if h != sh || pkt[7] != shl {
			if n > 0 {
				e.chargeStretch(from, sh, shl, n, bytes, rbytes)
			}
			sh, shl, n, bytes, rbytes = h, pkt[7], 0, 0, 0
		}
		n++
		bytes += uint64(len(pkt))
		if h.nr == 0 {
			continue // the terminal suppresses its error
		}
		// The reply is built straight from the caller's packet, no
		// intermediate copy, into one slice flushed each time the target
		// edge changes (once per run when a single vantage scans).
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
		rbytes += uint64(len(r))
		out = append(out, r)
	}
	e.chargeStretch(from, sh, shl, n, bytes, rbytes)
	if len(out) > 0 {
		cur.handleBatch(out)
	}
	e.inj.out = out[:0]
}

// chargeStretch charges a stretch of n probes of entry h, arriving from
// from with hop limit hl, bytes long in all, whose replies are rbytes
// long in all: their injection, forward and reverse crossings (a loop
// entry's follow from the hop limit), and the engine totals.
func (e *Engine) chargeStretch(from *Iface, h *flowHot, hl uint8, n, bytes, rbytes uint64) {
	c := &e.fp.cold[h.cold]
	st := &from.link.stats[from.end]
	st.Packets += n
	st.Bytes += bytes
	fwd := uint64(1) // the injection and forward crossings of each probe
	switch h.kind {
	case entryError:
		charge(c.fwd[:h.nf], n, bytes)
		fwd += uint64(h.nf)
	case entryLoop:
		hc := int(hl) - 1
		p, ll := int(h.loopStart), int(h.loopLen)
		for i := 0; i < int(h.nf); i++ {
			m := loopHopCount(i, p, ll, hc)
			if m == 0 {
				continue
			}
			hop := &c.fwd[i]
			if hop.fwd != nil {
				*hop.fwd += m * n
			}
			hop.st.Packets += m * n
			hop.st.Bytes += m * bytes
		}
		fwd += uint64(hc)
	}
	// Every probe of an entry with a reply path drew a reply.
	charge(c.rev[:h.nr], n, rbytes)
	cross := (fwd + uint64(h.nr)) * n
	e.txPackets += cross
	e.txBytes += fwd*bytes + uint64(h.nr)*rbytes
	e.seq += cross
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
