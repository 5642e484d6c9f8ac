package netsim

import (
	"encoding/binary"

	"repro/internal/wire"
)

// Flow tracing: an optional observer of sampled per-flow link
// crossings, the netsim half of the probe-lifecycle tracer. Every
// packet belongs to a flow identified by the *probed target* address —
// a forward probe by its destination, an ICMPv6 error by the
// destination of the quoted invoking packet, an echo reply by its
// source — so one target's entire round trip stitches into a single
// hop sequence however many packets realize it.
//
// The interpreter is the one recorder: transmitLocked reports every
// crossing, right where the tap runs. A tracer, unlike a tap, does not
// keep the flow cache from being consulted for the flows it does not
// sample; a probe whose flow it samples ends the fast-path run it would
// have joined and is interpreted (injectFastLocked), so a traced flow
// takes the interpreter's decide path hop by hop. The flow-trace
// relation of simtest's oracle-fastpath rows holds the traces of a
// fast-path engine equal to a fast-path-off one.

// FlowTracer receives sampled flow crossings. Implementations decide
// sampling via SampleFlow — called per crossing on the interpreted path
// and per probe offered to the flow cache, so it must be cheap and pure
// (same key, same answer) — and record crossings via HopCrossing.
// Both run with the engine lock held and must not call back into the
// engine.
type FlowTracer interface {
	// SampleFlow reports whether the flow keyed by (hi, lo) — the two
	// halves of the probed target address — is traced.
	SampleFlow(hi, lo uint64) bool
	// HopCrossing records one link crossing of a traced flow: the
	// transmitting node and interface, the hop limit on the wire, and
	// whether the fault layer dropped the packet.
	HopCrossing(hi, lo uint64, node, iface string, hopLimit uint8, dropped bool)
}

// SetFlowTracer installs (or, with nil, removes) the flow-crossing
// observer. Unlike SetTap it leaves the flow cache in use: only the
// probes of sampled flows are interpreted, the rest stay fused.
func (e *Engine) SetFlowTracer(t FlowTracer) {
	e.mu.Lock()
	e.ftr = t
	e.mu.Unlock()
}

// flowTraceKey derives a packet's flow key: the probed target address
// as two big-endian 64-bit halves. ok=false for packets that cannot be
// attributed to a flow (non-IPv6, truncated); those are never traced.
func flowTraceKey(pkt []byte) (hi, lo uint64, ok bool) {
	if len(pkt) < wire.HeaderLen+1 || pkt[0]>>4 != 6 {
		return 0, 0, false
	}
	if pkt[6] == wire.ProtoICMPv6 {
		switch t := pkt[wire.HeaderLen]; {
		case t < 128:
			// ICMPv6 error: the flow is the quoted invoking packet's
			// destination (IPv6 header at 48, dst at +24).
			const qdst = wire.HeaderLen + 8 + 24
			if len(pkt) < qdst+16 {
				return 0, 0, false
			}
			return binary.BigEndian.Uint64(pkt[qdst : qdst+8]),
				binary.BigEndian.Uint64(pkt[qdst+8 : qdst+16]), true
		case t == wire.ICMPEchoReply:
			// Echo reply: the flow is the responding target, the source.
			return binary.BigEndian.Uint64(pkt[8:16]),
				binary.BigEndian.Uint64(pkt[16:24]), true
		}
	}
	return binary.BigEndian.Uint64(pkt[24:32]),
		binary.BigEndian.Uint64(pkt[32:40]), true
}

// traceCrossingLocked is the interpreted path's recording point, called
// from transmitLocked after the drop decision.
func (e *Engine) traceCrossingLocked(from *Iface, pkt []byte, drop bool) {
	if hi, lo, ok := flowTraceKey(pkt); ok && e.ftr.SampleFlow(hi, lo) {
		e.ftr.HopCrossing(hi, lo, from.node.Name(), from.name, pkt[7], drop)
	}
}
