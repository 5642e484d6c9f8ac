package netsim

import (
	"repro/internal/ipv6"
	"repro/internal/wire"
)

// This file is the one forwarding rule per node. Router, ISPRouter, CPE
// and UE each state their behaviour once, as a decide method mapping
// (arrival interface, destination, hop limit expired) to a verdict. The
// interpreter applies verdicts packet by packet (forwarder.Handle); the
// flow cache's compiler (compileFlow, compileReply) reads the same
// verdicts, plus the region each one holds over, to record whole round
// trips. There is no second copy of any routing decision to drift.

// action is what a node does with one packet.
type action uint8

const (
	actDrop    action = iota // discard silently
	actLocal                 // deliver to the node itself: echo, or its stack
	actEcho                  // answer an echo request on the node's behalf
	actForward               // decrement the hop limit and send out an interface
	actError                 // answer with an ICMPv6 error, unless the node suppresses them
)

// verdict is one node decision. It is comparable, so tests can hold two
// decisions equal, and small enough (four fields, 16 bytes) for the
// compiler to keep in registers end to end: the interpreter makes one
// per packet. What a verdict implies but does not carry is the
// deciding node's own (its forwarder): the transit counter a forward
// charges, whether an error is suppressed, the loop cap an interp
// forward applies.
type verdict struct {
	act action
	// interp marks a decision the flow cache must not compile: a
	// forward bounded by the node's per-destination loop cap, or a
	// decision deliberately left to the interpreter.
	interp bool
	err    icmpMsg // actError: the ICMPv6 error
	// ifc is the egress of actForward, and for actError the interface
	// whose address the error carries.
	ifc *Iface
}

// icmpMsg is an ICMPv6 error's type and code.
type icmpMsg struct{ typ, code uint8 }

// compiles reports whether the flow cache may record v: a stateless
// forward or error.
func (v verdict) compiles() bool {
	return !v.interp && (v.act == actForward || v.act == actError)
}

func forwardOut(out *Iface) verdict {
	return verdict{act: actForward, ifc: out}
}

func unreachable(src *Iface, code uint8) verdict {
	return verdict{act: actError, err: icmpMsg{wire.ICMPDestUnreach, code}, ifc: src}
}

func timeExceeded(src *Iface) verdict {
	return verdict{act: actError, err: icmpMsg{wire.ICMPTimeExceeded, wire.TimeExceedHopLimit}, ifc: src}
}

// region is the destination space a verdict holds over: every address
// sharing dst's first width bits (1..64; 0 means dst alone), minus the
// excluded addresses, the holes and — for an ISP block's gap flow —
// every /64 the gap index holds. A router whose delegations are /60s
// claims width 60, and one flow entry serves the scanner's probes into
// all sixteen /64s of the cell.
type region struct {
	width uint8
	nExcl uint8
	nHole uint8
	// gaps, when non-nil, holds further holes (an ISP block's gap flow).
	gaps *gapIndex
	// excl lists addresses inside the region the verdict does NOT cover
	// (the node's own addresses, operated hosts): lookups to them miss
	// into the interpreter.
	excl [fpExclCap]ipv6.Addr
	// holes lists sub-prefixes the verdict does not cover (an operated
	// subnet inside a delegated prefix): lookups to them miss and
	// compile their own narrower entry.
	holes [fpHoleCap]ipv6.Prefix
}

// addExcl appends an excluded address; false on overflow.
func (r *region) addExcl(a ipv6.Addr) bool {
	if int(r.nExcl) == fpExclCap {
		return false
	}
	r.excl[r.nExcl] = a
	r.nExcl++
	return true
}

// addHole appends a hole; false on overflow.
func (r *region) addHole(p ipv6.Prefix) bool {
	if int(r.nHole) == fpHoleCap {
		return false
	}
	r.holes[r.nHole] = p
	r.nHole++
	return true
}

// decider is a node whose behaviour is one decide function. decide
// fills reg with the region its verdict holds over when reg is non-nil;
// the interpreter passes nil, so no region math runs per packet. fw
// reaches the node's forwarder (promoted from the embedded field).
type decider interface {
	decide(in *Iface, dst ipv6.Addr, expired bool, reg *region) verdict
	fw() *forwarder
}

// forwarder is embedded by every decider: the node state its verdicts
// imply, and the one Handle that applies any decider's verdicts.
type forwarder struct {
	self  decider
	stack LocalStack // actLocal's TCP and UDP handler; nil answers echo only
	fwd   *uint64    // the node's transit counter (CountForwarded); nil on a UE
	loops loopCap    // a CPE's per-destination loop bound; zero elsewhere
	// suppress drops every error the node would generate
	// (ErrorPolicy.Suppress); the flow cache compiles such a terminal
	// with no reply path.
	suppress bool
	sc       emitScratch
}

func (f *forwarder) fw() *forwarder { return f }

// Handle implements Node: RFC 8200 forwarding with RFC 4443 errors,
// whatever the node. Local traffic is delivered before the hop limit is
// looked at; everything else has its hop limit decremented (or draws
// the expiry verdict) and then follows the node's route.
func (f *forwarder) Handle(in *Iface, pkt []byte) []Emission {
	dst, ok := wire.ForwardDst(pkt)
	if !ok {
		return nil
	}
	expired := pkt[7] <= 1
	v := f.self.decide(in, dst, expired, nil)
	switch v.act {
	case actLocal:
		return f.sc.emit(in, f.local(in, dst, pkt))
	case actEcho:
		return f.sc.emit(in, f.sc.echoReply(in, dst, pkt))
	case actDrop:
		return nil
	}
	if !expired {
		pkt[7]--
	}
	if v.act == actForward {
		if v.interp && !f.loops.admit(dst) { // an interp forward is a capped loop
			return nil
		}
		*f.fwd++
		return f.sc.emit(v.ifc, pkt)
	}
	if f.suppress {
		return nil
	}
	return f.sc.emit(in, icmpError(in, v.ifc.addr, pkt, v.err.typ, v.err.code))
}

// LocalStack is the transport and application stack of a periphery
// device: the TCP and UDP half of its local delivery (the node answers
// echo itself). The services package provides the implementation.
type LocalStack interface {
	// HandleLocal answers one TCP or UDP packet addressed to the device,
	// parsed into s (pkt is its raw form, for a quote). It builds at
	// most one reply from s.IP.Dst with the wire.Append* builders into
	// buf — an empty engine buffer — and returns it, or returns nil to
	// stay silent. A reply too long for buf's capacity is built in a
	// buffer of its own.
	HandleLocal(buf []byte, s *wire.Summary, pkt []byte) []byte
}

// localReplyCap is the capacity of the engine buffer a stack answers
// into: the IPv6 minimum link MTU, which every reply the simulated
// services send fits.
const localReplyCap = 1280

// local is the one local delivery of every node: a packet addressed to
// the node itself. TCP and UDP go to the stack, parsed once into the
// node's Summary, with an engine buffer to answer into; everything else
// (and everything, on a node without a stack) gets the echo reply or
// nothing.
func (f *forwarder) local(in *Iface, self ipv6.Addr, pkt []byte) []byte {
	if f.stack == nil || (pkt[6] != wire.ProtoTCP && pkt[6] != wire.ProtoUDP) {
		return f.sc.echoReply(in, self, pkt)
	}
	s := &f.sc.sum
	if s.Parse(pkt) != nil {
		return nil
	}
	buf := in.buf(localReplyCap)[:0]
	reply := f.stack.HandleLocal(buf, s, pkt)
	if len(reply) == 0 {
		in.unbuf(buf) // silent: the borrowed buffer goes straight back
		return nil
	}
	if len(reply) > cap(buf) {
		in.unbuf(buf) // answered in a buffer of the stack's own
	}
	return reply
}
