package netsim

import (
	"repro/internal/ipv6"
	"repro/internal/wire"
)

// emitScratch is embedded in node types so Handle can return its
// (almost always single-element) Emission slice without allocating.
// Reuse is safe because the engine consumes the returned slice before
// the node's next Handle call, and every emitting node belongs to
// exactly one engine — the Edge, which attaches to several shards of an
// EngineGroup, never emits. The embedded Summary is the node's one
// decoder of packets addressed to it, reused for the same reason (a
// stack Summary escapes: its layer-4 pointers alias its own storage).
type emitScratch struct {
	ems []Emission
	sum wire.Summary
}

// emit returns the reused slice holding a single emission, or nil when
// pkt is nil (a handler that built no reply).
func (s *emitScratch) emit(out *Iface, pkt []byte) []Emission {
	if pkt == nil {
		return nil
	}
	s.ems = append(s.ems[:0], Emission{Out: out, Pkt: pkt})
	return s.ems
}

// emitAll returns the reused slice sending every packet out the same
// interface.
func (s *emitScratch) emitAll(out *Iface, pkts [][]byte) []Emission {
	s.ems = s.ems[:0]
	for _, p := range pkts {
		s.ems = append(s.ems, Emission{Out: out, Pkt: p})
	}
	return s.ems
}

// isEchoRequest reports from two header bytes and the length whether
// pkt can be an ICMPv6 Echo Request. ParseIPv6 walks no extension
// headers, so only a packet whose next header is ICMPv6 and whose first
// payload byte is Echo Request can parse to one.
func isEchoRequest(pkt []byte) bool {
	return len(pkt) >= wire.HeaderLen+8 &&
		pkt[6] == wire.ProtoICMPv6 && pkt[wire.HeaderLen] == wire.ICMPEchoRequest
}

// echoReply is the one echo responder of every simulated node: for an
// ICMPv6 Echo Request it returns the Echo Reply from src, built into a
// buffer borrowed from in's engine (the reply mirrors the request, so
// the request's length is exactly the reply's); for anything else nil.
// Other traffic is refused before any parse (isEchoRequest).
func (s *emitScratch) echoReply(in *Iface, src ipv6.Addr, pkt []byte) []byte {
	if !isEchoRequest(pkt) {
		return nil
	}
	sum := &s.sum
	if sum.Parse(pkt) != nil || sum.ICMP == nil || sum.ICMP.Type != wire.ICMPEchoRequest {
		return nil
	}
	e, err := wire.ParseEcho(sum.ICMP.Body)
	if err != nil {
		return nil
	}
	reply, err := wire.AppendEchoReply(in.buf(len(pkt)), src, sum.IP.Src, 64, e.ID, e.Seq, e.Data)
	if err != nil {
		return nil
	}
	return reply
}
