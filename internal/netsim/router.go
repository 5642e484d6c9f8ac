package netsim

import (
	"slices"

	"repro/internal/ipv6"
	"repro/internal/lpm"
	"repro/internal/wire"
)

// isICMPError reports whether pkt is an ICMPv6 error message (type <
// 128); RFC 4443 section 2.4(e) forbids generating errors in response to
// them, which is what prevents error storms in loop scenarios.
func isICMPError(pkt []byte) bool {
	if len(pkt) < wire.HeaderLen+1 {
		return false
	}
	return pkt[6] == wire.ProtoICMPv6 && pkt[wire.HeaderLen] < 128
}

// icmpError builds an ICMPv6 error packet from the given source address
// in response to the invoking packet, or nil if policy forbids one. The
// error is built into a buffer borrowed from the engine pool of the
// interface it arrived on (node handlers run with the engine lock held);
// the buffer re-enters the pool through the normal delivery lifecycle.
func icmpError(in *Iface, src ipv6.Addr, invoking []byte, typ, code uint8) []byte {
	if isICMPError(invoking) {
		return nil
	}
	hdr, _, err := wire.ParseIPv6(invoking)
	if err != nil {
		return nil
	}
	scratch := in.buf(wire.ErrorLen(invoking))
	var out []byte
	switch typ {
	case wire.ICMPDestUnreach:
		out, err = wire.AppendDestUnreach(scratch, src, hdr.Src, wire.MaxHopLimit, code, invoking)
	case wire.ICMPTimeExceeded:
		out, err = wire.AppendTimeExceeded(scratch, src, hdr.Src, wire.MaxHopLimit, invoking)
	default:
		return nil
	}
	if err != nil {
		return nil
	}
	return out
}

// ErrorPolicy controls a node's ICMPv6 error generation, modelling the
// ISP filtering the paper's Section IV-C discusses as a discovery
// limitation.
type ErrorPolicy struct {
	// Suppress drops all locally generated ICMPv6 errors (an ISP that
	// filters outbound unreachables).
	Suppress bool
}

// RouteKind discriminates routing-table entries.
type RouteKind int

// Route entry kinds.
const (
	RouteForward RouteKind = iota + 1 // send out Iface
	RouteReject                       // respond destination unreachable (no route)
)

// Route is one entry in a Router's table.
type Route struct {
	Kind RouteKind
	Out  *Iface // for RouteForward
}

// Router is a generic LPM-table router: the model for Internet core and
// transit routers. It answers echo requests addressed to its interfaces
// and generates RFC 4443 errors.
type Router struct {
	attachments
	forwarder
	name  string
	table *lpm.Table[Route]
	addrs []ipv6.Addr // interface addresses; linear scan beats a map at router arity

	// CountForwarded tallies transit packets, used by the loop-attack
	// experiments to measure amplification.
	CountForwarded uint64
}

var _ Node = (*Router)(nil)

// NewRouter creates a router with an empty routing table.
func NewRouter(name string, policy ErrorPolicy) *Router {
	r := &Router{name: name, table: lpm.New[Route]()}
	r.forwarder = forwarder{self: r, fwd: &r.CountForwarded, suppress: policy.Suppress}
	return r
}

// Name implements Node.
func (r *Router) Name() string { return r.name }

// AddIface registers (and returns) a new interface with the given
// address. Connect it via Engine.Connect.
func (r *Router) AddIface(addr ipv6.Addr, name string) *Iface {
	ifc := NewIface(r, addr, name)
	r.addrs = append(r.addrs, addr)
	r.bumpFlows()
	return ifc
}

// AddRoute installs a forwarding route.
func (r *Router) AddRoute(p ipv6.Prefix, out *Iface) {
	r.table.Insert(p, Route{Kind: RouteForward, Out: out})
	r.bumpFlows()
}

// AddRejectRoute installs an unreachable route.
func (r *Router) AddRejectRoute(p ipv6.Prefix) {
	r.table.Insert(p, Route{Kind: RouteReject})
	r.bumpFlows()
}

// attachments is embedded by nodes whose mutators invalidate compiled
// flows: the distinct engines Connect joined their interfaces into, so
// a bump costs one lock per engine however many interfaces there are.
type attachments struct{ engines []*Engine }

func (a *attachments) attach(e *Engine) {
	if !slices.Contains(a.engines, e) {
		a.engines = append(a.engines, e)
	}
}

// bumpFlows invalidates compiled flows on every engine the node is
// attached to. Node mutators call it so a routing change can never let
// a stale compiled path replay.
func (a *attachments) bumpFlows() {
	for _, e := range a.engines {
		e.InvalidateFlows()
	}
}

// isLocal reports whether dst is one of the router's interface addresses.
func (r *Router) isLocal(dst ipv6.Addr) bool {
	for _, a := range r.addrs {
		if a == dst {
			return true
		}
	}
	return false
}

// decide is the router's rule: echo for its own addresses, Time
// Exceeded from the arrival interface on expiry (uniform over everything
// but those addresses), else the routing table — forward, or no route
// for a miss or a reject route, uniform over the table's neighborhood of
// dst.
func (r *Router) decide(in *Iface, dst ipv6.Addr, expired bool, reg *region) verdict {
	if r.isLocal(dst) {
		return verdict{act: actEcho}
	}
	if expired {
		if reg != nil {
			reg.width = avoidAddrs(1, dst, r.addrs, reg)
		}
		return timeExceeded(in)
	}
	if reg != nil {
		reg.width = r.regionClaim(dst, reg)
	}
	route, ok := r.table.Lookup(dst)
	if !ok || route.Kind == RouteReject {
		return unreachable(in, wire.UnreachNoRoute)
	}
	return forwardOut(route.Out)
}

// regionClaim computes the width of the largest region around dst over
// which the routing table's decision is uniform, bounded away from the
// router's own addresses (same-/64 ones become /128 holes). 0 means
// the claim must be exact.
func (r *Router) regionClaim(dst ipv6.Addr, reg *region) uint8 {
	w := r.table.UniformWidth(dst)
	if w > 64 {
		return 0
	}
	return avoidAddrs(uint8(w), dst, r.addrs, reg)
}
