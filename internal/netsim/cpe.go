package netsim

import (
	"math/bits"

	"repro/internal/ipv6"
	"repro/internal/wire"
)

// CPEBehavior captures how a CPE's routing module handles addresses it
// has no specific route for — the implementation property the paper's
// Section VI measures.
type CPEBehavior struct {
	// VulnWAN: the CPE installs only a host route for its own WAN
	// address; other (nonexistent) addresses within the WAN /64 match
	// the default route and bounce back to the ISP — a routing loop.
	VulnWAN bool
	// VulnLAN: the CPE lacks the RFC 7084 unreachable route for the
	// delegated-but-unassigned LAN prefixes; packets to a Not-used
	// Prefix match the default route and bounce back — a routing loop.
	VulnLAN bool
	// LoopCap, when positive, bounds how many times the CPE forwards
	// packets of one looping destination before dropping (the partial
	// mitigation observed on Xiaomi/OpenWrt-family devices, which
	// forward such packets only >10 times rather than (255-n)/2).
	LoopCap int
}

// CPE is a customer-premises-edge router: WAN interface toward the ISP,
// a delegated LAN prefix, one or more in-use subnets, and optionally a
// set of LAN host addresses that answer pings.
type CPE struct {
	forwarder
	name      string
	wan       *Iface
	wanPrefix ipv6.Prefix // the point-to-point /64 containing the WAN address
	delegated ipv6.Prefix // LAN prefix delegated by the ISP (may be zero-width: none)
	subnets   []ipv6.Prefix
	lanAddr   ipv6.Addr // CPE's own address inside the first subnet
	hosts     map[ipv6.Addr]bool
	behavior  CPEBehavior
	hasLAN    bool

	// CountForwarded tallies packets the CPE sent back out its WAN
	// interface in a loop; used for amplification accounting.
	CountForwarded uint64
}

var _ Node = (*CPE)(nil)

// CPEConfig assembles a CPE.
type CPEConfig struct {
	Name      string
	WANAddr   ipv6.Addr   // address on the WAN /64
	WANPrefix ipv6.Prefix // the WAN point-to-point /64
	Delegated ipv6.Prefix // LAN delegated prefix; leave zero for none
	Subnets   []ipv6.Prefix
	LANAddr   ipv6.Addr // CPE address within Subnets[0]; zero for none
	Hosts     []ipv6.Addr
	Behavior  CPEBehavior
	Stack     LocalStack // nil answers echo only
	Policy    ErrorPolicy
}

// NewCPE builds a CPE node; its WAN interface is returned by WAN().
func NewCPE(cfg CPEConfig) *CPE {
	c := &CPE{
		name:      cfg.Name,
		wanPrefix: cfg.WANPrefix,
		delegated: cfg.Delegated,
		subnets:   cfg.Subnets,
		lanAddr:   cfg.LANAddr,
		behavior:  cfg.Behavior,
		hasLAN:    cfg.Delegated.Bits() > 0,
	}
	c.forwarder = forwarder{
		self: c, stack: cfg.Stack, fwd: &c.CountForwarded,
		loops:    loopCap{limit: cfg.Behavior.LoopCap},
		suppress: cfg.Policy.Suppress,
	}
	if len(cfg.Hosts) > 0 {
		c.hosts = make(map[ipv6.Addr]bool, len(cfg.Hosts))
		for _, h := range cfg.Hosts {
			c.hosts[h] = true
		}
	}
	c.wan = NewIface(c, cfg.WANAddr, cfg.Name+":wan")
	return c
}

// Name implements Node.
func (c *CPE) Name() string { return c.name }

// WAN returns the WAN interface to connect to the ISP router.
func (c *CPE) WAN() *Iface { return c.wan }

// WANAddr returns the CPE's WAN interface address.
func (c *CPE) WANAddr() ipv6.Addr { return c.wan.addr }

// Behavior returns the CPE's routing behavior (for ground-truth checks).
func (c *CPE) Behavior() CPEBehavior { return c.behavior }

// Delegated returns the delegated LAN prefix (zero Prefix if none).
func (c *CPE) Delegated() ipv6.Prefix { return c.delegated }

// decide is the CPE's rule, the routing table of the paper's Figure 4 —
// correct or flawed depending on Behavior: its own addresses are
// delivered locally and operated LAN hosts answer pings; on expiry, Time Exceeded
// from the WAN address (how a looping probe finally exposes a flawed
// CPE; expiry precedes routing, so it holds everywhere but those
// specials); else the WAN /64, operated subnets, the Not-used Prefix and
// the default route toward the ISP, each uniform over its prefix. All
// errors carry the WAN address: RFC 4443 source selection picks the
// interface the error leaves by, which is what exposes the periphery.
func (c *CPE) decide(in *Iface, dst ipv6.Addr, expired bool, reg *region) verdict {
	if dst == c.wan.addr || (c.lanAddr != (ipv6.Addr{}) && dst == c.lanAddr) {
		return verdict{act: actLocal}
	}
	if c.hosts[dst] {
		return verdict{act: actEcho}
	}
	var v verdict
	var w uint8 // the region's width before the specials are excluded
	switch {
	case expired:
		v, w = timeExceeded(c.wan), 1
	case c.wanPrefix.Contains(dst):
		// Nonexistent address in the WAN point-to-point /64.
		if !c.behavior.VulnWAN {
			// Correct: neighbor discovery fails; address unreachable.
			v, w = unreachable(c.wan, wire.UnreachAddress), prefixWidth(c.wanPrefix)
			break
		}
		v = c.loop()
		if reg != nil && c.hasLAN && c.behavior.VulnLAN && c.delegated.Contains(dst) {
			// The WAN /64 sits inside the delegation and both flawed
			// routes bounce out the WAN identically: one region spans
			// the whole delegated prefix (minus operated subnets).
			w = c.loopRegion(dst, reg)
		} else {
			w = prefixWidth(c.wanPrefix)
		}
	case c.inSubnet(dst):
		// In an operated subnet but no such host: NDP failure.
		v = unreachable(c.wan, wire.UnreachAddress)
		if reg != nil {
			w = c.subnetRegion(dst, reg)
		}
	case c.hasLAN && c.delegated.Contains(dst):
		// Delegated-but-unassigned space: the Not-used Prefix. Correct
		// per RFC 7084 is a discard/unreachable route; flawed, it
		// matches the default route and bounces back.
		if c.behavior.VulnLAN {
			v = c.loop()
		} else {
			v = unreachable(c.wan, wire.UnreachNoRoute)
		}
		if reg != nil {
			w = c.loopRegion(dst, reg)
		}
	default:
		// Default route: egress toward the ISP.
		v = forwardOut(c.wan)
		if reg != nil {
			w = c.defaultRegion(dst, reg)
		}
	}
	if reg != nil {
		reg.width = w
		if w != 0 && !c.exclSpecials(w, dst, reg) {
			reg.width = 0
		}
		if reg.width == 0 {
			reg.nHole = 0
		}
	}
	return v
}

// loop is a flawed route's verdict: straight back out the WAN — the
// paper's routing loop. A LoopCap bounds it with per-destination state,
// which only the interpreter applies.
func (c *CPE) loop() verdict {
	return verdict{act: actForward, interp: c.loops.limit > 0, ifc: c.wan}
}

// loopCap bounds how many times a CPE forwards packets of one looping
// destination (CPEBehavior.LoopCap).
type loopCap struct {
	limit int
	count map[ipv6.Addr]int
}

// admit counts one more forward toward dst and reports whether it stays
// within the cap.
func (l *loopCap) admit(dst ipv6.Addr) bool {
	if l.count == nil || len(l.count) > 4096 { // bound state like a real embedded table
		l.count = make(map[ipv6.Addr]int)
	}
	l.count[dst]++
	return l.count[dst] <= l.limit
}

// subnetRegion claims the operated subnet holding dst, holing out the
// WAN prefix if it reaches inside (its rule outranks the subnet's).
func (c *CPE) subnetRegion(dst ipv6.Addr, reg *region) uint8 {
	for _, s := range c.subnets {
		if !s.Contains(dst) {
			continue
		}
		w := prefixWidth(s)
		if w != 0 && c.wanPrefix.Overlaps(s) {
			reg.addHole(c.wanPrefix)
		}
		return w
	}
	return 0
}

// loopRegion claims the whole delegated prefix as one region, holing
// out the operated subnets and — unless the flawed WAN route behaves
// identically — the WAN /64. Holing is conservative: a holed
// destination compiles its own narrower entry, so over-holing costs
// only reuse, never correctness. Returns 0 (exact) when the region is
// unexpressible or the holes overflow.
func (c *CPE) loopRegion(dst ipv6.Addr, reg *region) uint8 {
	w := prefixWidth(c.delegated)
	if w == 0 {
		return 0
	}
	add := func(p ipv6.Prefix) bool {
		// dst's own branch outranks the hole (decide checks the WAN
		// prefix before subnets); holing it would shadow the entry's
		// own destination.
		return p.Contains(dst) || reg.addHole(p)
	}
	for _, s := range c.subnets {
		if !add(s) {
			return 0
		}
	}
	sameBehavior := c.behavior.VulnWAN && c.behavior.VulnLAN && c.behavior.LoopCap == 0
	if !sameBehavior && c.wanPrefix.Overlaps(c.delegated) && !add(c.wanPrefix) {
		return 0
	}
	return w
}

// defaultRegion claims the largest region around dst inside the CPE's
// default-route space: it stops at the first bit where dst diverges
// from each special prefix, and carves out special prefixes narrower
// than dst's /64.
func (c *CPE) defaultRegion(dst ipv6.Addr, reg *region) uint8 {
	w := uint8(1)
	dh := dst.Uint128().Hi
	avoid := func(p ipv6.Prefix) bool {
		if p.Bits() == 0 {
			return true
		}
		cb := bits.LeadingZeros64(dh ^ p.Addr().Uint128().Hi)
		if cb >= 64 {
			// p lives inside dst's /64 (it cannot contain dst — dst is
			// in the default region): carve it out instead of
			// narrowing below /64.
			return reg.addHole(p)
		}
		if uint8(cb+1) > w {
			w = uint8(cb + 1)
		}
		return true
	}
	if !avoid(c.wanPrefix) {
		return 0
	}
	if c.hasLAN && !avoid(c.delegated) {
		return 0
	}
	for _, s := range c.subnets {
		if !avoid(s) {
			return 0
		}
	}
	return w
}

// exclSpecials holes out, as /128s, the CPE's own addresses and
// operated hosts that fall inside prefix(dst, width) — lookups to them
// miss and compile their own entry. ok=false on overflow.
func (c *CPE) exclSpecials(width uint8, dst ipv6.Addr, reg *region) bool {
	dh := dst.Uint128().Hi
	add := func(a ipv6.Addr) bool {
		// dst itself, or outside the region, needs no hole.
		return a == dst || (dh^a.Uint128().Hi)&fpMask(width) != 0 || reg.addHole(ipv6.MustPrefix(a, 128))
	}
	if !add(c.wan.addr) {
		return false
	}
	if c.lanAddr != (ipv6.Addr{}) && !add(c.lanAddr) {
		return false
	}
	for h := range c.hosts {
		if !add(h) {
			return false
		}
	}
	return true
}

// inSubnet reports whether dst falls in an operated subnet.
func (c *CPE) inSubnet(dst ipv6.Addr) bool {
	for _, s := range c.subnets {
		if s.Contains(dst) {
			return true
		}
	}
	return false
}

// UE is a user-equipment periphery (paper Figure 1b): a device holding a
// single /64 prefix on its radio interface. Nonexistent addresses inside
// the prefix draw an address-unreachable error from the UE itself.
type UE struct {
	forwarder
	name   string
	ifc    *Iface
	prefix ipv6.Prefix
}

var _ Node = (*UE)(nil)

// NewUE builds a UE holding prefix, answering at addr.
func NewUE(name string, addr ipv6.Addr, prefix ipv6.Prefix, stack LocalStack, policy ErrorPolicy) *UE {
	u := &UE{name: name, prefix: prefix}
	u.forwarder = forwarder{self: u, stack: stack, suppress: policy.Suppress}
	u.ifc = NewIface(u, addr, name+":radio")
	return u
}

// Name implements Node.
func (u *UE) Name() string { return u.name }

// Iface returns the radio interface to connect to the base station.
func (u *UE) Iface() *Iface { return u.ifc }

// Addr returns the UE's own address.
func (u *UE) Addr() ipv6.Addr { return u.ifc.addr }

// decide is the UE's rule: its own address is delivered locally, and a
// nonexistent address inside its prefix draws address-unreachable from
// the UE itself (paper Figure 1b). A UE is not a transit router: it
// drops anything else. Its hop-limit expiry is left to the interpreter.
func (u *UE) decide(in *Iface, dst ipv6.Addr, expired bool, reg *region) verdict {
	if dst == u.ifc.addr {
		return verdict{act: actLocal}
	}
	if expired {
		v := timeExceeded(u.ifc)
		v.interp = true
		return v
	}
	if !u.prefix.Contains(dst) {
		return verdict{act: actDrop}
	}
	if reg != nil {
		if reg.width = prefixWidth(u.prefix); reg.width != 0 {
			reg.addHole(ipv6.MustPrefix(u.ifc.addr, 128))
		}
	}
	return unreachable(u.ifc, wire.UnreachAddress)
}
