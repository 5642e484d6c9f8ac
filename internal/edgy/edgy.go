// Package edgy implements the traceroute-based IPv6 periphery discovery
// baseline the paper compares against (Rye & Beverly, "Discovering the
// IPv6 Network Periphery", PAM 2020; the paper's reference [77]): send
// hop-limited probes toward a target, walk the Time Exceeded chain, and
// take the final responder as the periphery candidate.
//
// The comparison the paper's Section III makes is about efficiency: the
// traceroute approach spends one probe per hop of every path and
// rediscovers the same transit routers constantly, whereas XMap's
// unreachable-message technique spends exactly one probe per sub-prefix.
// The BenchmarkBaselineComparison harness quantifies this on identical
// topologies.
package edgy

import (
	"fmt"

	"repro/internal/ipv6"
	"repro/internal/xmap"
)

// Hop is one row of a trace.
type Hop struct {
	Distance int // hop limit that elicited this responder
	Addr     ipv6.Addr
	// Terminal marks the end of the path: a Destination Unreachable or
	// an Echo Reply rather than a Time Exceeded.
	Terminal bool
	// Kind is the reply observed.
	Kind xmap.ResponseKind
}

// Tracer performs hop-limited path walks through a scan driver. Every
// probe carries echo id 0xed97 and the tracer's running sequence number.
type Tracer struct {
	// MaxHops bounds each trace (default 16).
	MaxHops int
	x       *xmap.EchoExchange
	seq     uint16
}

// NewTracer creates a tracer.
func NewTracer(drv xmap.PacketDriver) *Tracer {
	t := &Tracer{MaxHops: 16}
	t.x = xmap.NewEchoExchange(drv, 1, func(ipv6.Addr) uint32 { return 0xed97<<16 | uint32(t.seq) })
	return t
}

// Trace walks toward dst, one probe per hop limit, stopping at the first
// terminal response or silence. It returns the responding path and the
// number of probes spent.
func (t *Tracer) Trace(dst ipv6.Addr) ([]Hop, int, error) {
	var path []Hop
	probes := 0
	silent := 0
	for h := 1; h <= t.MaxHops; h++ {
		t.seq++
		t.x.Probe.HopLimit = uint8(h)
		r, ok, err := t.x.Ping(dst)
		if err != nil {
			return nil, probes, fmt.Errorf("edgy: probe at hop limit %d: %w", h, err)
		}
		probes++
		if !ok {
			// One unresponsive hop is tolerated (real traces see
			// rate-limited routers); two consecutive end the walk.
			silent++
			if silent >= 2 {
				break
			}
			continue
		}
		silent = 0
		hop := Hop{Distance: h, Addr: r.Responder, Kind: r.Kind, Terminal: r.Kind != xmap.KindTimeExceeded}
		path = append(path, hop)
		if hop.Terminal {
			break
		}
	}
	return path, probes, nil
}

// Census aggregates a discovery campaign.
type Census struct {
	// Targets traced and probes spent.
	Targets, Probes int
	// LastHops maps every distinct final responder to how often it
	// terminated a trace.
	LastHops map[ipv6.Addr]int
	// Interfaces is every distinct responder seen at any depth (the
	// topology-mapping byproduct of tracerouting).
	Interfaces map[ipv6.Addr]int
}

// Discover traces every target and aggregates the last hops — the
// baseline's periphery-discovery mode.
func (t *Tracer) Discover(targets []ipv6.Addr) (*Census, error) {
	c := &Census{
		LastHops:   make(map[ipv6.Addr]int),
		Interfaces: make(map[ipv6.Addr]int),
	}
	for _, dst := range targets {
		path, probes, err := t.Trace(dst)
		if err != nil {
			return nil, err
		}
		c.Targets++
		c.Probes += probes
		for _, hop := range path {
			c.Interfaces[hop.Addr]++
		}
		if len(path) > 0 {
			c.LastHops[path[len(path)-1].Addr]++
		}
	}
	return c, nil
}

// ProbesPerLastHop is the efficiency metric the comparison reports.
func (c *Census) ProbesPerLastHop() float64 {
	if len(c.LastHops) == 0 {
		return 0
	}
	return float64(c.Probes) / float64(len(c.LastHops))
}
