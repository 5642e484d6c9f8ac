package netsim

import (
	"fmt"
	"math/bits"
	"math/rand"
	"testing"

	"repro/internal/ipv6"
	"repro/internal/uint128"
)

// regionCase is one node under the region-soundness test: the arrival
// interfaces to ask it about and its landmarks — the prefixes and
// addresses its rule treats specially, which destinations and region
// samples are drawn around so that every boundary gets hit.
type regionCase struct {
	name  string
	node  decider
	ins   []*Iface
	marks []ipv6.Prefix
}

// randIn draws an address inside p.
func randIn(rng *rand.Rand, p ipv6.Prefix) ipv6.Addr {
	u := p.Addr().Uint128()
	hi, lo := u.Hi, u.Lo
	switch b := p.Bits(); {
	case b == 0:
		hi, lo = rng.Uint64(), rng.Uint64()
	case b <= 64:
		hi |= rng.Uint64() &^ fpMask(uint8(b))
		lo = rng.Uint64()
	case b < 128:
		lo |= rng.Uint64() &^ fpMask(uint8(b-64))
	}
	return ipv6.AddrFrom128(uint128.New(hi, lo))
}

// near draws a destination around the case's landmarks (or, one time in
// eight, anywhere).
func (tc *regionCase) near(rng *rand.Rand) ipv6.Addr {
	if rng.Intn(8) == 0 {
		return randIn(rng, ipv6.Prefix{})
	}
	return randIn(rng, tc.marks[rng.Intn(len(tc.marks))])
}

// covers reports whether reg, claimed for dst, covers a: inside the
// width and outside every hole and gap-index /64.
func covers(reg *region, dst, a ipv6.Addr) bool {
	if (dst.Uint128().Hi^a.Uint128().Hi)&fpMask(reg.width) != 0 {
		return false
	}
	for _, h := range reg.holes[:reg.nHole] {
		if h.Contains(a) {
			return false
		}
	}
	return reg.gaps == nil || !reg.gaps.assigned(a.Uint128().Hi)
}

// TestFlowCacheRegionSound holds every compilable node's region claims
// to its rule: for random destinations, the verdict decide returns with
// a region must be the verdict it returns, without one, for 64 other
// addresses drawn inside that region but outside its holes. The
// interpreter and the compiler read one rule, so the region is the only
// thing left that can drift from what the interpreter does.
func TestFlowCacheRegionSound(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	var cases []regionCase
	cases = append(cases, routerCase(rng), ispCase(t, rng))
	cases = append(cases, cpeCases()...)
	cases = append(cases, ueCase())
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			wide, checked := 0, 0
			for i := 0; i < 200; i++ {
				dst := tc.near(rng)
				in := tc.ins[rng.Intn(len(tc.ins))]
				expired := i%4 == 0
				var reg region
				v := tc.node.decide(in, dst, expired, &reg)
				if got := tc.node.decide(in, dst, expired, nil); got != v {
					t.Fatalf("%s (expired %v): verdict %+v with a region, %+v without", dst, expired, v, got)
				}
				if reg.width == 0 {
					continue
				}
				if !expired {
					wide++
				}
				for k := 0; k < 64; k++ {
					// Keep dst's region bits, take the rest from a landmark
					// draw: a landmark inside the region lands as itself.
					x := tc.near(rng).Uint128()
					m := fpMask(reg.width)
					a := ipv6.AddrFrom128(uint128.New(dst.Uint128().Hi&m|x.Hi&^m, x.Lo))
					if !covers(&reg, dst, a) {
						continue
					}
					checked++
					if got := tc.node.decide(in, a, expired, nil); got != v {
						t.Fatalf("%s (expired %v) claims /%d (holes %v) for %+v, but %s draws %+v",
							dst, expired, reg.width, reg.holes[:reg.nHole], v, a, got)
					}
				}
			}
			if wide < 20 || checked < 1000 {
				t.Fatalf("only %d wide routing claims and %d covered samples: the draw missed the regions", wide, checked)
			}
		})
	}
}

// routerCase is a Router over a random LPM table: nested forward and
// reject routes from /8 to /72 around 2001:db8::/32 — few enough that
// the table still answers exact uniform widths — with its interface
// addresses inside routed space.
func routerCase(rng *rand.Rand) regionCase {
	r := NewRouter("r", ErrorPolicy{})
	tc := regionCase{name: "router", node: r, marks: []ipv6.Prefix{ipv6.MustParsePrefix("2001:db8::/32")}}
	for i := 0; i < 3; i++ {
		tc.ins = append(tc.ins, r.AddIface(randIn(rng, tc.marks[0]), fmt.Sprintf("r:%d", i)))
	}
	for i := 0; i < 14; i++ {
		p := ipv6.MustPrefix(randIn(rng, tc.marks[rng.Intn(len(tc.marks))]), 8+rng.Intn(65))
		if rng.Intn(4) == 0 {
			r.AddRejectRoute(p)
		} else {
			r.AddRoute(p, tc.ins[rng.Intn(len(tc.ins))])
		}
		tc.marks = append(tc.marks, p)
	}
	for _, in := range tc.ins {
		tc.marks = append(tc.marks, ipv6.MustPrefix(in.Addr(), 128))
	}
	return tc
}

// ispCase is an ISPRouter over mixed /56-/64 delegations in the first
// 2^16 /64s of its block, with its link addresses in the block's last
// /64 and one more router address planted inside the window.
func ispCase(t *testing.T, rng *rand.Rand) regionCase {
	n := buildSparseNet(t, sparseBlock, randomDelegs(rng, sparseBlock, 16, 24, 56, 60, 64))
	local := randIn(rng, ipv6.MustParsePrefix("2001:db8::/48"))
	n.isp.AddIface(local, "isp:lo")
	tc := regionCase{
		name: "isp", node: n.isp,
		ins:   []*Iface{n.up, n.downs[0]},
		marks: []ipv6.Prefix{sparseBlock, ipv6.MustParsePrefix("2001:db8::/48"), ipv6.MustPrefix(local, 128), ipv6.MustPrefix(local, 64)},
	}
	for _, a := range n.isp.addrList {
		tc.marks = append(tc.marks, ipv6.MustPrefix(a, 128))
	}
	for _, sp := range n.isp.gaps.spans {
		tc.marks = append(tc.marks, delegIn(sp.lo, 64-bits.Len64(sp.hi-sp.lo)))
	}
	return tc
}

// cpeCases is a CPE for every combination of VulnWAN × VulnLAN ×
// LoopCap × {no subnets, a subnet, a LAN host}, with the WAN /64 inside
// the delegated /56 (as a /56 subscriber's first /64 doubles as its WAN
// subnet) and outside it.
func cpeCases() []regionCase {
	deleg := ipv6.MustParsePrefix("2001:db8:4321:8700::/56")
	subnet := ipv6.MustParsePrefix("2001:db8:4321:8705::/64")
	lan := ipv6.MustParseAddr("2001:db8:4321:8705::1")
	host := ipv6.MustParseAddr("2001:db8:4321:8705::42")
	var out []regionCase
	for _, wanIn := range []bool{false, true} {
		wan := wanPrefix
		if wanIn {
			wan = ipv6.MustParsePrefix("2001:db8:4321:8700::/64")
		}
		wanAddr := ipv6.SLAAC(wan, 0x0211_22ff_fe33_4455)
		for _, b := range []CPEBehavior{
			{}, {VulnWAN: true}, {VulnLAN: true}, {VulnWAN: true, VulnLAN: true},
			{LoopCap: 10}, {VulnWAN: true, LoopCap: 10}, {VulnLAN: true, LoopCap: 10}, {VulnWAN: true, VulnLAN: true, LoopCap: 10},
		} {
			for _, lanSet := range []string{"none", "subnet", "host"} {
				cfg := CPEConfig{Name: "cpe", WANAddr: wanAddr, WANPrefix: wan, Delegated: deleg, Behavior: b}
				marks := []ipv6.Prefix{wan, deleg, ipv6.MustPrefix(wanAddr, 128), ipv6.MustParsePrefix("2001:db8:4000::/36")}
				if lanSet != "none" {
					cfg.Subnets, cfg.LANAddr = []ipv6.Prefix{subnet}, lan
					marks = append(marks, subnet, ipv6.MustPrefix(lan, 128))
				}
				if lanSet == "host" {
					cfg.Hosts = []ipv6.Addr{host}
					marks = append(marks, ipv6.MustPrefix(host, 128))
				}
				c := NewCPE(cfg)
				out = append(out, regionCase{
					name: fmt.Sprintf("cpe/wanInDeleg=%v/vulnWAN=%v/vulnLAN=%v/cap=%d/%s",
						wanIn, b.VulnWAN, b.VulnLAN, b.LoopCap, lanSet),
					node: c, ins: []*Iface{c.WAN()}, marks: marks,
				})
			}
		}
	}
	return out
}

// ueCase is a UE holding one /64.
func ueCase() regionCase {
	prefix := ipv6.MustParsePrefix("2001:db8:ee00:1::/64")
	addr := ipv6.SLAAC(prefix, 0x1234)
	u := NewUE("ue", addr, prefix, nil, ErrorPolicy{})
	return regionCase{
		name: "ue", node: u, ins: []*Iface{u.Iface()},
		marks: []ipv6.Prefix{prefix, ipv6.MustPrefix(addr, 128), ipv6.MustParsePrefix("2001:db8:ee00::/48")},
	}
}
