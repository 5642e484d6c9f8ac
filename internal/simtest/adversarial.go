package simtest

import (
	"fmt"

	"repro/internal/ipv6"
	"repro/internal/netsim"
	"repro/internal/uint128"
)

// HostileProfile parameterizes one adversarial regime over the ISP
// fixture, the hostile analog of FaultProfile: which responder model is
// planted and where. The zero Mode is the honest baseline.
type HostileProfile struct {
	Name string
	Mode netsim.HostileMode
	// Regions are /60 indices inside the fixture's /56 block claimed by
	// hostile responders. Indices 0 (the honest CPE WANs) and 12 (cell
	// 200, cpe0's LAN delegation) must stay honest.
	Regions []int
	// StormFactor is the HostileStorm reply multiplier.
	StormFactor int
}

// hostileRegionBits is the planted-region width: one /60 = 16 window
// cells, matching the scanner's default alias detect-prefix, so the
// precision oracle can demand exact prefix equality.
const hostileRegionBits = 60

// HostileProfiles is the adversarial sweep: every hostile responder
// model the issue names, plus the honest baseline proving the defenses
// are inert without an adversary.
var HostileProfiles = []HostileProfile{
	{Name: "honest"},
	{Name: "aliased", Mode: netsim.HostileAliased, Regions: []int{5, 9}},
	{Name: "spoof", Mode: netsim.HostileSpoofer, Regions: []int{5, 9}},
	{Name: "malformed", Mode: netsim.HostileMalformed, Regions: []int{5, 9}},
	{Name: "storm", Mode: netsim.HostileStorm, Regions: []int{5, 9}, StormFactor: 6},
}

// HostileProfileByName returns the named profile from HostileProfiles.
func HostileProfileByName(name string) (HostileProfile, bool) {
	for _, hp := range HostileProfiles {
		if hp.Name == name {
			return hp, true
		}
	}
	return HostileProfile{}, false
}

// BuildHostileFixture is BuildISPFixture plus the profile's planted
// adversarial regions: each /60 is delegated to a netsim.Hostile node
// exactly as the honest CPE delegations are wired, and recorded as
// ground truth in Fixture.Hostile. The honest parts of the fixture are
// byte-identical to BuildISPFixture's.
func BuildHostileFixture(seed int64, hp HostileProfile) (*ISPFixture, error) {
	f, err := BuildISPFixture(seed)
	if err != nil {
		return nil, err
	}
	if hp.Mode == 0 {
		return f, nil
	}
	for i, idx := range hp.Regions {
		region, err := f.Block.Sub(hostileRegionBits, uint128.From64(uint64(idx)))
		if err != nil {
			return nil, err
		}
		if err := f.plant(region, hp, seed, i); err != nil {
			return nil, err
		}
	}
	return f, nil
}

// plant delegates region to the fixture's i-th hostile node, playing
// hp's model, exactly as the honest CPE delegations are wired.
func (f *ISPFixture) plant(region ipv6.Prefix, hp HostileProfile, seed int64, i int) error {
	h := netsim.NewHostile(netsim.HostileConfig{
		Name:        fmt.Sprintf("hostile%d", i),
		Prefix:      region,
		Mode:        hp.Mode,
		Seed:        seed*100 + int64(i),
		StormFactor: hp.StormFactor,
	})
	first64, err := region.Sub(64, uint128.Zero)
	if err != nil {
		return err
	}
	down := f.isp.AddIface(ipv6.SLAAC(first64, 1), h.Name()+":down")
	f.Eng.Connect(down, h.Iface())
	if err := f.isp.Delegate(region, down); err != nil {
		return err
	}
	f.Routes = append(f.Routes, Route{Prefix: region, Label: "isp->" + h.Name()})
	f.Hostile = append(f.Hostile, PlantedRegion{Prefix: region, Mode: hp.Mode, Node: h})
	return nil
}
