package simtest

import (
	"context"
	"fmt"

	"repro/internal/ipv6"
	"repro/internal/netsim"
	"repro/internal/uint128"
	"repro/internal/xmap"
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
	f.Eng.Connect(down, h.Iface(), 0)
	if err := f.isp.Delegate(region, down); err != nil {
		return err
	}
	f.Routes = append(f.Routes, Route{Prefix: region, Label: "isp->" + h.Name()})
	f.Hostile = append(f.Hostile, PlantedRegion{Prefix: region, Mode: hp.Mode, Node: h})
	return nil
}

// hostileRun is one scan leg's comparable outcome under a hostile
// profile.
type hostileRun struct {
	Stats xmap.Stats
	Set   map[ipv6.Addr]bool
	// RegionProbes counts probes whose destination fell inside a
	// planted hostile region — the waste the defense must cut.
	RegionProbes int
	Blocked      []ipv6.Prefix
}

// hostileDrainEvery pins the oracle legs' drain cadence: the default 64
// drains the 256-cell fixture only four times, far too coarse for the
// detector's cooldown clock to act mid-scan.
const hostileDrainEvery = 16

// runHostile scans one freshly built hostile fixture.
func runHostile(seed int64, hp HostileProfile, mutate func(*xmap.Config)) (hostileRun, error) {
	out := hostileRun{Set: map[ipv6.Addr]bool{}}
	f, err := BuildHostileFixture(seed, hp)
	if err != nil {
		return out, err
	}
	rec := &recordingDriver{Driver: f.Drv}
	cfg := xmap.Config{
		Window: f.Window, Seed: scanSeed(seed), DedupExact: true,
		DrainEvery: hostileDrainEvery,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := xmap.New(cfg, rec)
	if err != nil {
		return out, err
	}
	out.Stats, err = s.Run(context.Background(), func(r xmap.Response) { out.Set[r.Responder] = true })
	if err != nil {
		return out, err
	}
	for _, dst := range rec.dsts {
		for _, pr := range f.Hostile {
			if pr.Prefix.Contains(dst) {
				out.RegionProbes++
				break
			}
		}
	}
	out.Blocked = s.BlockedPrefixes()
	return out, nil
}

// pollution counts responders outside the honest ground truth.
func pollution(set map[ipv6.Addr]bool, truth map[ipv6.Addr]bool) int {
	n := 0
	for a := range set {
		if !truth[a] {
			n++
		}
	}
	return n
}

// RunHostileOracle is the defended-vs-undefended differential oracle
// plus the alias-detector precision/recall check, for one seed and one
// hostile profile:
//
//   - the defended scan keeps full recall on the honest ground truth
//     (every CPE WAN and the ISP router) under every hostile model;
//   - against a planted adversary it wastes strictly fewer probes on
//     hostile regions and admits strictly less result pollution than
//     the undefended scan;
//   - every prefix the detector blocklists is a planted hostile region
//     (precision 1.0 — an honest prefix is never blocklisted) and every
//     planted region is caught (recall);
//   - on the honest baseline the defenses are inert: no detections, no
//     quarantines, no blocklisting, and a probe-for-probe identical
//     scan to the undefended leg;
//   - under the storm model a starved receive budget forces overload
//     shedding without costing a single true hit.
func RunHostileOracle(seed int64, hp HostileProfile) ([]string, error) {
	undefended, err := runHostile(seed, hp, nil)
	if err != nil {
		return nil, err
	}
	defended, err := runHostile(seed, hp, func(c *xmap.Config) { c.Defend = true })
	if err != nil {
		return nil, err
	}

	f, err := BuildHostileFixture(seed, hp)
	if err != nil {
		return nil, err
	}
	truth := f.Truth()

	var problems []string
	// Recall on honest devices: the defense must never cost a true hit.
	for a := range truth {
		if !defended.Set[a] {
			problems = append(problems, fmt.Sprintf("defended scan lost true responder %s", a))
		}
	}
	// Detector precision 1.0: every blocklisted prefix is planted truth.
	for _, b := range defended.Blocked {
		planted := false
		for _, pr := range f.Hostile {
			if pr.Prefix == b {
				planted = true
				break
			}
		}
		if !planted {
			problems = append(problems, fmt.Sprintf("detector blocklisted honest prefix %s", b))
		}
	}
	if len(undefended.Blocked) != 0 || undefended.Stats.AliasDetected != 0 {
		problems = append(problems, "undefended leg ran the alias detector")
	}

	if hp.Mode == 0 {
		// Honest baseline: defenses must be inert and invisible.
		d := defended.Stats
		if d.AliasDetected != 0 || d.AliasBlocked != 0 || d.Quarantined != 0 || d.Shed != 0 {
			problems = append(problems, fmt.Sprintf(
				"honest scan tripped defenses: detected=%d blocked=%d quarantined=%d shed=%d",
				d.AliasDetected, d.AliasBlocked, d.Quarantined, d.Shed))
		}
		if d.Sent != undefended.Stats.Sent {
			problems = append(problems, fmt.Sprintf(
				"honest defended scan sent %d probes, undefended %d", d.Sent, undefended.Stats.Sent))
		}
		for a := range undefended.Set {
			if !defended.Set[a] {
				problems = append(problems, fmt.Sprintf("honest defended scan missed %s", a))
			}
		}
		for a := range defended.Set {
			if !undefended.Set[a] {
				problems = append(problems, fmt.Sprintf("honest defended scan invented %s", a))
			}
		}
		return problems, nil
	}

	// Detector recall: every planted region ends up blocklisted.
	for _, pr := range f.Hostile {
		caught := false
		for _, b := range defended.Blocked {
			if b == pr.Prefix {
				caught = true
				break
			}
		}
		if !caught {
			problems = append(problems, fmt.Sprintf(
				"planted %s region %s never blocklisted (detected %d, blocked %d)",
				pr.Mode, pr.Prefix, defended.Stats.AliasDetected, defended.Stats.AliasBlocked))
		}
	}
	// Probe savings: strictly fewer probes land in hostile regions.
	if defended.RegionProbes >= undefended.RegionProbes {
		problems = append(problems, fmt.Sprintf(
			"defended scan spent %d probes on hostile regions, undefended %d — no savings",
			defended.RegionProbes, undefended.RegionProbes))
	}
	// Pollution: the undefended scan is poisoned (that is the attack);
	// the defended scan admits strictly less of it.
	undefPoll := pollution(undefended.Set, truth)
	defPoll := pollution(defended.Set, truth)
	if undefPoll == 0 {
		problems = append(problems, fmt.Sprintf(
			"%s adversary polluted nothing undefended — attack model inert", hp.Mode))
	}
	if defPoll >= undefPoll {
		problems = append(problems, fmt.Sprintf(
			"defended scan admitted %d phantom responders, undefended %d", defPoll, undefPoll))
	}
	switch hp.Mode {
	case netsim.HostileMalformed:
		if defended.Stats.Quarantined == 0 {
			problems = append(problems, "malformed adversary produced zero quarantined replies")
		}
		if defPoll != 0 {
			problems = append(problems, fmt.Sprintf(
				"strict validation still admitted %d malformed phantoms", defPoll))
		}
	case netsim.HostileStorm:
		// Shed leg: a starved receive budget must force shedding while
		// keeping every true hit (shedding only drops replies that could
		// not add information).
		shed, err := runHostile(seed, hp, func(c *xmap.Config) {
			c.Defend = true
			c.ShedBudget = 8
		})
		if err != nil {
			return nil, err
		}
		if shed.Stats.Shed == 0 {
			problems = append(problems, "storm with ShedBudget=8 shed nothing")
		}
		for a := range truth {
			if !shed.Set[a] {
				problems = append(problems, fmt.Sprintf("shedding lost true responder %s", a))
			}
		}
	}
	return problems, nil
}
