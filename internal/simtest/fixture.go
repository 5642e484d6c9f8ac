package simtest

import (
	"fmt"
	"math/rand"

	"repro/internal/ipv6"
	"repro/internal/netsim"
	"repro/internal/topo"
	"repro/internal/uint128"
	"repro/internal/xmap"
)

// FixtureCPEs is the number of CPEs in the miniature ISP fixture.
const FixtureCPEs = 5

// ISPFixture is a miniature ISP topology for scan scenarios: scanner
// edge, core router, one ISP router delegating /64s to FixtureCPEs CPEs
// (the first also holding a LAN delegation elsewhere in the block).
// It mirrors the xmap package's test fixture so the harness exercises
// the same semantics end to end.
type ISPFixture struct {
	Eng     *netsim.Engine
	Edge    *netsim.Edge
	Drv     *xmap.SimDriver
	Block   ipv6.Prefix
	Window  ipv6.Window
	WANs    []ipv6.Addr
	ISPAddr ipv6.Addr
	// Routes is every prefix installed anywhere in the topology, with a
	// label for the forwarding decision; the LPM differential oracle
	// replays lookups against these.
	Routes []Route
	// Hostile is the planted adversarial ground truth (BuildHostileFixture).
	Hostile []PlantedRegion

	// Group is a sharded world's engine group (nil for one engine, the
	// usual case): Eng and Drv are then its shard 0 alone, and a leg
	// reaches the whole world through grouped.
	Group *netsim.EngineGroup

	// isp is kept so adversarial builders can delegate extra regions.
	isp *netsim.ISPRouter
	// midScan, when set, is a topology mutation the fast-path oracle
	// applies once half a pass of probes has gone out, right before the
	// next probe into midScanAt: that probe meets the change first.
	midScan   func() error
	midScanAt ipv6.Prefix
}

// PlantedRegion is ground truth for one adversarial responder planted
// in a fixture: the claimed region and the model it plays.
type PlantedRegion struct {
	Prefix ipv6.Prefix
	Mode   netsim.HostileMode
	Node   *netsim.Hostile
}

// Route is one installed routing entry.
type Route struct {
	Prefix ipv6.Prefix
	Label  string
}

// Truth returns the set of addresses a scan of the fixture window may
// legitimately discover: the CPE WANs plus the ISP router (which
// answers for unassigned space).
func (f *ISPFixture) Truth() map[ipv6.Addr]bool {
	truth := map[ipv6.Addr]bool{f.ISPAddr: true}
	for _, w := range f.WANs {
		truth[w] = true
	}
	return truth
}

// BuildISPFixture constructs the fixture. It takes a seed only to share
// the world builders' signature: the dense fixture draws nothing from
// it, so every build is identical.
func BuildISPFixture(seed int64) (*ISPFixture, error) {
	cells := make([]uint64, FixtureCPEs)
	for i := range cells {
		cells[i] = uint64(i)
	}
	return buildFixture(ipv6.MustParsePrefix("2001:db8::/56"), cells, 200)
}

// Sparse-fixture shape: a 2^12-cell window holding a dozen CPEs and one
// hostile /58 (its top 64 cells), so nearly every probe lands in
// unassigned space — the regime the paper's cold sweep runs in, which
// the dense fixture (every cell within a few of a delegation) never
// reaches.
const (
	sparseBlockBits   = 52
	sparseCPEs        = 12
	sparseHostileBits = 58
)

// BuildSparseFixture constructs the sparse fixture: CPE and LAN cells
// drawn from seed below the hostile region, which answers as an aliased
// prefix.
func BuildSparseFixture(seed int64) (*ISPFixture, error) {
	block := ipv6.MustPrefix(ipv6.MustParseAddr("2001:db8::"), sparseBlockBits)
	const cells, hostileCells = 1 << (64 - sparseBlockBits), 1 << (64 - sparseHostileBits)
	perm := rand.New(rand.NewSource(seed)).Perm(cells - hostileCells)
	wans := make([]uint64, sparseCPEs)
	for i := range wans {
		wans[i] = uint64(perm[i])
	}
	f, err := buildFixture(block, wans, uint64(perm[sparseCPEs]))
	if err != nil {
		return nil, err
	}
	region, err := block.Sub(sparseHostileBits, uint128.From64(cells/hostileCells-1))
	if err != nil {
		return nil, err
	}
	return f, f.plant(region, HostileProfile{Mode: netsim.HostileAliased}, seed, 0)
}

// buildFixture wires scanner, core and ISP over block, one CPE per
// listed /64 cell; the first CPE also holds the LAN delegation lanCell.
func buildFixture(block ipv6.Prefix, cells []uint64, lanCell uint64) (*ISPFixture, error) {
	f := &ISPFixture{
		Eng:     netsim.New(),
		Block:   block,
		ISPAddr: ipv6.MustParseAddr("2001:feed::2"),
	}
	f.Edge = netsim.NewEdge("scanner", ipv6.MustParseAddr("2001:beef::100"))
	core := netsim.NewRouter("core", netsim.ErrorPolicy{})
	isp := netsim.NewISPRouter("isp", f.Block, netsim.ErrorPolicy{})
	f.isp = isp

	coreScan := core.AddIface(ipv6.MustParseAddr("2001:beef::1"), "core:scan")
	coreISP := core.AddIface(ipv6.MustParseAddr("2001:feed::1"), "core:isp")
	ispUp := isp.AddIface(f.ISPAddr, "isp:up")
	isp.SetUpstream(ispUp)
	f.Eng.Connect(f.Edge.Iface(), coreScan)
	f.Eng.Connect(coreISP, ispUp)
	scanNet := ipv6.MustParsePrefix("2001:beef::/64")
	core.AddRoute(f.Block, coreISP)
	core.AddRoute(scanNet, coreScan)
	f.Routes = append(f.Routes,
		Route{Prefix: f.Block, Label: "core->isp"},
		Route{Prefix: scanNet, Label: "core->scan"})

	for i, cell := range cells {
		lan := -1
		if i == 0 {
			lan = int(lanCell)
		}
		delegateLAN, err := f.addCPE(i, cell, lan)
		if err == nil && delegateLAN != nil {
			err = delegateLAN()
		}
		if err != nil {
			return nil, err
		}
	}

	w, err := ipv6.NewWindow(f.Block, 64)
	if err != nil {
		return nil, err
	}
	f.Window = w
	f.Drv = xmap.NewSimDriver(f.Eng, f.Edge)
	return f, nil
}

// addCPE plants CPE i behind the ISP on the /64 cell of the block. With
// lan >= 0 the CPE also holds that cell as its LAN, and the returned
// step delegates it.
func (f *ISPFixture) addCPE(i int, cell uint64, lan int) (delegateLAN func() error, err error) {
	wanPrefix, err := f.Block.Sub(64, uint128.From64(cell))
	if err != nil {
		return nil, err
	}
	wanAddr := ipv6.SLAAC(wanPrefix, 0x0211_22ff_fe00_0000|uint64(i))
	cfg := netsim.CPEConfig{Name: "cpe", WANAddr: wanAddr, WANPrefix: wanPrefix}
	if lan >= 0 {
		if cfg.Delegated, err = f.Block.Sub(64, uint128.From64(uint64(lan))); err != nil {
			return nil, err
		}
	}
	cpe := netsim.NewCPE(cfg)
	down := f.isp.AddIface(ipv6.SLAAC(wanPrefix, 1), "isp:down")
	f.Eng.Connect(down, cpe.WAN())
	if err := f.isp.Delegate(wanPrefix, down); err != nil {
		return nil, err
	}
	f.Routes = append(f.Routes, Route{Prefix: wanPrefix, Label: fmt.Sprintf("isp->cpe%d", i)})
	f.WANs = append(f.WANs, wanAddr)
	if lan < 0 {
		return nil, nil
	}
	return func() error {
		if err := f.isp.Delegate(cfg.Delegated, down); err != nil {
			return err
		}
		f.Routes = append(f.Routes, Route{Prefix: cfg.Delegated, Label: fmt.Sprintf("isp->cpe%d:lan", i)})
		return nil
	}, nil
}

// buildLateLANFixture is the sparse fixture with one more CPE on the
// block's first two unrouted /64s: the WAN delegated at once, the LAN by
// the fixture's mid-scan mutation — until then plain unassigned space
// with no router address in it, so the block's warm gap flow answers for
// it. The next probe into the LAN follows the Delegate at once: only
// the flow generation the Delegate bumps keeps the gap flow from
// answering it, since the ISP's delegation index is rebuilt only when
// the interpreter next asks it.
func buildLateLANFixture(seed int64) (*ISPFixture, error) {
	f, err := BuildSparseFixture(seed)
	if err != nil {
		return nil, err
	}
	var free []uint64
	for cell := uint64(0); len(free) < 2; cell++ {
		p, err := f.Block.Sub(64, uint128.From64(cell))
		if err != nil {
			return nil, err
		}
		routed := false
		for _, r := range f.Routes {
			routed = routed || r.Prefix != f.Block && r.Prefix.Overlaps(p)
		}
		if !routed {
			free = append(free, cell)
		}
	}
	if f.midScanAt, err = f.Block.Sub(64, uint128.From64(free[1])); err != nil {
		return nil, err
	}
	f.midScan, err = f.addCPE(len(f.WANs), free[0], int(free[1]))
	return f, err
}

// buildShardedFixture generates a one-ISP deployment on two engine
// shards over a 2^10-cell window: BSNL's spec, whose /64 delegations
// include dual-/64 CPEs with a LAN in the other shard's chunk.
func buildShardedFixture(seed int64) (*ISPFixture, error) {
	dep, err := topo.Build(topo.Config{
		Seed: seed, Scale: 0.05, WindowWidth: 10, MaxDevicesPerISP: 120, OnlyISPs: []int{2}, Shards: 2,
	})
	if err != nil {
		return nil, err
	}
	isp := dep.ISPs[0]
	return &ISPFixture{
		Eng: dep.Engine, Edge: dep.Edge, Drv: xmap.NewSimDriver(dep.Engine, dep.Edge), Group: dep.Group,
		Block: isp.Block, Window: isp.Window,
	}, nil
}

// BuildLoopDeployment generates a small single-ISP deployment (China
// Unicom's spec: delegated /60s with the WAN inside the delegation, the
// paper's highest loop rate) for the routing-loop scenario.
func BuildLoopDeployment(seed int64) (*topo.Deployment, error) {
	return topo.Build(topo.Config{
		Seed:             seed,
		Scale:            0.0005,
		WindowWidth:      8,
		MaxDevicesPerISP: 40,
		OnlyISPs:         []int{12},
	})
}

// scanSeed derives the scan permutation/validation seed for a harness
// seed.
func scanSeed(seed int64) []byte {
	return []byte(fmt.Sprintf("simtest-%d", seed))
}
