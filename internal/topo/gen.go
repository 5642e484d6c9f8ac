package topo

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/ipv6"
	"repro/internal/netsim"
	"repro/internal/registry"
	"repro/internal/services"
	"repro/internal/uint128"
)

// Config parameterizes deployment generation.
type Config struct {
	// Seed drives every random choice; equal seeds give identical
	// deployments.
	Seed int64
	// Scale multiplies the paper's per-ISP device counts (Table II).
	// The default 1/1024 turns the paper's 52.5M peripheries into ~51k
	// simulated devices.
	Scale float64
	// WindowWidth is the iterated bit width of each ISP's scan window
	// (the paper uses 32; the default here is 16, preserving shape at
	// simulation scale).
	WindowWidth int
	// MaxDevicesPerISP caps population for fast tests (0 = no cap).
	MaxDevicesPerISP int
	// OnlyISPs, when non-empty, restricts generation to these Table VII
	// indices (1-15).
	OnlyISPs []int
	// PatchLoops applies the Section VII mitigation: every CPE installs
	// the RFC 7084 unreachable route, eliminating the routing loop.
	PatchLoops bool
	// FilterPings applies the stricter Section VII mitigation: the
	// periphery stops emitting ICMPv6 errors for probes entirely
	// (re-evaluating RFC 4890's advice), which defeats discovery.
	FilterPings bool
	// Shards splits the simulated Internet across this many independent
	// engine shards (a netsim.EngineGroup with a replicated core/border
	// spine); 0 or 1 builds the classic single-engine deployment.
	// Subscriber prefixes are assigned to shards by contiguous window
	// chunk (shardOf), so each shard serializes only its own chunks'
	// traffic. xmap.ScanParallel splits its workers' targets by the same
	// rule, so worker i of n sends into shard i alone, apart from the
	// /64s pinned to another shard. With more than one shard, inject
	// through Deployment.Group (or xmap.NewGroupDriver), which routes
	// each probe to the owning shard.
	Shards int
	// FastPath toggles the engines' compiled forwarding fast path
	// (netsim flow cache). nil means the engine default (enabled);
	// pointing at false forces every delivery onto the interpreted
	// path, for A/B measurement and differential testing.
	FastPath *bool
	// Hostile plants adversarial responders (netsim.Hostile) inside ISP
	// scan windows: each spec reserves an aligned region of window cells
	// no honest device may occupy and delegates it to a hostile node.
	// The planted regions are recorded as ground truth on the
	// deployment, so detector oracles can score precision and recall.
	Hostile []HostileSpec
}

// HostileSpec plants one adversarial responder in one ISP's window.
type HostileSpec struct {
	// ISP is the Table VII index (1-15) of the block to poison; it must
	// be among the ISPs the build materializes.
	ISP int
	// Mode is the responder model; zero means netsim.HostileAliased.
	Mode netsim.HostileMode
	// RegionBits is the claimed region's prefix length, in
	// (windowBase, DelegLen]; zero means DelegLen (one window cell).
	RegionBits int
	// StormFactor is the netsim.HostileStorm reply multiplier.
	StormFactor int
}

// HostileRegion is ground truth for one planted adversarial responder.
type HostileRegion struct {
	Prefix ipv6.Prefix
	Mode   netsim.HostileMode
	Node   *netsim.Hostile
}

// DefaultScale is 1/1024 of the paper's population.
const DefaultScale = 1.0 / 1024

// Device is the ground truth for one generated periphery.
type Device struct {
	Spec     *ISPSpec
	Vendor   string
	IsUE     bool
	WANAddr  ipv6.Addr
	Class    ipv6.IIDClass
	MAC      ipv6.MAC
	HasMAC   bool
	Services map[services.ID]string
	VulnWAN  bool
	VulnLAN  bool
	Model    addrModel

	// CPE/UE is the simulator node (exactly one non-nil).
	CPE *netsim.CPE
	UE  *netsim.UE
	// AccessLink is the subscriber link (for amplification accounting).
	AccessLink *netsim.Link
}

// Vulnerable reports whether the device has any routing-loop flaw.
func (d *Device) Vulnerable() bool { return d.VulnWAN || d.VulnLAN }

// ISPDeployment is one generated ISP block.
type ISPDeployment struct {
	Spec   *ISPSpec
	Block  ipv6.Prefix
	Router *netsim.ISPRouter
	// Routers holds one ISP-router replica per engine shard (all with
	// the same name, block and interface addresses); Routers[0] ==
	// Router. A replica serves the subscribers whose window chunks its
	// shard owns and answers unreachable for the rest of the block.
	Routers []*netsim.ISPRouter
	Window  ipv6.Window
	Devices []*Device
	// Hostile lists the adversarial regions planted in this block.
	Hostile []HostileRegion

	downAddr ipv6.Addr // shared provider-side address of subscriber links
	// clonedMACs is the pool future devices may clone from.
	clonedMACs []ipv6.MAC
	// shards/shardShift map a window sub-prefix index to its owning
	// shard: shard = (idx >> shardShift) % shards.
	shards     int
	shardShift int
}

// shardOf returns the engine shard owning window sub-prefix index idx.
func (isp *ISPDeployment) shardOf(idx uint64) int {
	if isp.shards <= 1 {
		return 0
	}
	return int(idx>>isp.shardShift) % isp.shards
}

// Deployment is the full simulated Internet of the Table I ISPs.
type Deployment struct {
	// Engine is shard 0 — the whole deployment in a classic build.
	Engine *netsim.Engine
	// Group is the sharded execution substrate; always non-nil (a group
	// of one when Config.Shards <= 1). With more than one shard, inject
	// through the group so probes reach the shard owning their
	// destination.
	Group *netsim.EngineGroup
	Edge  *netsim.Edge
	// Core is shard 0's core router (each shard replicates the spine).
	Core *netsim.Router
	// Border is the transit hop between core and the ISPs; its presence
	// fixes the hop-limit parity so looping packets expire at the CPE
	// (whose Time Exceeded then exposes the periphery address), matching
	// the path lengths the paper observes. Shard 0's replica.
	Border *netsim.Router
	ISPs   []*ISPDeployment
	Geo    *registry.GeoDB
	OUI    *registry.OUIDB

	byWAN       map[ipv6.Addr]*Device
	cores       []*netsim.Router
	borders     []*netsim.Router
	coreBorders []*netsim.Iface
}

// ScannerAddr is the vantage address of every generated deployment.
var ScannerAddr = ipv6.MustParseAddr("2001:beef::100")

// DeviceByWAN resolves ground truth for a discovered WAN address.
func (d *Deployment) DeviceByWAN(a ipv6.Addr) (*Device, bool) {
	dev, ok := d.byWAN[a]
	return dev, ok
}

// Devices returns every generated device across ISPs.
func (d *Deployment) Devices() []*Device {
	var out []*Device
	for _, isp := range d.ISPs {
		out = append(out, isp.Devices...)
	}
	return out
}

// HostileRegions returns the planted adversarial ground truth across
// ISPs.
func (d *Deployment) HostileRegions() []HostileRegion {
	var out []HostileRegion
	for _, isp := range d.ISPs {
		out = append(out, isp.Hostile...)
	}
	return out
}

// BlockFor returns the ISP block prefix for a spec: each ISP owns the
// (0x2400+index)::/16 slice, and the block is its first /BlockLen.
func BlockFor(spec *ISPSpec) ipv6.Prefix {
	seg0 := uint16(0x2400 + spec.Index)
	return ipv6.MustPrefix(ipv6.AddrFromSegments([8]uint16{seg0}), spec.BlockLen)
}

// Build generates the deployment.
func Build(cfg Config) (*Deployment, error) {
	if cfg.Scale == 0 {
		cfg.Scale = DefaultScale
	}
	if cfg.Scale < 0 || cfg.Scale > 1 {
		return nil, fmt.Errorf("topo: scale %v out of (0,1]", cfg.Scale)
	}
	if cfg.WindowWidth == 0 {
		cfg.WindowWidth = 16
	}
	if cfg.WindowWidth < 4 || cfg.WindowWidth > 28 {
		return nil, fmt.Errorf("topo: window width %d out of [4,28]", cfg.WindowWidth)
	}
	nshards := cfg.Shards
	if nshards < 1 {
		nshards = 1
	}
	if shardBitsFor(nshards) > cfg.WindowWidth {
		return nil, fmt.Errorf("topo: %d shards exceed window width %d", nshards, cfg.WindowWidth)
	}

	want := func(index int) bool {
		if len(cfg.OnlyISPs) == 0 {
			return true
		}
		for _, i := range cfg.OnlyISPs {
			if i == index {
				return true
			}
		}
		return false
	}
	var specs []*ISPSpec
	devices := 0
	for i := range Specs {
		if want(Specs[i].Index) {
			specs = append(specs, &Specs[i])
			devices += population(&Specs[i], cfg)
		}
	}

	dep := &Deployment{
		Group: netsim.NewEngineGroup(nshards),
		Geo:   registry.NewGeoDB(),
		OUI:   registry.NewOUIDB(),
		byWAN: make(map[ipv6.Addr]*Device, devices),
	}
	// The ISPs are built off the engines from here on; the spine below
	// and every attach run on this goroutine.
	pl := startPlans(specs, cfg, nshards, dep.OUI)
	defer pl.stop()
	if cfg.FastPath != nil && !*cfg.FastPath {
		dep.Group.SetFastPath(false)
	}
	dep.Engine = dep.Group.Shard(0)
	dep.Edge = netsim.NewEdge("scanner", ScannerAddr)
	scanNet := ipv6.MustParsePrefix("2001:beef::/64")
	// Replicate the core/border spine per shard: the same addresses on
	// disjoint engines, so a probe's path length — and therefore every
	// hop-limit observation — is identical whichever shard serves it.
	for s := 0; s < nshards; s++ {
		suffix := ""
		if s > 0 {
			suffix = fmt.Sprintf("%d", s)
		}
		eng := dep.Group.Shard(s)
		core := netsim.NewRouter("core"+suffix, netsim.ErrorPolicy{})
		border := netsim.NewRouter("border"+suffix, netsim.ErrorPolicy{})
		edgeIf := dep.Edge.Iface()
		if s > 0 {
			edgeIf = dep.Edge.AddIface(fmt.Sprintf("scanner:if%d", s))
		}
		coreScan := core.AddIface(ipv6.MustParseAddr("2001:beef::1"), "core:scan"+suffix)
		eng.Connect(edgeIf, coreScan)
		core.AddRoute(scanNet, coreScan)
		coreBorder := core.AddIface(ipv6.MustParseAddr("2001:face::1"), "core:border"+suffix)
		borderUp := border.AddIface(ipv6.MustParseAddr("2001:face::2"), "border:up"+suffix)
		eng.Connect(coreBorder, borderUp)
		border.AddRoute(ipv6.MustParsePrefix("::/0"), borderUp)
		dep.Group.SetEntry(s, edgeIf)
		dep.cores = append(dep.cores, core)
		dep.borders = append(dep.borders, border)
		dep.coreBorders = append(dep.coreBorders, coreBorder)
	}
	dep.Core, dep.Border = dep.cores[0], dep.borders[0]

	// Attach each ISP in spec order as soon as its plan is ready.
	for i, spec := range specs {
		p := <-pl.plans[i]
		err := p.err
		if err == nil {
			err = dep.attach(p)
		}
		if err != nil {
			return nil, fmt.Errorf("topo: building ISP %d (%s): %w", spec.Index, spec.Name, err)
		}
		dep.ISPs = append(dep.ISPs, p.isp)
		<-pl.slots // attached: a worker may take another spec
	}
	return dep, nil
}

// ispPlan is one ISP constructed off the engines: every draw made, every
// node built, and the wiring recorded but not yet done. isp holds the
// ground truth, the unattached router replicas and the device and
// hostile nodes; attach joins them to the deployment.
type ispPlan struct {
	isp     *ISPDeployment
	linkNet ipv6.Prefix // the core<->ISP link's /64
	// hostileShards[i] is the shard holding isp.Hostile[i].
	hostileShards []int
	wires         []devWire // one per device, in isp.Devices order
	err           error
}

// devWire is what attach does for one device: add the router-side
// interface down on the shard's replica, connect it to the device and
// delegate deleg[0] and, when set, deleg[1] through it. With more than
// one shard deleg[1] (a dual-/64 LAN or a WAN /64 outside the window) is
// first pinned to the device's shard.
type devWire struct {
	down  string
	deleg [2]ipv6.Prefix
	shard int
}

// planAhead is how many plans beyond one per worker may wait built but
// unattached. Workers that run further ahead of attach leave the
// collector no idle core and raise the build's peak heap.
const planAhead = 1

// planner runs the plan stage: min(GOMAXPROCS, ISPs) workers take specs
// in order and each builds one whole ISP (planISP), sending it on
// plans[i]. The plans share nothing: each ISP's generators have their
// own seeds, so what a plan holds does not depend on which worker built
// it or when. A worker takes a slot before it takes a spec, and Build
// frees the slot once the plan is attached.
type planner struct {
	plans []chan *ispPlan
	slots chan struct{}
	done  chan struct{}
	wg    sync.WaitGroup
}

func startPlans(specs []*ISPSpec, cfg Config, nshards int, oui *registry.OUIDB) *planner {
	workers := min(runtime.GOMAXPROCS(0), len(specs))
	pl := &planner{
		plans: make([]chan *ispPlan, len(specs)),
		slots: make(chan struct{}, workers+planAhead),
		done:  make(chan struct{}),
	}
	for i := range pl.plans {
		pl.plans[i] = make(chan *ispPlan, 1)
	}
	var next atomic.Int64
	for range workers {
		pl.wg.Add(1)
		go func() {
			defer pl.wg.Done()
			for {
				select {
				case pl.slots <- struct{}{}:
				case <-pl.done:
					return
				}
				i := int(next.Add(1)) - 1
				if i >= len(specs) {
					return
				}
				pl.plans[i] <- planISP(specs[i], cfg, nshards, oui)
			}
		}()
	}
	return pl
}

// stop makes the workers quit after the plan in hand and waits for them.
func (pl *planner) stop() {
	close(pl.done)
	pl.wg.Wait()
}

// placement is one ISP's population, the window cells its hostile
// regions reserve, its generator, and the prefix of the window
// permutation its devices take cells from.
type placement struct {
	n, reserved int
	rng         *rand.Rand
	indices     []int
}

// place computes one ISP's population and reserved cells and draws its
// placements. A population the window cannot hold draws nothing;
// planISP reports it, as it reports invalid hostile regions, which
// reserve nothing here.
func place(spec *ISPSpec, cfg Config) placement {
	src := newSource(cfg.Seed*1000 + int64(spec.Index))
	p := placement{n: population(spec, cfg), rng: rand.New(src)}
	for _, hs := range cfg.Hostile {
		if hs.ISP != spec.Index {
			continue
		}
		regionBits := hs.RegionBits
		if regionBits == 0 {
			regionBits = spec.DelegLen
		}
		if d := spec.DelegLen - regionBits; d >= 0 && d < cfg.WindowWidth {
			p.reserved += 1 << d
		}
	}
	// Every device takes at most two cells (the dual-/64 model), and
	// every skip uses up a distinct reserved cell, so takeIdx never reads
	// past the first 2n+reserved cells of the window's permutation.
	if capacity := 1 << cfg.WindowWidth; p.n*2+p.reserved <= capacity {
		p.indices = permPrefix(src, capacity, p.n*2+p.reserved)
	}
	return p
}

// population is the number of devices the build gives an ISP.
func population(spec *ISPSpec, cfg Config) int {
	n := max(int(float64(spec.PaperLastHops)*cfg.Scale+0.5), 1)
	if cfg.MaxDevicesPerISP > 0 {
		n = min(n, cfg.MaxDevicesPerISP)
	}
	return n
}

// planISP places one ISP block and constructs all of it into a plan. It
// calls no router mutator and touches no engine or shared table, so it
// may run beside attach; a failure is returned in the plan.
func planISP(spec *ISPSpec, cfg Config, nshards int, oui *registry.OUIDB) *ispPlan {
	p := &ispPlan{}
	p.err = p.build(spec, cfg, nshards, oui)
	return p
}

func (p *ispPlan) build(spec *ISPSpec, cfg Config, nshards int, oui *registry.OUIDB) error {
	pl := place(spec, cfg)
	rng := pl.rng
	iidGen := ipv6.NewIIDGenerator(cfg.Seed*2000 + int64(spec.Index))

	block := BlockFor(spec)
	// Core <-> ISP link: addresses carved from a dedicated /64 of the
	// ISP block's tail, outside any scan window.
	linkNet, err := block.Sub(64, maxIndex(block, 64))
	if err != nil {
		return err
	}
	p.linkNet = linkNet
	// Scan window: the first (DelegLen-WindowWidth)-prefix of the block.
	winBase, err := block.Sub(spec.DelegLen-cfg.WindowWidth, uint128.Zero)
	if err != nil {
		return err
	}
	window, err := ipv6.NewWindow(winBase, spec.DelegLen)
	if err != nil {
		return err
	}
	isp := &ISPDeployment{
		Spec: spec, Block: block, Window: window,
		// Subscriber-facing links are unnumbered: every down interface
		// shares one provider-side address, as on a real BNG.
		downAddr:   ipv6.SLAAC(linkNet, 3),
		shards:     nshards,
		shardShift: cfg.WindowWidth - shardBitsFor(nshards),
	}
	p.isp = isp
	for range nshards {
		isp.Routers = append(isp.Routers, netsim.NewISPRouter(spec.Name, block, netsim.ErrorPolicy{}))
	}
	isp.Router = isp.Routers[0]

	n := pl.n
	capacity := 1 << cfg.WindowWidth

	// Plant hostile regions first: each reserves an aligned run of
	// window cells from the top of the window downward, so honest
	// devices (whose indices come from the permutation) can never land
	// inside an adversarial region — the ground truth stays exact.
	var runs []cellRun
	top := capacity
	for _, hs := range cfg.Hostile {
		if hs.ISP != spec.Index {
			continue
		}
		regionBits := hs.RegionBits
		if regionBits == 0 {
			regionBits = spec.DelegLen
		}
		if regionBits <= winBase.Bits() || regionBits > spec.DelegLen {
			return fmt.Errorf("hostile region /%d outside window (/%d-%d)",
				regionBits, winBase.Bits(), spec.DelegLen)
		}
		if nshards > 1 && regionBits < winBase.Bits()+shardBitsFor(nshards) {
			return fmt.Errorf("hostile region /%d wider than a /%d shard chunk",
				regionBits, winBase.Bits()+shardBitsFor(nshards))
		}
		cells := 1 << (spec.DelegLen - regionBits)
		top = (top - cells) &^ (cells - 1)
		if top < 0 {
			return fmt.Errorf("hostile regions exceed window capacity %d", capacity)
		}
		runs = append(runs, cellRun{top, top + cells})
		region, err := winBase.Sub(regionBits, uint128.From64(uint64(top/cells)))
		if err != nil {
			return err
		}
		mode := hs.Mode
		if mode == 0 {
			mode = netsim.HostileAliased
		}
		hostileN := len(isp.Hostile)
		h := netsim.NewHostile(netsim.HostileConfig{
			Name:        fmt.Sprintf("%s-hostile%d", spec.Name, hostileN),
			Prefix:      region,
			Mode:        mode,
			Seed:        cfg.Seed*3000 + int64(spec.Index)*64 + int64(hostileN),
			StormFactor: hs.StormFactor,
		})
		isp.Hostile = append(isp.Hostile, HostileRegion{Prefix: region, Mode: mode, Node: h})
		p.hostileShards = append(p.hostileShards, isp.shardOf(uint64(top)))
	}

	if n*2+pl.reserved > capacity {
		return fmt.Errorf("population %d exceeds window capacity %d", n, capacity)
	}

	indices := pl.indices
	nextIdx := 0
	takeIdx := func() uint64 {
		for {
			v := indices[nextIdx]
			nextIdx++
			if !reservedCell(runs, v) {
				return uint64(v)
			}
		}
	}

	// Normalizers so per-ISP service/loop rates survive vendor weighting.
	meanSvcW := map[services.ID]float64{}
	var meanLoopW float64
	var totalShare float64
	for _, vw := range spec.VendorShare {
		totalShare += vw.Weight
	}
	for _, vw := range spec.VendorShare {
		frac := vw.Weight / totalShare
		meanLoopW += frac * loopWeight(vw.Vendor)
		for _, svc := range services.All {
			meanSvcW[svc] += frac * serviceWeight(vw.Vendor, svc)
		}
	}

	isp.Devices = make([]*Device, 0, n)
	p.wires = make([]devWire, n)
	for devN := range n {
		dev, err := buildDevice(isp, cfg, oui, rng, iidGen, meanSvcW, meanLoopW, takeIdx, devN, &p.wires[devN])
		if err != nil {
			return err
		}
		isp.Devices = append(isp.Devices, dev)
	}
	return nil
}

// attach joins one plan to the deployment's engines, replaying in plan
// order every call that touches an engine, a router or a shared table:
// Connect order fixes link order and flow-key ids, and AddIface and
// Delegate invalidate the compiled flows of the engines their router is
// already attached to.
func (dep *Deployment) attach(p *ispPlan) error {
	isp, spec := p.isp, p.isp.Spec
	dep.Geo.Add(isp.Block, registry.GeoEntry{ASN: spec.ASN, Country: spec.Country})
	for s, router := range isp.Routers {
		borderIf := dep.borders[s].AddIface(ipv6.SLAAC(p.linkNet, 1), fmt.Sprintf("border:isp%d", spec.Index))
		ispUp := router.AddIface(ipv6.SLAAC(p.linkNet, 2), "isp:up")
		dep.Group.Shard(s).Connect(borderIf, ispUp)
		dep.borders[s].AddRoute(isp.Block, borderIf)
		dep.cores[s].AddRoute(isp.Block, dep.coreBorders[s])
		router.SetUpstream(ispUp)
	}

	// Shard routing: the block falls back to shard 0 (link-net and
	// unassigned space outside the window answer identically on every
	// replica); the window splits into contiguous chunks, chunk c on
	// shard c mod shards, matching shardOf. Per-device pins below route
	// prefixes that land outside the device's primary chunk.
	dep.Group.Route(isp.Block, 0)
	if isp.shards > 1 {
		winBase := isp.Window.Base
		shardBits := shardBitsFor(isp.shards)
		for c := 0; c < 1<<shardBits; c++ {
			chunk, err := winBase.Sub(winBase.Bits()+shardBits, uint128.From64(uint64(c)))
			if err != nil {
				return err
			}
			dep.Group.Route(chunk, c%isp.shards)
		}
	}

	for i, hr := range isp.Hostile {
		shard := p.hostileShards[i]
		router := isp.Routers[shard]
		down := router.AddIface(isp.downAddr, hr.Node.Name()+":down")
		dep.Group.Shard(shard).Connect(down, hr.Node.Iface())
		if err := router.Delegate(hr.Prefix, down); err != nil {
			return err
		}
		if isp.shards > 1 {
			dep.Group.Route(hr.Prefix, shard)
		}
	}

	for i, dev := range isp.Devices {
		w := &p.wires[i]
		router := isp.Routers[w.shard]
		if isp.shards > 1 && w.deleg[1].Bits() > 0 {
			dep.Group.Route(w.deleg[1], w.shard)
		}
		down := router.AddIface(isp.downAddr, w.down)
		var up *netsim.Iface
		if dev.CPE != nil {
			up = dev.CPE.WAN()
		} else {
			up = dev.UE.Iface()
		}
		dev.AccessLink = dep.Group.Shard(w.shard).Connect(down, up)
		for _, d := range w.deleg {
			if d.Bits() == 0 {
				break
			}
			if err := router.Delegate(d, down); err != nil {
				return err
			}
		}
		dep.byWAN[dev.WANAddr] = dev
	}
	return nil
}

// cellRun is the half-open run [lo, hi) of window cells one hostile
// region reserves.
type cellRun struct{ lo, hi int }

// reservedCell reports whether window cell c lies in a reserved run.
func reservedCell(runs []cellRun, c int) bool {
	for _, r := range runs {
		if r.lo <= c && c < r.hi {
			return true
		}
	}
	return false
}

// routerIID is the interface identifier provider-side link addresses use;
// chosen outside every IID class the generator emits so it never collides
// with a device address.
const routerIID = 0xffff_ffff_ffff_fffe

// maxIndex returns the last sub-prefix index of the given length.
func maxIndex(p ipv6.Prefix, bits int) uint128.Uint128 {
	n, _ := p.NumSub(bits)
	return n.Sub64(1)
}

// shardBitsFor returns ceil(log2(n)): the window bits consumed by shard
// chunking.
func shardBitsFor(n int) int {
	b := 0
	for 1<<b < n {
		b++
	}
	return b
}

func pickVendor(rng *rand.Rand, shares []VendorWeight) string {
	var total float64
	for _, vw := range shares {
		total += vw.Weight
	}
	r := rng.Float64() * total
	for _, vw := range shares {
		if r < vw.Weight {
			return vw.Vendor
		}
		r -= vw.Weight
	}
	return shares[len(shares)-1].Vendor
}

// pickIIDClass draws a class with the ISP's EUI-64 rate and the paper's
// Table III remainder split.
func pickIIDClass(rng *rand.Rand, eui64Frac float64) ipv6.IIDClass {
	if rng.Float64() < eui64Frac {
		return ipv6.IIDEUI64
	}
	r := rng.Float64()
	switch {
	case r < 0.817:
		return ipv6.IIDRandomized
	case r < 0.817+0.113:
		return ipv6.IIDBytePattern
	case r < 0.817+0.113+0.059:
		return ipv6.IIDEmbedIPv4
	default:
		return ipv6.IIDLowByte
	}
}

// buildDevice draws and constructs one device and records its wiring
// in w.
func buildDevice(
	isp *ISPDeployment, cfg Config, oui *registry.OUIDB,
	rng *rand.Rand, iidGen *ipv6.IIDGenerator,
	meanSvcW map[services.ID]float64, meanLoopW float64,
	takeIdx func() uint64, devN int, w *devWire,
) (*Device, error) {
	spec := isp.Spec
	dev := &Device{Spec: spec}

	dev.IsUE = spec.Network == Mobile && rng.Float64() < spec.UEFrac
	eui64Frac := spec.PaperEUI64Frac
	if dev.IsUE {
		// Weight UE vendors toward the paper's Table IV ranking.
		dev.Vendor = registry.UEVendors[min(rng.Intn(len(registry.UEVendors)), rng.Intn(len(registry.UEVendors)))]
		// Handsets of the measurement era commonly derived their IID
		// from the radio MAC, which is how Table IV attributes them.
		eui64Frac = 0.35
	} else {
		dev.Vendor = pickVendor(rng, spec.VendorShare)
	}

	dev.Class = pickIIDClass(rng, eui64Frac)
	ouis := oui.OUIsOf(dev.Vendor)
	iid, mac := iidGen.Generate(dev.Class, ouis[rng.Intn(len(ouis))])
	if dev.Class == ipv6.IIDEUI64 {
		// A small share of devices clone a MAC already in the field
		// (duplicated firmware images; the paper's Table II observes
		// 3.5% repeated MACs).
		if len(isp.clonedMACs) > 0 && rng.Float64() < 0.035 {
			mac = isp.clonedMACs[rng.Intn(len(isp.clonedMACs))]
			iid = mac.EUI64IID()
		} else {
			isp.clonedMACs = append(isp.clonedMACs, mac)
		}
		dev.MAC, dev.HasMAC = mac, true
	}

	// Services.
	for _, svc := range services.All {
		base := spec.ServiceRate[svc]
		if base == 0 {
			continue
		}
		p := base * serviceWeight(dev.Vendor, svc) / meanSvcW[svc]
		if p > 0.97 {
			p = 0.97
		}
		if rng.Float64() < p {
			if dev.Services == nil {
				dev.Services = make(map[services.ID]string)
			}
			dev.Services[svc] = softwareFor(spec, dev.Vendor, svc)
		}
	}

	// Loop vulnerability.
	loopP := spec.LoopFrac * loopWeight(dev.Vendor) / meanLoopW
	vulnerable := rng.Float64() < loopP
	if cfg.PatchLoops {
		vulnerable = false
	}

	var stack netsim.LocalStack
	if len(dev.Services) > 0 {
		stack = services.NewStack(
			services.Config{Vendor: dev.Vendor, Software: dev.Services},
			[]byte(fmt.Sprintf("stack-%d-%d", spec.Index, devN)),
		)
	}

	name := fmt.Sprintf("%s-%d", spec.Name, devN)
	policy := netsim.ErrorPolicy{Suppress: cfg.FilterPings}

	idx := takeIdx()
	w.shard = isp.shardOf(idx)
	first, err := isp.Window.Sub(uint128.From64(idx))
	if err != nil {
		return nil, err
	}
	switch {
	case spec.DelegLen == 64 && dev.IsUE:
		dev.Model = modelShared64
		dev.WANAddr = ipv6.SLAAC(first, iid)
		dev.UE = netsim.NewUE(name, dev.WANAddr, first, stack, policy)
		w.down = name + ":bs"
		w.deleg[0] = first

	case spec.DelegLen == 64:
		dev.WANAddr = ipv6.SLAAC(first, iid)
		cpeCfg := netsim.CPEConfig{
			Name: name, WANAddr: dev.WANAddr, WANPrefix: first,
			Stack: stack, Policy: policy,
		}
		dev.Model = modelShared64
		if rng.Float64() < spec.DualFrac {
			dev.Model = modelDual64
			lan, err := isp.Window.Sub(uint128.From64(takeIdx()))
			if err != nil {
				return nil, err
			}
			// The LAN /64 may fall in another shard's chunk; with more
			// than one shard attach pins it to the shard holding the CPE.
			cpeCfg.Delegated = lan
		}
		if vulnerable {
			dev.VulnWAN = true
			if dev.Model == modelDual64 {
				dev.VulnLAN = true
			}
		}
		cpeCfg.Behavior = behaviorFor(dev)
		dev.CPE = netsim.NewCPE(cpeCfg)
		w.down = name + ":down"
		w.deleg = [2]ipv6.Prefix{first, cpeCfg.Delegated}

	default: // DelegLen < 64: delegated model
		deleg := first
		sub64s, _ := deleg.NumSub(64)
		pick64 := func() (ipv6.Prefix, error) {
			idx := uint128.From64(rng.Uint64()).Mod(sub64s)
			return deleg.Sub(64, idx)
		}
		var wanPrefix ipv6.Prefix
		if spec.WANInsideDelegation {
			wanPrefix, err = pick64()
			if err != nil {
				return nil, err
			}
		} else {
			// WAN /64 in a reserved region of the block outside the
			// scan window (the second window-size region). Outside the
			// window it is outside chunk routing, so with more than one
			// shard attach pins it to the shard holding the CPE.
			wanRegion, err := isp.Block.Sub(spec.DelegLen-cfg.WindowWidth, uint128.One)
			if err != nil {
				return nil, err
			}
			wanPrefix, err = wanRegion.Sub(64, uint128.From64(uint64(devN)))
			if err != nil {
				return nil, err
			}
			w.deleg[1] = wanPrefix
		}
		dev.Model = modelDelegated
		dev.WANAddr = ipv6.SLAAC(wanPrefix, iid)
		subnet, err := pick64()
		if err != nil {
			return nil, err
		}
		if vulnerable {
			dev.VulnLAN = true
			if spec.WANInsideDelegation {
				dev.VulnWAN = true
			}
		}
		cpeCfg := netsim.CPEConfig{
			Name: name, WANAddr: dev.WANAddr, WANPrefix: wanPrefix,
			Delegated: deleg, Subnets: []ipv6.Prefix{subnet},
			LANAddr: ipv6.SLAAC(subnet, 1),
			Stack:   stack, Policy: policy,
		}
		cpeCfg.Behavior = behaviorFor(dev)
		dev.CPE = netsim.NewCPE(cpeCfg)
		w.down = name + ":down"
		w.deleg[0] = deleg
	}
	return dev, nil
}

// behaviorFor maps ground-truth flags to the CPE behavior struct.
func behaviorFor(dev *Device) netsim.CPEBehavior {
	b := netsim.CPEBehavior{VulnWAN: dev.VulnWAN, VulnLAN: dev.VulnLAN}
	if dev.Vendor == "Xiaomi" && dev.Vulnerable() {
		b.LoopCap = 12 // the ">10 times" mitigation class of Table XII
	}
	return b
}
