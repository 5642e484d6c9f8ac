package topo

import (
	"fmt"
	"math/rand"

	"repro/internal/bgp"
	"repro/internal/ipv6"
	"repro/internal/netsim"
	"repro/internal/registry"
	"repro/internal/uint128"
)

// BGPConfig parameterizes the Section VI-B BGP-universe deployment: the
// scan of every globally advertised prefix's 16-bit sub-prefix window
// that produced the paper's Table IX / Table X / Figure 5.
type BGPConfig struct {
	Seed int64
	// NumASes sizes the synthetic Routeviews table (paper: ~21k origin
	// ASes, ~101k prefixes; default 600 for simulation scale).
	NumASes int
	// WindowWidth is the per-prefix scan width (paper: 16; default 8).
	WindowWidth int
	// MeanDevices is the average responding-router count per advertised
	// prefix (paper: ~40).
	MeanDevices int
	// LoopBase is the baseline probability that a device is
	// loop-vulnerable before country/AS weighting (paper observes
	// ~3.2% of last hops).
	LoopBase float64
}

// BGPDevice is ground truth for one device in the BGP universe.
type BGPDevice struct {
	Advert bgp.Advert
	Addr   ipv6.Addr
	Class  ipv6.IIDClass
	Vuln   bool
	CPE    *netsim.CPE
}

// BGPDeployment is the instantiated BGP universe.
type BGPDeployment struct {
	Engine  *netsim.Engine
	Edge    *netsim.Edge
	Core    *netsim.Router
	Table   *bgp.Table
	Geo     *registry.GeoDB
	Devices []*BGPDevice
	// Windows lists one scan window per advertised prefix.
	Windows []ipv6.Window
}

// bgpLoopCountryMult reflects Figure 5: countries where vulnerable
// deployments concentrate.
var bgpLoopCountryMult = map[string]float64{
	"BR": 6.0, "CN": 4.5, "EC": 4.0, "VN": 3.5, "US": 2.0,
	"MM": 3.0, "IN": 1.8, "GB": 1.5, "DE": 1.2, "CH": 1.0, "CZ": 1.0,
}

// bgpIIDMix is the Table X interface-identifier mix of the BGP-universe
// last hops: manually configured infrastructure shows far more low-byte
// addresses than residential CPEs.
var bgpIIDMix = []struct {
	class ipv6.IIDClass
	frac  float64
}{
	{ipv6.IIDRandomized, 0.45},
	{ipv6.IIDLowByte, 0.30},
	{ipv6.IIDEUI64, 0.19},
	{ipv6.IIDEmbedIPv4, 0.05},
	{ipv6.IIDBytePattern, 0.01},
}

// BuildBGPUniverse instantiates the deployment.
func BuildBGPUniverse(cfg BGPConfig) (*BGPDeployment, error) {
	if cfg.NumASes == 0 {
		cfg.NumASes = 600
	}
	if cfg.WindowWidth == 0 {
		cfg.WindowWidth = 8
	}
	if cfg.WindowWidth < 4 || cfg.WindowWidth > 16 {
		return nil, fmt.Errorf("topo: BGP window width %d out of [4,16]", cfg.WindowWidth)
	}
	if cfg.MeanDevices == 0 {
		cfg.MeanDevices = 12
	}
	if cfg.LoopBase == 0 {
		cfg.LoopBase = 0.016
	}

	table, err := bgp.Generate(bgp.GenConfig{Seed: cfg.Seed, NumASes: cfg.NumASes, MaxPrefixes: 2})
	if err != nil {
		return nil, err
	}
	src := newSource(cfg.Seed + 99)
	rng := rand.New(src)
	iidGen := ipv6.NewIIDGenerator(cfg.Seed + 199)
	oui := registry.NewOUIDB()

	dep := &BGPDeployment{
		Engine: netsim.New(cfg.Seed),
		Table:  table,
		Geo:    table.GeoDB(),
	}
	dep.Edge = netsim.NewEdge("scanner", ScannerAddr)
	dep.Core = netsim.NewRouter("core", netsim.ErrorPolicy{})
	coreScan := dep.Core.AddIface(ipv6.MustParseAddr("2001:beef::1"), "core:scan")
	dep.Engine.Connect(dep.Edge.Iface(), coreScan, 0)
	dep.Core.AddRoute(ipv6.MustParsePrefix("2001:beef::/64"), coreScan)
	// Border transit hop: keeps the hop-limit parity such that looping
	// packets expire at the periphery (see topo.Deployment.Border).
	border := netsim.NewRouter("border", netsim.ErrorPolicy{})
	coreBorder := dep.Core.AddIface(ipv6.MustParseAddr("2001:face::1"), "core:border")
	borderUp := border.AddIface(ipv6.MustParseAddr("2001:face::2"), "border:up")
	dep.Engine.Connect(coreBorder, borderUp, 0)
	border.AddRoute(ipv6.MustParsePrefix("::/0"), borderUp)

	// Per-AS loop multiplier: a small set of ASes are dramatically worse
	// (one vendor dominating an eyeball network), which concentrates the
	// Figure 5 top-10.
	asMult := map[int]float64{}
	for _, asn := range table.ASNs() {
		m := 0.5 + rng.Float64()
		if rng.Float64() < 0.05 {
			m *= 8 // a vulnerable-by-default vendor fleet
		}
		asMult[asn] = m
	}

	linkIdx := 0
	for _, adv := range table.Adverts {
		subLen := adv.Prefix.Bits() + cfg.WindowWidth // e.g. /32 -> /40s or /48s
		window, err := ipv6.NewWindow(adv.Prefix, subLen)
		if err != nil {
			return nil, err
		}
		dep.Windows = append(dep.Windows, window)

		isp := netsim.NewISPRouter(fmt.Sprintf("as%d-%s", adv.ASN, adv.Prefix), adv.Prefix, netsim.ErrorPolicy{
			// The BGP universe contains many networks that silently
			// filter; model a fraction to keep hit counts paper-shaped.
			Suppress: rng.Float64() < 0.2,
		})
		upNet, err := adv.Prefix.Sub(64, maxIndex(adv.Prefix, 64))
		if err != nil {
			return nil, err
		}
		borderIf := border.AddIface(ipv6.SLAAC(upNet, 1), fmt.Sprintf("border:bgp%d", linkIdx))
		ispUp := isp.AddIface(ipv6.SLAAC(upNet, 2), "isp:up")
		dep.Engine.Connect(borderIf, ispUp, 0)
		border.AddRoute(adv.Prefix, borderIf)
		dep.Core.AddRoute(adv.Prefix, coreBorder)
		isp.SetUpstream(ispUp)
		linkIdx++

		// Devices: each occupies one sub-prefix of the window.
		n := 1 + rng.Intn(cfg.MeanDevices*2)
		capacity := 1 << cfg.WindowWidth
		if n > capacity/2 {
			n = capacity / 2
		}
		perm := permPrefix(src, capacity, n)

		mult := asMult[adv.ASN]
		if m, ok := bgpLoopCountryMult[adv.Country]; ok {
			mult *= m
		}
		loopP := cfg.LoopBase * mult
		if loopP > 0.9 {
			loopP = 0.9
		}

		for d := 0; d < n; d++ {
			deleg, err := window.Sub(uint128.From64(uint64(perm[d])))
			if err != nil {
				return nil, err
			}
			class := pickBGPClass(rng)
			vendor := registry.CPEVendors[rng.Intn(len(registry.CPEVendors))]
			ouis := oui.OUIsOf(vendor)
			iid, _ := iidGen.Generate(class, ouis[rng.Intn(len(ouis))])

			// The device answers for its whole sub-prefix; its own
			// address sits in the first /64.
			wan64, err := deleg.Sub(64, uint128.Zero)
			if err != nil {
				if deleg.Bits() == 64 {
					wan64 = deleg
				} else {
					return nil, err
				}
			}
			addr := ipv6.SLAAC(wan64, iid)
			vuln := rng.Float64() < loopP
			cpe := netsim.NewCPE(netsim.CPEConfig{
				Name:      fmt.Sprintf("bgp-%d-%d", linkIdx, d),
				WANAddr:   addr,
				WANPrefix: wan64,
				Delegated: deleg,
				Behavior:  netsim.CPEBehavior{VulnLAN: vuln},
			})
			down := isp.AddIface(ipv6.SLAAC(upNet, 3), fmt.Sprintf("isp:d%d", d))
			dep.Engine.Connect(down, cpe.WAN(), 0)
			if err := isp.Delegate(deleg, down); err != nil {
				return nil, err
			}
			dep.Devices = append(dep.Devices, &BGPDevice{
				Advert: adv, Addr: addr, Class: class, Vuln: vuln, CPE: cpe,
			})
		}
	}
	return dep, nil
}

// pickBGPClass draws from the Table X mix.
func pickBGPClass(rng *rand.Rand) ipv6.IIDClass {
	r := rng.Float64()
	for _, e := range bgpIIDMix {
		if r < e.frac {
			return e.class
		}
		r -= e.frac
	}
	return ipv6.IIDRandomized
}
