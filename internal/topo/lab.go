package topo

import (
	"fmt"

	"repro/internal/ipv6"
	"repro/internal/netsim"
	"repro/internal/uint128"
)

// LabRouter is one device of the paper's Section VI-D case study: 95
// physical home routers from 20 vendors plus 4 open-source router OSes,
// all running firmware current as of Dec 1st 2020 — and all vulnerable to
// the routing loop on at least the WAN prefix.
type LabRouter struct {
	Brand    string
	Model    string
	Firmware string
	IsOS     bool // an open-source OS image rather than hardware
	VulnWAN  bool
	VulnLAN  bool
	// LoopCap >0 marks the Xiaomi/Gargoyle/librecmc/OpenWrt class that
	// forwards looping packets only a bounded (>10) number of times.
	LoopCap int
}

// labNamed are the explicitly-listed rows of Table XII.
var labNamed = []LabRouter{
	{Brand: "ASUS", Model: "GT-AC5300", Firmware: "3.0.0.4.384_82037", VulnWAN: true, VulnLAN: false},
	{Brand: "D-Link", Model: "COVR-3902", Firmware: "1.01", VulnWAN: true, VulnLAN: false},
	{Brand: "Huawei", Model: "WS5100", Firmware: "10.0.2.8", VulnWAN: true, VulnLAN: true},
	{Brand: "Linksys", Model: "EA8100", Firmware: "2.0.1.200539", VulnWAN: true, VulnLAN: true},
	{Brand: "Netgear", Model: "R6400v2", Firmware: "1.0.4.102_10.0.75", VulnWAN: true, VulnLAN: true},
	{Brand: "Tenda", Model: "AC23", Firmware: "16.03.07.35", VulnWAN: true, VulnLAN: false},
	{Brand: "TP-Link", Model: "TL-XDR3230", Firmware: "1.0.8", VulnWAN: true, VulnLAN: true},
	{Brand: "Xiaomi", Model: "AX5", Firmware: "1.0.33", VulnWAN: true, VulnLAN: false, LoopCap: 12},
	{Brand: "OpenWrt", Model: "19.07.4", Firmware: "r11208-ce6496d796", IsOS: true, VulnWAN: true, VulnLAN: false, LoopCap: 12},
}

// labCounts is the per-brand device count of Table XII's footer (95
// hardware routers total).
var labCounts = []struct {
	brand string
	count int
	// lanVuln: whether this brand's remaining units also loop on the
	// LAN prefix (the named rows above carry their own ground truth).
	lanVuln bool
}{
	{"ASUS", 1, false},
	{"China Mobile", 4, true},
	{"D-Link", 2, false},
	{"FAST", 1, false},
	{"Fiberhome", 2, true},
	{"H3C", 1, false},
	{"Hisense", 1, false},
	{"Huawei", 4, true},
	{"iKuai", 3, false},
	{"Linksys", 1, true},
	{"Mercury", 8, false},
	{"Mikrotik", 1, false},
	{"Netgear", 2, true},
	{"Skyworthdigital", 9, true},
	{"Tenda", 1, false},
	{"Totolink", 1, false},
	{"TP-Link", 42, true},
	{"Xiaomi", 1, false},
	{"Youhua", 1, true},
	{"ZTE", 9, true},
}

// labOSes are the four open-source router OS images.
var labOSes = []struct {
	name    string
	loopCap int
}{
	{"DD-Wrt", 0},
	{"Gargoyle", 12},
	{"librecmc", 12},
	{"OpenWrt", 12},
}

// LabRouters expands Table XII into the full 99-entry list (95 hardware
// units + 4 OS images). Named rows provide exact ground truth; the
// remaining units of each brand inherit the brand's profile.
func LabRouters() []LabRouter {
	var out []LabRouter
	named := map[string]int{} // brand -> named units consumed
	for _, r := range labNamed {
		if !r.IsOS {
			named[r.Brand]++
			out = append(out, r)
		}
	}
	for _, bc := range labCounts {
		remaining := bc.count - named[bc.brand]
		for i := 0; i < remaining; i++ {
			r := LabRouter{
				Brand:    bc.brand,
				Model:    fmt.Sprintf("%s-unit-%d", bc.brand, i+1),
				Firmware: "latest-2020-12",
				VulnWAN:  true,
				VulnLAN:  bc.lanVuln,
			}
			if bc.brand == "Xiaomi" {
				r.LoopCap = 12
			}
			out = append(out, r)
		}
	}
	for _, os := range labOSes {
		r := LabRouter{
			Brand: os.name, Model: os.name, Firmware: "latest-2020-12",
			IsOS: true, VulnWAN: true, VulnLAN: false, LoopCap: os.loopCap,
		}
		if os.name == "OpenWrt" {
			r.Firmware = "19.07.4 r11208-ce6496d796"
		}
		out = append(out, r)
	}
	return out
}

// LabEntry is one instantiated lab router in the test network.
type LabEntry struct {
	Router     LabRouter
	CPE        *netsim.CPE
	WANPrefix  ipv6.Prefix
	Delegated  ipv6.Prefix
	WANAddr    ipv6.Addr
	AccessLink *netsim.Link
}

// LabDeployment is the broadband home network of Section VI-D: every lab
// router connected behind one provider router, WAN assigned a /64 and LAN
// delegated a /60.
type LabDeployment struct {
	Engine  *netsim.Engine
	Edge    *netsim.Edge
	ISP     *netsim.ISPRouter
	Entries []*LabEntry
}

// LabBlock is the provider block the lab routers live in.
var LabBlock = ipv6.MustParsePrefix("2001:4b0::/32")

// BuildLab instantiates the Table XII test network.
func BuildLab() (*LabDeployment, error) {
	dep := &LabDeployment{Engine: netsim.New()}
	dep.Edge = netsim.NewEdge("tester", ScannerAddr)
	isp := netsim.NewISPRouter("lab-isp", LabBlock, netsim.ErrorPolicy{})
	dep.ISP = isp

	upNet, err := LabBlock.Sub(64, maxIndex(LabBlock, 64))
	if err != nil {
		return nil, err
	}
	ispUp := isp.AddIface(ipv6.SLAAC(upNet, 2), "isp:up")
	dep.Engine.Connect(dep.Edge.Iface(), ispUp)
	isp.SetUpstream(ispUp)

	for i, r := range LabRouters() {
		// WAN /64s from the first /48 region; LAN /60s from the second.
		wanPrefix, err := LabBlock.Sub(64, uint128.From64(uint64(i)))
		if err != nil {
			return nil, err
		}
		lanRegion, err := LabBlock.Sub(48, uint128.One)
		if err != nil {
			return nil, err
		}
		deleg, err := lanRegion.Sub(60, uint128.From64(uint64(i)))
		if err != nil {
			return nil, err
		}
		subnet, err := deleg.Sub(64, uint128.From64(5))
		if err != nil {
			return nil, err
		}
		wanAddr := ipv6.SLAAC(wanPrefix, 0x0211_22ff_fe40_0000|uint64(i))
		cpe := netsim.NewCPE(netsim.CPEConfig{
			Name:      fmt.Sprintf("lab-%d-%s-%s", i, r.Brand, r.Model),
			WANAddr:   wanAddr,
			WANPrefix: wanPrefix,
			Delegated: deleg,
			Subnets:   []ipv6.Prefix{subnet},
			LANAddr:   ipv6.SLAAC(subnet, 1),
			Behavior:  netsim.CPEBehavior{VulnWAN: r.VulnWAN, VulnLAN: r.VulnLAN, LoopCap: r.LoopCap},
		})
		down := isp.AddIface(ipv6.SLAAC(wanPrefix, routerIID), fmt.Sprintf("isp:lab%d", i))
		link := dep.Engine.Connect(down, cpe.WAN())
		if err := isp.Delegate(wanPrefix, down); err != nil {
			return nil, err
		}
		if err := isp.Delegate(deleg, down); err != nil {
			return nil, err
		}
		dep.Entries = append(dep.Entries, &LabEntry{
			Router: r, CPE: cpe, WANPrefix: wanPrefix, Delegated: deleg,
			WANAddr: wanAddr, AccessLink: link,
		})
	}
	return dep, nil
}
