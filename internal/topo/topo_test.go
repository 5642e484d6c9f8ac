package topo

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"repro/internal/ipv6"
	"repro/internal/netsim"
	"repro/internal/services"
	"repro/internal/uint128"
	"repro/internal/wire"
	"repro/internal/xmap"
)

func smallConfig() Config {
	return Config{Seed: 1, Scale: 0.0001, WindowWidth: 10, MaxDevicesPerISP: 60}
}

func TestBuildSmallDeployment(t *testing.T) {
	dep, err := Build(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(dep.ISPs) != len(Specs) {
		t.Fatalf("built %d ISPs, want %d", len(dep.ISPs), len(Specs))
	}
	for _, isp := range dep.ISPs {
		if len(isp.Devices) == 0 {
			t.Errorf("ISP %s has no devices", isp.Spec.Name)
		}
		if isp.Window.To != isp.Spec.DelegLen {
			t.Errorf("ISP %s window %s, want boundary /%d", isp.Spec.Name, isp.Window, isp.Spec.DelegLen)
		}
		if !isp.Block.Overlaps(isp.Window.Base) {
			t.Errorf("ISP %s window outside block", isp.Spec.Name)
		}
		for _, dev := range isp.Devices {
			if !isp.Block.Contains(dev.WANAddr) {
				t.Errorf("device %s outside block %s", dev.WANAddr, isp.Block)
			}
			if got := ipv6.Classify(dev.WANAddr); got != dev.Class {
				t.Errorf("device %s class %s, ground truth says %s", dev.WANAddr, got, dev.Class)
			}
			if dev.HasMAC {
				if _, ok := dep.OUI.VendorOfMAC(dev.MAC); !ok {
					t.Errorf("device MAC %s has unknown OUI", dev.MAC)
				}
			}
			if d2, ok := dep.DeviceByWAN(dev.WANAddr); !ok || d2 != dev {
				t.Errorf("DeviceByWAN(%s) broken", dev.WANAddr)
			}
		}
	}
}

func TestBuildDeterministic(t *testing.T) {
	a, err := Build(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	da, db := a.Devices(), b.Devices()
	if len(da) != len(db) {
		t.Fatalf("device counts differ: %d vs %d", len(da), len(db))
	}
	for i := range da {
		if da[i].WANAddr != db[i].WANAddr || da[i].Vendor != db[i].Vendor ||
			da[i].VulnLAN != db[i].VulnLAN || da[i].VulnWAN != db[i].VulnWAN {
			t.Fatalf("device %d differs", i)
		}
	}
}

// scanHostile is the scan_hostile benchmark workload's four regions in
// ISP 13 (/60 delegations: a /52 is 256 window cells, a /54 is 64).
func scanHostile() []HostileSpec {
	return []HostileSpec{
		{ISP: 13, Mode: netsim.HostileAliased, RegionBits: 52},
		{ISP: 13, Mode: netsim.HostileStorm, RegionBits: 54, StormFactor: 6},
		{ISP: 13, Mode: netsim.HostileSpoofer, RegionBits: 54},
		{ISP: 13, Mode: netsim.HostileMalformed, RegionBits: 54},
	}
}

// deploymentDigest is a sha256 over every device's placement and ground
// truth, in build order, the planted hostile regions, and every shard
// engine's links in connection order (both ends' names and addresses):
// link order fixes flow-key ids, so a build that wires the same devices
// in another order moves the digest.
func deploymentDigest(dep *Deployment) string {
	h := sha256.New()
	for _, d := range dep.Devices() {
		var deleg ipv6.Prefix
		if d.CPE != nil {
			deleg = d.CPE.Delegated()
		}
		fmt.Fprintf(h, "%d %s %s %d %s %s %t %t", d.Spec.Index, d.WANAddr, deleg,
			d.Model, d.Vendor, d.Class, d.VulnWAN, d.VulnLAN)
		for _, svc := range services.All {
			if sw, ok := d.Services[svc]; ok {
				fmt.Fprintf(h, " %s=%s", svc, sw)
			}
		}
		fmt.Fprintln(h)
	}
	for _, r := range dep.HostileRegions() {
		fmt.Fprintf(h, "hostile %s %s\n", r.Prefix, r.Mode)
	}
	for s := 0; s < dep.Group.NumShards(); s++ {
		for _, l := range dep.Group.Shard(s).Links() {
			a, b := l.Ends()[0], l.Ends()[1]
			fmt.Fprintf(h, "link %d %s %s %s %s\n", s, a.Name(), a.Addr(), b.Name(), b.Addr())
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestBuildPinned pins the generated deployment across commits, not only
// within one run: a change to how devices are placed, drawn or wired
// moves the digest. Beside it, every shard engine's counters after the
// build: nothing has run, so all that moves is the fast path's
// invalidation count, one per AddIface, AddRoute, SetUpstream, Delegate
// and Connect that reaches an attached engine — a build that mutates a
// router before attaching it, or on another engine, moves it. Every case
// runs on one core and on four, so a build whose result depends on how
// its work was scheduled fails here.
func TestBuildPinned(t *testing.T) {
	inval := func(ns ...uint64) []netsim.Counters {
		cs := make([]netsim.Counters, len(ns))
		for i, n := range ns {
			cs[i].FastPathInvalidations = n
		}
		return cs
	}
	cases := []struct {
		name     string
		cfg      Config
		want     string
		counters []netsim.Counters // one per shard
	}{
		{"hostile-w18", Config{
			Seed: 1, Scale: 0.0005, WindowWidth: 18, MaxDevicesPerISP: 4000, OnlyISPs: []int{13},
			Hostile: scanHostile(),
		}, "b86126d97b4c758083bcd87efb908e6dca510d30975a74d1165c8c9af007fbbe", inval(10996)},
		{"shards2-w16", Config{Seed: 1, Scale: 0.0005, WindowWidth: 16, MaxDevicesPerISP: 4000, Shards: 2},
			"adb2fc97a2753e6ec389b35ef734e613ece02bdb755b1396472d905d82655123", inval(29018, 29115)},
		{"scan-cold-w20", Config{Seed: 1, Scale: 0.0005, WindowWidth: 20, MaxDevicesPerISP: 4000},
			"68f63ed5a311d1ac2adb47c9c819eaa04c4f8bd77c9d0f6f731f2d89a8e30f55", inval(58036)},
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		for _, c := range cases {
			dep, err := Build(c.cfg)
			if err != nil {
				t.Fatalf("%s at GOMAXPROCS %d: %v", c.name, procs, err)
			}
			if got := deploymentDigest(dep); got != c.want {
				t.Errorf("%s at GOMAXPROCS %d: deployment digest %s, want %s", c.name, procs, got, c.want)
			}
			if n := dep.Group.NumShards(); n != len(c.counters) {
				t.Fatalf("%s: %d shards, want %d", c.name, n, len(c.counters))
			}
			for s, want := range c.counters {
				if got := dep.Group.Shard(s).Counters(); got != want {
					t.Errorf("%s at GOMAXPROCS %d: shard %d counters %+v, want %+v", c.name, procs, s, got, want)
				}
			}
		}
	}
}

// TestBuildMemoryTracksDevices: what a build allocates follows the
// population, not the window. ISP 13 at width 24 places 3,658 devices in
// 2^24 cells and allocates ~7 MB; a per-cell array anywhere in the build
// (a shuffled window, a reserved-cell bitmap) adds 16-128 MB here.
func TestBuildMemoryTracksDevices(t *testing.T) {
	cfg := Config{
		Seed: 1, Scale: 0.0005, WindowWidth: 24, MaxDevicesPerISP: 4000, OnlyISPs: []int{13},
		Hostile: scanHostile(),
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	dep, err := Build(cfg)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	const limit = 16 << 20
	if got := after.TotalAlloc - before.TotalAlloc; got > limit {
		t.Errorf("building %d devices allocated %.1f MB, want <= %d MB",
			len(dep.Devices()), float64(got)/(1<<20), limit>>20)
	}
}

func TestBuildValidation(t *testing.T) {
	if _, err := Build(Config{Seed: 1, Scale: 2}); err == nil {
		t.Error("scale 2 accepted")
	}
	if _, err := Build(Config{Seed: 1, WindowWidth: 2}); err == nil {
		t.Error("window width 2 accepted")
	}
	// A window too small for the population must error.
	if _, err := Build(Config{Seed: 1, Scale: 1.0 / 64, WindowWidth: 8}); err == nil {
		t.Error("over-capacity population accepted")
	}
}

func TestOnlyISPsFilter(t *testing.T) {
	dep, err := Build(Config{Seed: 1, Scale: 0.0001, WindowWidth: 10, MaxDevicesPerISP: 60, OnlyISPs: []int{13}})
	if err != nil {
		t.Fatal(err)
	}
	if len(dep.ISPs) != 1 || dep.ISPs[0].Spec.Index != 13 {
		t.Fatalf("ISPs = %+v", dep.ISPs)
	}
}

// TestShardedBuildMatchesSingle: the same seed built onto a 4-shard
// EngineGroup must expose the identical periphery — a parallel scan
// through the group driver discovers exactly the single-engine
// responder set, with every shard carrying traffic.
func TestShardedBuildMatchesSingle(t *testing.T) {
	scan := func(dep *Deployment, parallel bool) map[ipv6.Addr]bool {
		t.Helper()
		found := map[ipv6.Addr]bool{}
		var mu sync.Mutex
		for _, isp := range dep.ISPs {
			cfg := xmap.Config{Window: isp.Window, Seed: []byte("shard-eq")}
			handler := func(r xmap.Response) {
				mu.Lock()
				found[r.Responder] = true
				mu.Unlock()
			}
			if parallel {
				drv := xmap.NewGroupDriver(dep.Group, dep.Edge)
				if _, err := xmap.ScanParallel(context.Background(), cfg, drv, 4, handler); err != nil {
					t.Fatal(err)
				}
			} else {
				s, err := xmap.New(cfg, xmap.NewSimDriver(dep.Engine, dep.Edge))
				if err != nil {
					t.Fatal(err)
				}
				if _, err := s.Run(context.Background(), handler); err != nil {
					t.Fatal(err)
				}
			}
		}
		return found
	}

	cfg := Config{Seed: 9, Scale: 0.0001, WindowWidth: 8, MaxDevicesPerISP: 30, OnlyISPs: []int{1, 12, 13}}
	single, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Shards = 4
	sharded, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if sharded.Group.NumShards() != 4 {
		t.Fatalf("group has %d shards", sharded.Group.NumShards())
	}

	a, b := scan(single, false), scan(sharded, true)
	for addr := range a {
		if !b[addr] {
			t.Errorf("sharded deployment missing responder %s", addr)
		}
	}
	for addr := range b {
		if !a[addr] {
			t.Errorf("sharded deployment has extra responder %s", addr)
		}
	}
	for s := 0; s < 4; s++ {
		if sharded.Group.Shard(s).Counters().Events == 0 {
			t.Errorf("shard %d processed no events; work not spread", s)
		}
	}
	// Ground truth still resolves on the sharded build.
	for _, dev := range sharded.Devices() {
		if !b[dev.WANAddr] {
			t.Errorf("device %s not discovered on sharded build", dev.WANAddr)
		}
	}
}

// TestShardedBuildValidation: more shards than window chunks is a
// configuration error, not a silent misroute.
func TestShardedBuildValidation(t *testing.T) {
	if _, err := Build(Config{Seed: 1, Scale: 0.0001, WindowWidth: 4, MaxDevicesPerISP: 4, Shards: 32}); err == nil {
		t.Error("32 shards accepted on a 4-bit window")
	}
}

// TestScanDiscoversGeneratedDevices runs the actual scanner against one
// generated ISP end to end.
func TestScanDiscoversGeneratedDevices(t *testing.T) {
	dep, err := Build(Config{Seed: 5, Scale: 0.0001, WindowWidth: 10, MaxDevicesPerISP: 40, OnlyISPs: []int{13}})
	if err != nil {
		t.Fatal(err)
	}
	isp := dep.ISPs[0]
	drv := xmap.NewSimDriver(dep.Engine, dep.Edge)
	s, err := xmap.New(xmap.Config{Window: isp.Window, Seed: []byte("t")}, drv)
	if err != nil {
		t.Fatal(err)
	}
	found := map[ipv6.Addr]bool{}
	if _, err := s.Run(context.Background(), func(r xmap.Response) {
		found[r.Responder] = true
	}); err != nil {
		t.Fatal(err)
	}
	missing := 0
	for _, dev := range isp.Devices {
		if !found[dev.WANAddr] {
			missing++
		}
	}
	if missing != 0 {
		t.Errorf("%d of %d generated devices not discovered", missing, len(isp.Devices))
	}
}

func TestGeneratedServicesReachable(t *testing.T) {
	dep, err := Build(Config{Seed: 7, Scale: 0.0001, WindowWidth: 10, MaxDevicesPerISP: 60, OnlyISPs: []int{13}})
	if err != nil {
		t.Fatal(err)
	}
	var dev *Device
	for _, d := range dep.ISPs[0].Devices {
		if _, ok := d.Services[services.SvcHTTP8080]; ok {
			dev = d
			break
		}
	}
	if dev == nil {
		t.Skip("no device with HTTP-8080 in this sample")
	}
	// SYN to port 8080 must be answered with SYN/ACK through the network.
	syn, err := wire.BuildTCP(ScannerAddr, dev.WANAddr, 64,
		wire.TCPHeader{SrcPort: 40000, DstPort: 8080, Seq: 1, Flags: wire.TCPSyn}, nil)
	if err != nil {
		t.Fatal(err)
	}
	dep.Engine.Inject(dep.Edge.Iface(), syn)
	replies := dep.Edge.DrainInto(nil)
	if len(replies) != 1 {
		t.Fatalf("got %d replies to SYN", len(replies))
	}
	sum, err := wire.ParsePacket(replies[0])
	if err != nil {
		t.Fatal(err)
	}
	if sum.TCP == nil || sum.TCP.Flags&wire.TCPSyn == 0 || sum.TCP.Flags&wire.TCPAck == 0 {
		t.Errorf("reply = %+v", sum)
	}
}

func TestLabRoutersCensus(t *testing.T) {
	routers := LabRouters()
	if len(routers) != 99 {
		t.Fatalf("lab has %d entries, want 99 (95 hardware + 4 OSes)", len(routers))
	}
	hw, oses := 0, 0
	for _, r := range routers {
		if r.IsOS {
			oses++
		} else {
			hw++
		}
		if !r.VulnWAN {
			t.Errorf("%s %s not WAN-vulnerable; all 99 were", r.Brand, r.Model)
		}
	}
	if hw != 95 || oses != 4 {
		t.Errorf("hardware=%d oses=%d", hw, oses)
	}
	// Brand counts match the Table XII footer.
	byBrand := map[string]int{}
	for _, r := range routers {
		if !r.IsOS {
			byBrand[r.Brand]++
		}
	}
	for _, bc := range labCounts {
		if byBrand[bc.brand] != bc.count {
			t.Errorf("brand %s has %d units, want %d", bc.brand, byBrand[bc.brand], bc.count)
		}
	}
	if byBrand["TP-Link"] != 42 {
		t.Errorf("TP-Link = %d", byBrand["TP-Link"])
	}
}

func TestLabLoopBehaviorEndToEnd(t *testing.T) {
	dep, err := BuildLab()
	if err != nil {
		t.Fatal(err)
	}
	// Entry 0 is the ASUS GT-AC5300: WAN vulnerable, LAN immune.
	asus := dep.Entries[0]
	if asus.Router.Brand != "ASUS" {
		t.Fatalf("entry 0 = %s", asus.Router.Brand)
	}

	probeTo := func(dst ipv6.Addr) uint64 {
		before := asus.AccessLink.TotalPackets()
		pkt, err := wire.BuildEchoRequest(ScannerAddr, dst, 255, 1, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		dep.Engine.Inject(dep.Edge.Iface(), pkt)
		dep.Edge.DrainInto(nil)
		return asus.AccessLink.TotalPackets() - before
	}

	// NX address in the WAN /64: loops.
	wanNX := ipv6.SLAAC(asus.WANPrefix, 0xdeadbeef)
	if got := probeTo(wanNX); got < 200 {
		t.Errorf("WAN-prefix probe moved %d packets on access link, want >200", got)
	}
	// Not-used prefix in the delegated /60: immune (responds unreachable).
	lanNX := ipv6.SLAAC(mustSub64(t, asus.Delegated, 9), 0x1234)
	if got := probeTo(lanNX); got > 4 {
		t.Errorf("LAN-prefix probe moved %d packets; ASUS LAN is immune", got)
	}
}

func TestLabLoopCapClass(t *testing.T) {
	dep, err := BuildLab()
	if err != nil {
		t.Fatal(err)
	}
	var xiaomi *LabEntry
	for _, e := range dep.Entries {
		if e.Router.Brand == "Xiaomi" && e.Router.Model == "AX5" {
			xiaomi = e
			break
		}
	}
	if xiaomi == nil {
		t.Fatal("Xiaomi AX5 not in lab")
	}
	before := xiaomi.AccessLink.TotalPackets()
	pkt, err := wire.BuildEchoRequest(ScannerAddr, ipv6.SLAAC(xiaomi.WANPrefix, 0xabcdef), 255, 1, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	dep.Engine.Inject(dep.Edge.Iface(), pkt)
	moved := xiaomi.AccessLink.TotalPackets() - before
	if moved < 10 || moved > 40 {
		t.Errorf("Xiaomi forwarded %d packets, want >10 but bounded", moved)
	}
}

func mustSub64(t *testing.T, p ipv6.Prefix, idx uint64) ipv6.Prefix {
	t.Helper()
	sub, err := p.Sub(64, uint128.From64(idx))
	if err != nil {
		t.Fatal(err)
	}
	return sub
}

func TestBGPUniverseBuilds(t *testing.T) {
	dep, err := BuildBGPUniverse(BGPConfig{Seed: 11, NumASes: 40, WindowWidth: 6, MeanDevices: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(dep.Windows) != len(dep.Table.Adverts) {
		t.Errorf("windows %d != adverts %d", len(dep.Windows), len(dep.Table.Adverts))
	}
	if len(dep.Devices) == 0 {
		t.Fatal("no devices")
	}
	vuln := 0
	for _, d := range dep.Devices {
		if !d.Advert.Prefix.Contains(d.Addr) {
			t.Errorf("device %s outside advert %s", d.Addr, d.Advert.Prefix)
		}
		if e, ok := dep.Geo.Lookup(d.Addr); !ok || e.ASN != d.Advert.ASN {
			t.Errorf("geo lookup for %s inconsistent", d.Addr)
		}
		if d.Vuln {
			vuln++
		}
	}
	if vuln == 0 {
		t.Error("no vulnerable devices generated")
	}
	if vuln == len(dep.Devices) {
		t.Error("every device vulnerable; calibration broken")
	}
}
