// Routing loop: the Section VI study — sweep an ISP for the flawed
// routing implementation with the h / h+2 method, then measure the DoS
// amplification one crafted packet achieves on a victim access link, and
// finally run the Table XII lab test on the 99 modelled routers.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/ipv6"
	"repro/internal/loopscan"
	"repro/internal/report"
	"repro/internal/topo"
	"repro/internal/uint128"
	"repro/internal/xmap"
)

var seed = flag.Int64("seed", 17, "simulation seed (same seed, same output)")

func main() {
	flag.Parse()
	if err := run(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "routing_loop:", err)
		os.Exit(1)
	}
}

func run(out io.Writer) error {
	// China Unicom broadband: 78.9% of its last hops loop (Table XI).
	dep, err := topo.Build(topo.Config{
		Seed:             *seed,
		Scale:            0.0005,
		WindowWidth:      10,
		MaxDevicesPerISP: 300,
		OnlyISPs:         []int{12},
	})
	if err != nil {
		return err
	}
	isp := dep.ISPs[0]
	drv := xmap.NewSimDriver(dep.Engine, dep.Edge)

	// Step 1: the measurement sweep (hop limit 32, then 32+2 to confirm).
	det := loopscan.NewDetector(drv)
	res, err := det.ScanWindows([]ipv6.Window{isp.Window}, []byte(fmt.Sprintf("loop-example-%d", *seed)))
	if err != nil {
		return err
	}
	vuln := res.VulnerableHops()
	fmt.Fprintf(out, "swept %d sub-prefixes: %d responses, %d loop-vulnerable last hops\n",
		res.Targets, res.Responses, len(vuln))

	// Step 2: amplification on one victim. A single spoofable packet
	// with hop limit 255 ping-pongs on the subscriber link until the
	// hop limit dies: the paper's >200x amplifier.
	var victim *topo.Device
	for _, d := range isp.Devices {
		if d.VulnLAN {
			victim = d
			break
		}
	}
	if victim == nil {
		return fmt.Errorf("no vulnerable device generated")
	}
	notUsed := ipv6.SLAAC(pickNotUsed(victim), 0xbad0_cafe_0001)
	amp, err := loopscan.MeasureAmplification(drv, notUsed, victim.AccessLink)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "\none attack packet to %s:\n", notUsed)
	fmt.Fprintf(out, "  access link carried %d packets (%d bytes) -> amplification factor %.0fx\n",
		amp.LinkPackets, amp.LinkBytes, amp.Factor)

	// Step 3: a short flood to show the link-saturation effect.
	atk, err := loopscan.Attack(drv, []ipv6.Addr{notUsed}, 50, victim.AccessLink)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "  50-packet flood moved %d packets on the victim link (%.0fx)\n",
		atk.LinkPackets, atk.Factor)

	// Step 4: the Table XII lab — every modelled router, latest
	// firmware, loop-tested on WAN and LAN prefixes.
	lab, err := topo.BuildLab()
	if err != nil {
		return err
	}
	labDrv := xmap.NewSimDriver(lab.Engine, lab.Edge)
	t := report.Table{
		Title:   "\nLab routers (Table XII shape, named models)",
		Headers: []string{"Brand", "Model", "WAN", "LAN", "LoopTimes"},
	}
	vulnCount := 0
	for _, e := range lab.Entries {
		wan, err := loopscan.MeasureAmplification(labDrv, ipv6.SLAAC(e.WANPrefix, 0x1), e.AccessLink)
		if err != nil {
			return err
		}
		lanSub, err := e.Delegated.Sub(64, maxSub64(e.Delegated))
		if err != nil {
			return err
		}
		lan, err := loopscan.MeasureAmplification(labDrv, ipv6.SLAAC(lanSub, 0x2), e.AccessLink)
		if err != nil {
			return err
		}
		if wan.LinkPackets > 4 || lan.LinkPackets > 4 {
			vulnCount++
		}
		if e.Router.Firmware != "latest-2020-12" { // the named Table XII rows
			t.AddRow(e.Router.Brand, e.Router.Model,
				mark(wan.LinkPackets > 4), mark(lan.LinkPackets > 4),
				fmt.Sprintf("%d", wan.LinkPackets))
		}
	}
	fmt.Fprint(out, t.String())
	fmt.Fprintf(out, "%d of %d lab routers vulnerable (the paper: all 99)\n", vulnCount, len(lab.Entries))
	return nil
}

func mark(v bool) string {
	if v {
		return "vulnerable"
	}
	return "immune"
}

// pickNotUsed returns a delegated /64 that is neither the WAN /64 nor an
// in-use subnet — the attack surface of Figure 4.
func pickNotUsed(d *topo.Device) ipv6.Prefix {
	deleg := d.CPE.Delegated()
	n, _ := deleg.NumSub(64)
	for i := n.Sub64(1); ; i = i.Sub64(1) {
		sub, err := deleg.Sub(64, i)
		if err != nil {
			continue
		}
		if !sub.Contains(d.WANAddr) {
			return sub
		}
	}
}

func maxSub64(p ipv6.Prefix) uint128.Uint128 {
	n, _ := p.NumSub(64)
	return n.Sub64(1)
}
