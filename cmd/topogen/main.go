// Command topogen generates a simulated deployment and prints its
// inventory: ISP blocks, scan windows, device populations, vendor and
// IID mixes, service exposure and loop-vulnerability ground truth. It is
// the inspection tool for the substrate every other command scans.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"repro/internal/ipv6"
	"repro/internal/report"
	"repro/internal/services"
	"repro/internal/topo"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "topogen:", err)
		os.Exit(1)
	}
}

// run executes one CLI invocation. Flags live on a private FlagSet and
// all output goes through the writer arguments, so tests drive the
// command end to end without process-global state.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("topogen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		seed   = fs.Int64("seed", 1, "generation seed")
		scale  = fs.Float64("scale", 0.0005, "population scale relative to the paper")
		width  = fs.Int("width", 12, "scan window width in bits")
		maxDev = fs.Int("max-devices", 4000, "cap on devices per ISP")
		full   = fs.Bool("devices", false, "also dump every device")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	dep, err := topo.Build(topo.Config{
		Seed: *seed, Scale: *scale, WindowWidth: *width, MaxDevicesPerISP: *maxDev,
	})
	if err != nil {
		return err
	}

	t := report.Table{
		Title: "Generated deployment",
		Headers: []string{"P", "ISP", "Cty", "Net", "Block", "Window",
			"Devices", "UE", "EUI-64", "Loop", "Svc"},
	}
	for _, isp := range dep.ISPs {
		var ue, eui, loop, svc int
		for _, d := range isp.Devices {
			if d.IsUE {
				ue++
			}
			if d.Class == ipv6.IIDEUI64 {
				eui++
			}
			if d.Vulnerable() {
				loop++
			}
			if len(d.Services) > 0 {
				svc++
			}
		}
		t.AddRow(
			fmt.Sprintf("%d", isp.Spec.Index), isp.Spec.Name, isp.Spec.Country,
			isp.Spec.Network.String(), isp.Block.String(), isp.Window.String(),
			report.Count(len(isp.Devices)), report.Count(ue),
			report.Count(eui), report.Count(loop), report.Count(svc),
		)
	}
	fmt.Fprint(stdout, t.String())

	// Vendor census across the deployment.
	vendors := map[string]int{}
	for _, d := range dep.Devices() {
		vendors[d.Vendor]++
	}
	names := make([]string, 0, len(vendors))
	for v := range vendors {
		names = append(names, v)
	}
	sort.Slice(names, func(i, j int) bool {
		if vendors[names[i]] != vendors[names[j]] {
			return vendors[names[i]] > vendors[names[j]]
		}
		return names[i] < names[j]
	})
	vt := report.Table{Title: "\nVendor mix", Headers: []string{"Vendor", "Devices"}}
	for _, v := range names {
		vt.AddRow(v, report.Count(vendors[v]))
	}
	fmt.Fprint(stdout, vt.String())

	if *full {
		dt := report.Table{
			Title:   "\nDevices",
			Headers: []string{"ISP", "WAN address", "Vendor", "IID", "Loop", "Services"},
		}
		for _, d := range dep.Devices() {
			loop := ""
			if d.VulnWAN {
				loop += "W"
			}
			if d.VulnLAN {
				loop += "L"
			}
			var svcs string
			for _, svc := range services.All {
				if _, ok := d.Services[svc]; ok {
					if svcs != "" {
						svcs += ","
					}
					svcs += svc.String()
				}
			}
			dt.AddRow(fmt.Sprintf("%d", d.Spec.Index), d.WANAddr.String(),
				d.Vendor, d.Class.String(), loop, svcs)
		}
		fmt.Fprint(stdout, dt.String())
	}
	return nil
}
