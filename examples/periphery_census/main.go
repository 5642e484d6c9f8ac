// Periphery census: the Section IV measurement on a multi-ISP
// deployment — subnet-boundary inference first, then the window scan,
// then the Table II/III-style census of who answered and how their
// addresses are formed.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/analysis"
	"repro/internal/ipv6"
	"repro/internal/report"
	"repro/internal/subnet"
	"repro/internal/topo"
	"repro/internal/xmap"
)

var seed = flag.Int64("seed", 11, "simulation seed (same seed, same output)")

func main() {
	flag.Parse()
	if err := run(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "periphery_census:", err)
		os.Exit(1)
	}
}

func run(out io.Writer) error {
	// Three contrasting ISPs: an Indian /64-boundary mobile carrier, a
	// US /56 broadband provider, and a Chinese /60 broadband provider.
	dep, err := topo.Build(topo.Config{
		Seed:             *seed,
		Scale:            0.001,
		WindowWidth:      10,
		MaxDevicesPerISP: 200,
		OnlyISPs:         []int{3, 5, 13},
	})
	if err != nil {
		return err
	}
	drv := xmap.NewSimDriver(dep.Engine, dep.Edge)

	// Step 1 (Section IV-A): infer each block's delegation boundary by
	// bit-flipping around a discovered periphery.
	fmt.Fprintln(out, "== Subnet boundary inference ==")
	for _, isp := range dep.ISPs {
		res, err := subnet.Infer(drv, isp.Window.Base, subnet.Options{Seed: *seed, MaxPreliminary: 8192})
		if err != nil {
			fmt.Fprintf(out, "  %-16s inference failed: %v\n", isp.Spec.Name, err)
			continue
		}
		fmt.Fprintf(out, "  %-16s inferred /%d (paper says /%d; samples %v)\n",
			isp.Spec.Name, res.Length, isp.Spec.DelegLen, res.Samples)
	}

	// Step 2 (Section IV-E): scan every window and enrich the results.
	var recs []*analysis.PeripheryRecord
	for _, isp := range dep.ISPs {
		scanner, err := xmap.New(xmap.Config{
			Window:     isp.Window,
			Seed:       []byte(fmt.Sprintf("census-%d", *seed)),
			DedupExact: true,
		}, drv)
		if err != nil {
			return err
		}
		index := isp.Spec.Index
		if _, err := scanner.Run(context.Background(), func(r xmap.Response) {
			recs = append(recs, analysis.Enrich(r, dep.OUI, index))
		}); err != nil {
			return err
		}
	}

	// Step 3: the census tables.
	fmt.Fprintln(out, "\n== Discovery census (Table II shape) ==")
	t := report.Table{Headers: []string{"P", "ISP", "LastHops", "%same", "%diff", "EUI-64 %"}}
	for _, row := range analysis.BuildTableII(recs) {
		name := ""
		for _, isp := range dep.ISPs {
			if isp.Spec.Index == row.ISPIndex {
				name = isp.Spec.Name
			}
		}
		t.AddRow(fmt.Sprintf("%d", row.ISPIndex), name, report.Count(row.UniqueHops),
			report.Pct(row.SamePct), report.Pct(row.DiffPct), report.Pct(row.EUI64Pct))
	}
	fmt.Fprint(out, t.String())

	fmt.Fprintln(out, "\n== IID mix (Table III shape) ==")
	dist := analysis.BuildTableIII(recs)
	it := report.Table{Headers: []string{"Class", "Count", "%"}}
	for _, c := range []ipv6.IIDClass{ipv6.IIDEUI64, ipv6.IIDLowByte, ipv6.IIDEmbedIPv4, ipv6.IIDBytePattern, ipv6.IIDRandomized} {
		it.AddRow(c.String(), report.Count(dist.Counts[c]), report.Pct(dist.Pct(c)))
	}
	fmt.Fprint(out, it.String())

	// Step 4: hardware attribution through embedded MAC addresses.
	fmt.Fprintln(out, "\n== EUI-64 vendor attribution ==")
	shown := 0
	for _, rec := range recs {
		if rec.VendorHW == "" || shown >= 8 {
			continue
		}
		fmt.Fprintf(out, "  %-40s MAC %s -> %s\n", rec.Addr, rec.MAC, rec.VendorHW)
		shown++
	}
	return nil
}
