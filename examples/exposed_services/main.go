// Exposed services: the Section V study — discover peripheries, probe
// the eight Table VI services on each, and report the open resolvers,
// reachable management pages and lagging software versions with their
// CVE exposure.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/analysis"
	"repro/internal/registry"
	"repro/internal/report"
	"repro/internal/services"
	"repro/internal/topo"
	"repro/internal/xmap"
	"repro/internal/zgrab"
)

var seed = flag.Int64("seed", 13, "simulation seed (same seed, same output)")

func main() {
	flag.Parse()
	if err := run(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "exposed_services:", err)
		os.Exit(1)
	}
}

func run(out io.Writer) error {
	// China Unicom broadband: the second-most-exposed ISP in Table VII
	// (24.6% of peripheries answer at least one service).
	dep, err := topo.Build(topo.Config{
		Seed:             *seed,
		Scale:            0.001,
		WindowWidth:      11,
		MaxDevicesPerISP: 400,
		OnlyISPs:         []int{12},
	})
	if err != nil {
		return err
	}
	isp := dep.ISPs[0]
	drv := xmap.NewSimDriver(dep.Engine, dep.Edge)

	// Discovery scan.
	scanner, err := xmap.New(xmap.Config{
		Window: isp.Window, Seed: []byte(fmt.Sprintf("svc-%d", *seed)), DedupExact: true,
	}, drv)
	if err != nil {
		return err
	}
	var recs []*analysis.PeripheryRecord
	if _, err := scanner.Run(context.Background(), func(r xmap.Response) {
		recs = append(recs, analysis.Enrich(r, dep.OUI, isp.Spec.Index))
	}); err != nil {
		return err
	}
	counts := scanner.ResponderCounts()
	fmt.Fprintf(out, "discovered %d last hops in %s\n", len(recs), isp.Window)

	// Application-layer probing, one service at a time per target, as
	// the paper's ethics section requires.
	prober := zgrab.New(drv)
	var peripheries []*analysis.PeripheryRecord
	for _, rec := range recs {
		if counts[rec.Addr] >= 4 {
			continue // provider infrastructure, not a periphery
		}
		grab, err := prober.ProbeDevice(rec.Addr, nil)
		if err != nil {
			return err
		}
		rec.AttachGrab(grab)
		peripheries = append(peripheries, rec)
	}

	rows := analysis.BuildTableVII(peripheries)
	t := report.Table{
		Title:   "Exposure census",
		Headers: []string{"Service", "Alive", "%"},
	}
	for _, row := range rows {
		for _, svc := range services.All {
			t.AddRow(svc.String(), report.Count(row.Alive[svc]), report.Pct(row.Pct(svc)))
		}
		t.AddRow("Total", report.Count(row.Total), report.Pct(row.TotalPct()))
	}
	fmt.Fprint(out, t.String())

	// The open-resolver story: DNS forwarders answering arbitrary
	// Internet clients, mostly running years-old dnsmasq.
	fmt.Fprintln(out, "\nOpen DNS resolvers (abusable for DDoS reflection, cache snooping):")
	for _, rec := range peripheries {
		res, ok := rec.Grab.Results[services.SvcDNS]
		if !ok || !res.Alive {
			continue
		}
		fmt.Fprintf(out, "  %-40s %s (%d known CVEs)\n", rec.Addr, res.Software, registry.CVECount(res.Software))
	}

	// Management pages reachable from the whole IPv6 Internet.
	loginPages := 0
	for _, rec := range peripheries {
		if res, ok := rec.Grab.Results[services.SvcHTTP80]; ok && res.LoginPage {
			loginPages++
		}
	}
	fmt.Fprintf(out, "\nweb management login pages reachable from the Internet: %d\n", loginPages)

	// Software-version census with CVE annotations.
	fmt.Fprintln(out, "\nSoftware census (Table VIII shape):")
	sw := analysis.BuildTableVIII(peripheries)
	st := report.Table{Headers: []string{"Service", "Software", "Devices", "CVEs"}}
	for _, svc := range services.All {
		for _, sc := range sw[svc] {
			st.AddRow(svc.String(), sc.Software, report.Count(sc.Count), fmt.Sprintf("%d", sc.CVEs))
		}
	}
	fmt.Fprint(out, st.String())
	return nil
}
