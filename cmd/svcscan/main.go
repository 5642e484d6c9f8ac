// Command svcscan reproduces the Section V measurement on one ISP:
// discover peripheries with the scanner, probe the eight Table VI
// services on each, and print the exposure and software-version census.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/analysis"
	"repro/internal/report"
	"repro/internal/services"
	"repro/internal/topo"
	"repro/internal/xmap"
	"repro/internal/zgrab"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "svcscan:", err)
		os.Exit(1)
	}
}

// run executes one CLI invocation. Flags live on a private FlagSet and
// all output goes through the writer arguments, so tests drive the
// command end to end without process-global state.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("svcscan", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		ispIndex = fs.Int("isp", 13, "Table I ISP index to scan (1-15)")
		seed     = fs.Int64("seed", 1, "deployment seed")
		scale    = fs.Float64("scale", 0.0005, "population scale")
		width    = fs.Int("width", 12, "window width in bits")
		maxDev   = fs.Int("max-devices", 2000, "cap on devices per ISP")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	return census(topo.Config{
		Seed: *seed, Scale: *scale, WindowWidth: *width,
		MaxDevicesPerISP: *maxDev, OnlyISPs: []int{*ispIndex},
	}, stdout)
}

// census builds the one-ISP deployment cfg describes, discovers its
// peripheries, probes their services and prints both tables.
func census(cfg topo.Config, stdout io.Writer) error {
	dep, err := topo.Build(cfg)
	if err != nil {
		return err
	}
	isp := dep.ISPs[0]
	drv := xmap.NewSimDriver(dep.Engine, dep.Edge)

	scanner, err := xmap.New(xmap.Config{
		Window:     isp.Window,
		Seed:       []byte(fmt.Sprintf("svcscan-%d", cfg.Seed)),
		DedupExact: true,
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

	prober := zgrab.New(drv)
	var peripheries []*analysis.PeripheryRecord
	for _, rec := range recs {
		if counts[rec.Addr] >= 4 {
			continue // infrastructure
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
		Title:   fmt.Sprintf("Service exposure for ISP %d (%s)", isp.Spec.Index, isp.Spec.Name),
		Headers: []string{"Service", "Alive", "% of peripheries"},
	}
	for _, row := range rows {
		for _, svc := range services.All {
			t.AddRow(svc.String(), report.Count(row.Alive[svc]), report.Pct(row.Pct(svc)))
		}
		t.AddRow("Total (>=1)", report.Count(row.Total), report.Pct(row.TotalPct()))
	}
	fmt.Fprint(stdout, t.String())

	sw := analysis.BuildTableVIII(peripheries)
	st := report.Table{
		Title:   "\nSoftware census",
		Headers: []string{"Service", "Software", "Devices", "CVEs"},
	}
	for _, svc := range services.All {
		for _, sc := range sw[svc] {
			st.AddRow(svc.String(), sc.Software, report.Count(sc.Count), fmt.Sprintf("%d", sc.CVEs))
		}
	}
	fmt.Fprint(stdout, st.String())
	return nil
}
