// Command loopscan reproduces the Section VI routing-loop measurement:
// sweep one ISP window (or the whole BGP universe) with the h / h+2
// hop-limit method and report the vulnerable population.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"repro/internal/analysis"
	"repro/internal/ipv6"
	"repro/internal/loopscan"
	"repro/internal/report"
	"repro/internal/telemetry"
	"repro/internal/topo"
	"repro/internal/xmap"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "loopscan:", err)
		os.Exit(1)
	}
}

// run executes one CLI invocation. Flags live on a private FlagSet and
// all output goes through the writer arguments, so tests drive the
// command end to end without process-global state.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("loopscan", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		mode     = fs.String("mode", "isp", "isp: sweep one ISP window; bgp: sweep advertised prefixes")
		ispIndex = fs.Int("isp", 12, "ISP index for -mode isp")
		seed     = fs.Int64("seed", 1, "deployment seed")
		scale    = fs.Float64("scale", 0.0005, "population scale (isp mode)")
		width    = fs.Int("width", 12, "window width in bits (isp mode)")
		maxDev   = fs.Int("max-devices", 2000, "device cap per ISP (isp mode)")
		bgpASes  = fs.Int("ases", 200, "AS count (bgp mode)")
		hopLimit = fs.Int("hop-limit", loopscan.DefaultHopLimit, "probe hop limit h")
		statusF  = fs.String("status-json", "", "write the sweep's telemetry snapshot as JSON to this file ('-' for stderr)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	switch *mode {
	case "isp":
		return runISP(*ispIndex, *seed, *scale, *width, *maxDev, uint8(*hopLimit), *statusF, stdout, stderr)
	case "bgp":
		return runBGP(*seed, *bgpASes, uint8(*hopLimit), *statusF, stdout, stderr)
	default:
		return fmt.Errorf("unknown mode %q", *mode)
	}
}

// attachTelemetry gives the detector a registry when -status-json asks
// for one; writeStatus emits the snapshot afterwards.
func attachTelemetry(det *loopscan.Detector, drv *xmap.SimDriver, statusF string) *telemetry.Registry {
	if statusF == "" {
		return nil
	}
	reg := telemetry.New(telemetry.Options{Shards: 1})
	drv.RegisterTelemetry(reg)
	det.Tel = reg.Shard(0)
	return reg
}

func writeStatus(reg *telemetry.Registry, statusF string, stderr io.Writer) error {
	if reg == nil {
		return nil
	}
	if statusF == "-" {
		return reg.WriteJSON(stderr)
	}
	fh, err := os.Create(statusF)
	if err != nil {
		return err
	}
	if err := reg.WriteJSON(fh); err != nil {
		fh.Close()
		return err
	}
	return fh.Close()
}

func runISP(ispIndex int, seed int64, scale float64, width, maxDev int, h uint8, statusF string, stdout, stderr io.Writer) error {
	dep, err := topo.Build(topo.Config{
		Seed: seed, Scale: scale, WindowWidth: width,
		MaxDevicesPerISP: maxDev, OnlyISPs: []int{ispIndex},
	})
	if err != nil {
		return err
	}
	isp := dep.ISPs[0]
	drv := xmap.NewSimDriver(dep.Engine, dep.Edge)
	det := loopscan.NewDetector(drv)
	det.HopLimit = h
	reg := attachTelemetry(det, drv, statusF)
	res, err := det.ScanWindows([]ipv6.Window{isp.Window}, []byte(fmt.Sprintf("cli-%d", seed)))
	if err != nil {
		return err
	}
	if err := writeStatus(reg, statusF, stderr); err != nil {
		return err
	}
	vuln := res.VulnerableHops()
	sort.Slice(vuln, func(i, j int) bool { return vuln[i].Addr.Less(vuln[j].Addr) })

	fmt.Fprintf(stdout, "ISP %d (%s), window %s: %d targets, %d responses, %d loop-vulnerable last hops\n",
		isp.Spec.Index, isp.Spec.Name, isp.Window, res.Targets, res.Responses, len(vuln))
	var same, diff int
	t := report.Table{Headers: []string{"Last hop", "IID class", "same", "diff"}}
	for _, hop := range vuln {
		same += hop.SameCount
		diff += hop.DiffCount
		t.AddRow(hop.Addr.String(), ipv6.Classify(hop.Addr).String(),
			fmt.Sprintf("%d", hop.SameCount), fmt.Sprintf("%d", hop.DiffCount))
	}
	fmt.Fprint(stdout, t.String())
	if same+diff > 0 {
		fmt.Fprintf(stdout, "loop replies: %.1f%% same /64, %.1f%% diff\n",
			100*float64(same)/float64(same+diff), 100*float64(diff)/float64(same+diff))
	}
	return nil
}

func runBGP(seed int64, ases int, h uint8, statusF string, stdout, stderr io.Writer) error {
	dep, err := topo.BuildBGPUniverse(topo.BGPConfig{Seed: seed, NumASes: ases})
	if err != nil {
		return err
	}
	drv := xmap.NewSimDriver(dep.Engine, dep.Edge)
	det := loopscan.NewDetector(drv)
	det.HopLimit = h
	reg := attachTelemetry(det, drv, statusF)
	res, err := det.ScanWindows(dep.Windows, []byte(fmt.Sprintf("cli-bgp-%d", seed)))
	if err != nil {
		return err
	}
	if err := writeStatus(reg, statusF, stderr); err != nil {
		return err
	}
	summary := analysis.BuildTableIX(res, dep.Geo)
	t := report.Table{
		Title:   "BGP-universe loop sweep",
		Headers: []string{"Last Hops", "# unique", "# ASN", "# Country"},
	}
	t.AddRow("Total", report.Count(summary.TotalHops), report.Count(summary.TotalASNs), report.Count(summary.TotalCountry))
	t.AddRow("with Routing Loop", report.Count(summary.LoopHops), report.Count(summary.LoopASNs), report.Count(summary.LoopCountries))
	fmt.Fprint(stdout, t.String())

	fig := analysis.BuildFigure5(res, dep.Geo, 10)
	labels := make([]string, 0, len(fig.TopCountries))
	values := make([]int, 0, len(fig.TopCountries))
	for _, r := range fig.TopCountries {
		labels = append(labels, r.Label)
		values = append(values, r.Count)
	}
	fmt.Fprint(stdout, (report.Bars{Title: "\nTop loop countries", Width: 30}).Render(labels, values))
	return nil
}
