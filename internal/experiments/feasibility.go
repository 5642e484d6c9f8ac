package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"repro/internal/edgy"
	"repro/internal/ipv6"
	"repro/internal/report"
	"repro/internal/tga"
	"repro/internal/topo"
	"repro/internal/uint128"
	"repro/internal/xmap"
)

// Feasibility renders the Section III-B analysis: the scan-time
// arithmetic behind "one 1 Gbps scanner could probe all /64 sub-prefixes
// (2^40) in 8 days and all /60 sub-prefixes (2^36) in 14 hours", plus an
// empirical efficiency comparison of the periphery scan against the two
// related-work approaches implemented here (traceroute-based discovery
// and seed-trained target generation).
func (s *Suite) Feasibility() (string, error) {
	var b strings.Builder
	b.WriteString("Section III-B scanning feasibility\n\n")

	// The paper's arithmetic. A 1 Gbps scanner moves ~1.4M minimal
	// probes per second (the ZMap figure); the paper's own vantage ran
	// at 25 kpps.
	rows := report.Table{Headers: []string{"Space", "Sub-prefixes", "1 Gbps (~1.4 Mpps)", "25 kpps (paper vantage)"}}
	for _, c := range []struct {
		label string
		bits  uint
	}{
		{"/24 block at /56 boundary", 32},
		{"/24 block at /64 boundary", 40},
		{"/28 block at /60 boundary", 32},
		{"/32 block at /64 boundary", 32},
		{"all /60s of a /24", 36},
	} {
		n := uint64(1) << c.bits
		fast := time.Duration(float64(n) / 1_400_000 * float64(time.Second))
		slow := time.Duration(float64(n) / 25_000 * float64(time.Second))
		rows.AddRow(c.label, fmt.Sprintf("2^%d", c.bits), fast.Round(time.Minute).String(), slow.Round(time.Hour).String())
	}
	b.WriteString(rows.String())
	b.WriteString("(brute-forcing one /64's IID space at 1 Gbps: >400 years — the search the\n unreachable-message technique reduces to a single probe)\n\n")

	// Empirical method comparison on one populated block.
	dep, err := topo.Build(topo.Config{
		Seed: s.opts.Seed + 41, Scale: 0.0005, WindowWidth: 10,
		MaxDevicesPerISP: 250, OnlyISPs: []int{13},
	})
	if err != nil {
		return "", err
	}
	isp := dep.ISPs[0]
	drv := xmap.NewSimDriver(dep.Engine, dep.Edge)
	budget, _ := isp.Window.Size()

	cmp := report.Table{Headers: []string{"Method", "Probes", "Peripheries", "Probes/periphery"}}

	// XMap periphery scan.
	scanner, err := xmap.New(xmap.Config{Window: isp.Window, Seed: []byte("feas")}, drv)
	if err != nil {
		return "", err
	}
	xmapFound := map[ipv6.Addr]bool{}
	stats, err := scanner.Run(context.Background(), func(r xmap.Response) {
		if _, ok := dep.DeviceByWAN(r.Responder); ok {
			xmapFound[r.Responder] = true
		}
	})
	if err != nil {
		return "", err
	}
	cmp.AddRow("XMap periphery scan", report.Count(int(stats.Sent)),
		report.Count(len(xmapFound)), perHop(int(stats.Sent), len(xmapFound)))

	// Traceroute baseline over the same targets.
	tracer := edgy.NewTracer(drv)
	var targets []ipv6.Addr
	for i := uint64(0); i < budget.Lo; i++ {
		sub, err := isp.Window.Sub(uint128.From64(i))
		if err != nil {
			return "", err
		}
		targets = append(targets, ipv6.SLAAC(sub, 0x6AAA_0000|i))
	}
	census, err := tracer.Discover(targets)
	if err != nil {
		return "", err
	}
	tracePeris := 0
	for addr := range census.LastHops {
		if _, ok := dep.DeviceByWAN(addr); ok {
			tracePeris++
		}
	}
	cmp.AddRow("traceroute last-hop [77]", report.Count(census.Probes),
		report.Count(tracePeris), perHop(census.Probes, tracePeris))

	// Seed-trained target generation with the same probe budget.
	var seeds []ipv6.Addr
	for i, d := range isp.Devices {
		if i >= len(isp.Devices)/10 {
			break
		}
		seeds = append(seeds, d.WANAddr)
	}
	model, err := tga.Train(seeds)
	if err != nil {
		return "", err
	}
	rng := rand.New(rand.NewSource(s.opts.Seed))
	tgaFound := map[ipv6.Addr]bool{}
	tgaProbes := 0
	ping := xmap.NewEchoExchange(drv, 64, func(ipv6.Addr) uint32 { return 0x761a_0001 })
	for _, cand := range model.Generate(rng, int(budget.Lo)) {
		r, ok, err := ping.Ping(cand)
		if err != nil {
			return "", err
		}
		tgaProbes++
		if _, wan := dep.DeviceByWAN(r.Responder); ok && wan {
			tgaFound[r.Responder] = true
		}
	}
	cmp.AddRow(fmt.Sprintf("TGA (seeded with %d addrs)", len(seeds)),
		report.Count(tgaProbes), report.Count(len(tgaFound)), perHop(tgaProbes, len(tgaFound)))

	b.WriteString(cmp.String())
	b.WriteString(fmt.Sprintf("(ground truth: %d peripheries in the block)\n", len(isp.Devices)))
	return b.String(), nil
}

func perHop(probes, hops int) string {
	if hops == 0 {
		return "-"
	}
	return fmt.Sprintf("%.1f", float64(probes)/float64(hops))
}
