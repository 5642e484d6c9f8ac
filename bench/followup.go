package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"sort"
	"time"

	"repro/internal/ipv6"
	"repro/internal/loopscan"
	"repro/internal/subnet"
	"repro/internal/topo"
	"repro/internal/xmap"
	"repro/internal/zgrab"
)

// infraThreshold is cmd/svcscan's rule: a responder that answered for
// this many targets is provider infrastructure, not a periphery.
const infraThreshold = 4

// runFollowup executes one rep of the paper's other three measurements
// over a 15-ISP deployment: sub-prefix length inference per block,
// eight-service application probing per discovered periphery, and the
// routing-loop sweep per window. Discovery runs first and is not timed;
// one op is one discovered periphery.
func (e *env) runFollowup(rec *recorder) (repResult, error) {
	var res repResult
	runtime.GC()

	setupStart := time.Now()
	endSetup := rec.open(spSetup)
	endBuild := rec.open(spTopoBuild)
	dep, err := topo.Build(e.topoConfig(scanSpec{width: e.sz.followWidth}))
	endBuild()
	if err != nil {
		return res, err
	}
	buildS := time.Since(setupStart).Seconds()
	sim := xmap.NewSimDriver(dep.Engine, dep.Edge)
	endSetup()
	res.setupS = time.Since(setupStart).Seconds()
	var heapMB float64
	if rec != nil {
		heapMB = heapInuseMB()
	}

	// Discovery, untimed: each window scanned once with exact dedup, the
	// way cmd/svcscan separates peripheries from infrastructure.
	found := make([][]ipv6.Addr, len(dep.ISPs))
	for i, isp := range dep.ISPs {
		scanner, err := xmap.New(xmap.Config{Window: isp.Window, Seed: cliSeed(e.seed), DedupExact: true}, sim)
		if err != nil {
			return res, err
		}
		var responders []ipv6.Addr
		if _, err := scanner.Run(context.Background(), func(r xmap.Response) {
			responders = append(responders, r.Responder)
		}); err != nil {
			return res, err
		}
		counts := scanner.ResponderCounts()
		for _, a := range responders {
			if counts[a] < infraThreshold {
				found[i] = append(found[i], a)
			}
		}
		res.ops += uint64(len(found[i]))
	}
	if res.ops == 0 {
		return res, fmt.Errorf("discovery found no periphery")
	}

	before := dep.Group.Counters()
	drv := &countingPacketDriver{d: sim, rec: rec}
	var (
		t0                    totals
		inferred, exact       int
		aliveFound, aliveTrue int
		vulnFound, vulnTrue   int
		loopTargets           uint64
		items                 []string // everything the tools reported, for the golden hash
	)
	if rec != nil {
		t0 = rec.totals()
	}
	endScan := rec.open(spScan)
	cpu0, wall0 := cpuTime(), time.Now()
	for i, isp := range dep.ISPs {
		if len(found[i]) >= e.sz.minInferHits {
			s := rec.now()
			r, err := subnet.Infer(drv, isp.Window.Base, subnet.Options{Seed: e.seed, MaxPreliminary: 8192})
			rec.child(spSubnet, s)
			if err != nil {
				res.failed++
			} else {
				inferred++
				if r.Length == isp.Spec.DelegLen {
					exact++
				}
				items = append(items, fmt.Sprintf("len %d /%d", isp.Spec.Index, r.Length))
			}
		}
		prober := zgrab.New(drv)
		for _, addr := range found[i] {
			s := rec.now()
			grab, err := prober.ProbeDevice(addr, nil)
			rec.child(spZgrab, s)
			if err != nil {
				res.failed++
				continue
			}
			dev, planted := dep.DeviceByWAN(addr)
			for svc, sr := range grab.Results {
				if !sr.Alive {
					continue
				}
				aliveFound++
				if planted {
					if _, ok := dev.Services[svc]; ok {
						aliveTrue++
					}
				}
				items = append(items, fmt.Sprintf("svc %s %d", addr, svc))
			}
		}
		s := rec.now()
		sweep, err := loopscan.NewDetector(drv).ScanWindows([]ipv6.Window{isp.Window}, cliSeed(e.seed))
		rec.child(spLoopscan, s)
		if err != nil {
			res.failed++
			continue
		}
		loopTargets += sweep.Targets
		for _, hop := range sweep.VulnerableHops() {
			vulnFound++
			if dev, ok := dep.DeviceByWAN(hop.Addr); ok && dev.Vulnerable() {
				vulnTrue++
			}
			items = append(items, fmt.Sprintf("loop %s", hop.Addr))
		}
	}
	wall, cpu := time.Since(wall0), cpuTime()-cpu0
	endScan()

	// Ground truth: every device's delegation lies in its ISP's window, so
	// every planted service and loop flaw is in reach of the pipeline.
	services, vulnerable := 0, 0
	for _, d := range dep.Devices() {
		services += len(d.Services)
		if d.Vulnerable() {
			vulnerable++
		}
	}
	res.wallNs, res.cpuNs = float64(wall), float64(cpu)
	res.sent, res.targets = drv.sent, res.ops
	res.unique = uint64(len(items))
	res.recall, res.precision = 1, 1
	if services+vulnerable > 0 {
		res.recall = float64(aliveTrue+vulnTrue) / float64(services+vulnerable)
	}
	if n := aliveFound + vulnFound + inferred; n > 0 {
		res.precision = float64(aliveTrue+vulnTrue+exact) / float64(n)
	}
	sort.Strings(items)
	h := sha256.New()
	for _, it := range items {
		fmt.Fprintln(h, it)
	}
	res.setSHA = hex.EncodeToString(h.Sum(nil))

	if rec != nil {
		ops := float64(res.ops)
		d := rec.totals().sub(t0)
		l := map[string]float64{
			"topo.build_s":             buildS,
			"topo.heap_mb":             heapMB,
			"netsim.send_ns_per_op":    float64(d.sum[spSend]) / ops,
			"netsim.recv_ns_per_op":    float64(d.sum[spRecv]) / ops,
			"xmap.drain_calls_per_kop": float64(d.count[spRecv]) / ops * 1000,
			"zgrab.us_per_device":      float64(d.sum[spZgrab]) / ops / 1e3,
			"loopscan.us_per_target":   float64(d.sum[spLoopscan]) / float64(loopTargets) / 1e3,
		}
		if inferred > 0 {
			l["subnet.us_per_block"] = float64(d.sum[spSubnet]) / float64(inferred) / 1e3
			l["subnet.exact_share"] = float64(exact) / float64(inferred)
		}
		if services > 0 {
			l["zgrab.alive_share"] = float64(aliveTrue) / float64(services)
		}
		if vulnerable > 0 {
			l["loopscan.vuln_recall"] = float64(vulnTrue) / float64(vulnerable)
		}
		counterMetrics(l, before, dep.Group.Counters(), ops)
		res.layer = l
	}
	return res, nil
}
