// Package experiments orchestrates the full reproduction: it builds the
// simulated deployments, runs the scanner, service prober and loop
// detector, and renders every table and figure of the paper's evaluation
// (the per-experiment index lives in DESIGN.md).
package experiments

import (
	"context"
	"fmt"
	"io"
	"sync"

	"repro/internal/analysis"
	"repro/internal/ipv6"
	"repro/internal/loopscan"
	"repro/internal/subnet"
	"repro/internal/topo"
	"repro/internal/uint128"
	"repro/internal/xmap"
	"repro/internal/zgrab"
)

// Options sizes a reproduction run.
type Options struct {
	Seed             int64
	Scale            float64
	WindowWidth      int
	MaxDevicesPerISP int
	// BGPASes / BGPWindowWidth size the Section VI-B universe.
	BGPASes        int
	BGPWindowWidth int
	// Log receives progress lines (nil discards them).
	Log io.Writer
}

// Quick returns a configuration small enough for unit tests: every ISP
// capped at 80 devices in 10-bit windows.
func Quick() Options {
	return Options{
		Seed: 2021, Scale: 0.0002, WindowWidth: 10, MaxDevicesPerISP: 80,
		BGPASes: 60, BGPWindowWidth: 6,
	}
}

// Default returns the full simulation scale: about 1/4096 of the paper's
// population in 14-bit windows (the paper: full population, 32-bit
// windows).
func Default() Options {
	return Options{
		Seed: 2021, Scale: 1.0 / 4096, WindowWidth: 14,
		BGPASes: 600, BGPWindowWidth: 8,
	}
}

// Suite caches the expensive measurement stages so each table/figure
// renderer reuses them. All methods are safe for concurrent use.
type Suite struct {
	opts Options

	mu        sync.Mutex
	dep       *topo.Deployment
	recs      []*analysis.PeripheryRecord
	infra     map[ipv6.Addr]bool
	discStats map[int]xmap.Stats
	grabbed   bool
	loopISP   map[int]*loopscan.ScanResult
	bgpDep    *topo.BGPDeployment
	bgpScan   *loopscan.ScanResult
	lab       []LabOutcome
	subnetRes []subnet.Result
}

// New creates a suite.
func New(opts Options) *Suite { return &Suite{opts: opts} }

func (s *Suite) logf(format string, args ...interface{}) {
	if s.opts.Log != nil {
		fmt.Fprintf(s.opts.Log, format+"\n", args...)
	}
}

// Deployment lazily builds the Table I ISP deployment.
func (s *Suite) Deployment() (*topo.Deployment, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.deploymentLocked()
}

func (s *Suite) deploymentLocked() (*topo.Deployment, error) {
	if s.dep != nil {
		return s.dep, nil
	}
	s.logf("building ISP deployment (scale %v, %d-bit windows)", s.opts.Scale, s.opts.WindowWidth)
	dep, err := topo.Build(topo.Config{
		Seed:             s.opts.Seed,
		Scale:            s.opts.Scale,
		WindowWidth:      s.opts.WindowWidth,
		MaxDevicesPerISP: s.opts.MaxDevicesPerISP,
	})
	if err != nil {
		return nil, err
	}
	s.dep = dep
	return dep, nil
}

// Discovery runs the Table II periphery scan over every ISP window.
func (s *Suite) Discovery() ([]*analysis.PeripheryRecord, map[int]xmap.Stats, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.discoveryLocked(); err != nil {
		return nil, nil, err
	}
	return s.recs, s.discStats, nil
}

func (s *Suite) discoveryLocked() error {
	if s.recs != nil {
		return nil
	}
	dep, err := s.deploymentLocked()
	if err != nil {
		return err
	}
	drv := xmap.NewSimDriver(dep.Engine, dep.Edge)
	s.discStats = make(map[int]xmap.Stats, len(dep.ISPs))
	for _, isp := range dep.ISPs {
		s.logf("scanning ISP %d (%s) window %s", isp.Spec.Index, isp.Spec.Name, isp.Window)
		scanner, err := xmap.New(xmap.Config{
			Window:     isp.Window,
			Seed:       []byte(fmt.Sprintf("discover-%d-%d", s.opts.Seed, isp.Spec.Index)),
			DedupExact: true,
		}, drv)
		if err != nil {
			return fmt.Errorf("experiments: scanner for ISP %d: %w", isp.Spec.Index, err)
		}
		index := isp.Spec.Index
		stats, err := scanner.Run(context.Background(), func(r xmap.Response) {
			s.recs = append(s.recs, analysis.Enrich(r, dep.OUI, index))
		})
		if err != nil {
			return fmt.Errorf("experiments: scanning ISP %d: %w", index, err)
		}
		s.discStats[index] = stats
		for addr, n := range scanner.ResponderCounts() {
			if n >= infraResponseThreshold {
				if s.infra == nil {
					s.infra = make(map[ipv6.Addr]bool)
				}
				s.infra[addr] = true
			}
		}
	}
	s.logf("discovery complete: %d unique last hops", len(s.recs))
	return nil
}

// infraResponseThreshold separates infrastructure from peripheries: a
// responder answering probes for this many distinct targets is a
// provider router, not a last-hop device (a periphery answers for at
// most its own delegations).
const infraResponseThreshold = 4

// Peripheries returns discovery records with infrastructure filtered out.
func (s *Suite) Peripheries() ([]*analysis.PeripheryRecord, error) {
	recs, _, err := s.Discovery()
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	infra := s.infra
	s.mu.Unlock()
	var out []*analysis.PeripheryRecord
	for _, r := range recs {
		if !infra[r.Addr] {
			out = append(out, r)
		}
	}
	return out, nil
}

// ServiceGrabs probes all eight Table VI services on every discovered
// periphery and attaches the results.
func (s *Suite) ServiceGrabs() error {
	if _, _, err := s.Discovery(); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.grabbed {
		return nil
	}
	prober := zgrab.New(xmap.NewSimDriver(s.dep.Engine, s.dep.Edge))
	n := 0
	for _, rec := range s.recs {
		if s.infra[rec.Addr] {
			continue
		}
		grab, err := prober.ProbeDevice(rec.Addr, nil)
		if err != nil {
			return fmt.Errorf("experiments: grabbing %s: %w", rec.Addr, err)
		}
		rec.AttachGrab(grab)
		if grab.AliveCount() > 0 {
			n++
		}
	}
	s.grabbed = true
	s.logf("service probing complete: %d peripheries with alive services", n)
	return nil
}

// LoopISP runs the Table XI loop sweep over every ISP window.
func (s *Suite) LoopISP() (map[int]*loopscan.ScanResult, error) {
	if _, err := s.Deployment(); err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.loopISP != nil {
		return s.loopISP, nil
	}
	det := loopscan.NewDetector(xmap.NewSimDriver(s.dep.Engine, s.dep.Edge))
	s.loopISP = make(map[int]*loopscan.ScanResult, len(s.dep.ISPs))
	for _, isp := range s.dep.ISPs {
		s.logf("loop sweep over ISP %d (%s)", isp.Spec.Index, isp.Spec.Name)
		res, err := det.ScanWindows([]ipv6.Window{isp.Window},
			[]byte(fmt.Sprintf("loop-%d-%d", s.opts.Seed, isp.Spec.Index)))
		if err != nil {
			return nil, fmt.Errorf("experiments: loop sweep ISP %d: %w", isp.Spec.Index, err)
		}
		s.loopISP[isp.Spec.Index] = res
	}
	return s.loopISP, nil
}

// BGP builds and sweeps the Section VI-B universe.
func (s *Suite) BGP() (*topo.BGPDeployment, *loopscan.ScanResult, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.bgpScan != nil {
		return s.bgpDep, s.bgpScan, nil
	}
	s.logf("building BGP universe (%d ASes)", s.opts.BGPASes)
	dep, err := topo.BuildBGPUniverse(topo.BGPConfig{
		Seed:        s.opts.Seed + 7,
		NumASes:     s.opts.BGPASes,
		WindowWidth: s.opts.BGPWindowWidth,
	})
	if err != nil {
		return nil, nil, err
	}
	det := loopscan.NewDetector(xmap.NewSimDriver(dep.Engine, dep.Edge))
	s.logf("loop sweep over %d advertised prefixes", len(dep.Windows))
	scanRes, err := det.ScanWindows(dep.Windows, []byte(fmt.Sprintf("bgp-%d", s.opts.Seed)))
	if err != nil {
		return nil, nil, err
	}
	s.bgpDep, s.bgpScan = dep, scanRes
	return dep, scanRes, nil
}

// SubnetInference runs the Table I boundary inference per ISP.
func (s *Suite) SubnetInference() ([]subnet.Result, error) {
	if _, err := s.Deployment(); err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.subnetRes != nil {
		return s.subnetRes, nil
	}
	drv := xmap.NewSimDriver(s.dep.Engine, s.dep.Edge)
	for _, isp := range s.dep.ISPs {
		res, err := subnet.Infer(drv, isp.Window.Base, subnet.Options{
			Seed:           s.opts.Seed + int64(isp.Spec.Index),
			MaxPreliminary: 8 << s.opts.WindowWidth,
		})
		if err != nil {
			// Sparse blocks (BSNL-sized populations) can defeat the
			// preliminary scan, as they slow it in practice; record -1.
			s.logf("subnet inference for ISP %d failed: %v", isp.Spec.Index, err)
			res = subnet.Result{Block: isp.Window.Base, Length: -1}
		}
		s.subnetRes = append(s.subnetRes, res)
	}
	return s.subnetRes, nil
}

// LabOutcome is one Table XII row as measured in the lab network.
type LabOutcome struct {
	Router    topo.LabRouter
	VulnWAN   bool
	VulnLAN   bool
	LoopTimes uint64 // packets moved on the access link by one WAN-prefix probe
}

// Lab runs the Section VI-D case study.
func (s *Suite) Lab() ([]LabOutcome, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.lab != nil {
		return s.lab, nil
	}
	dep, err := topo.BuildLab()
	if err != nil {
		return nil, err
	}
	// Section VI-D methodology: send one hop-limit-255 packet per prefix
	// and observe the access link directly ("we observe their routing
	// tables and traffics"), which also catches bounded-loop devices the
	// h/h+2 probe misses.
	drv := xmap.NewSimDriver(dep.Engine, dep.Edge)
	for _, e := range dep.Entries {
		out := LabOutcome{Router: e.Router}

		wan, err := loopscan.MeasureAmplification(drv, ipv6.SLAAC(e.WANPrefix, 0xdead_beef_0001), e.AccessLink)
		if err != nil {
			return nil, err
		}
		out.LoopTimes = wan.LinkPackets
		out.VulnWAN = wan.LinkPackets > 4

		lanSub, err := e.Delegated.Sub(64, maxIdx(e.Delegated))
		if err != nil {
			return nil, err
		}
		lan, err := loopscan.MeasureAmplification(drv, ipv6.SLAAC(lanSub, 0xdead_beef_0002), e.AccessLink)
		if err != nil {
			return nil, err
		}
		out.VulnLAN = lan.LinkPackets > 4
		s.lab = append(s.lab, out)
	}
	return s.lab, nil
}

func maxIdx(p ipv6.Prefix) uint128.Uint128 {
	n, _ := p.NumSub(64)
	return n.Sub64(1)
}
