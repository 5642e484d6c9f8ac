package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/ipv6"
	"repro/internal/perm"
	"repro/internal/topo"
	"repro/internal/uint128"
	"repro/internal/wire"
	"repro/internal/xmap"
)

// Kernels are direct timed loops over the packages' exported functions,
// fed with probes and replies captured from the workload's own scan.
// Each runs for a fixed amount of work, small enough that all of them
// together take about a second.

const (
	kernelCapture = 1 << 14 // probes (and replies) captured for the kernels
	injectBatch   = 64      // Engine.InjectBatch burst, the scanner's drain window
)

// sink keeps the compiler from discarding a kernel's result.
var sink uint64

// nopDriver accepts and discards every burst; the ring kernel measures
// the handoff alone.
type nopDriver struct{}

func (nopDriver) SendBatch(pkts [][]byte) (int, error) { return len(pkts), nil }
func (nopDriver) RecvBatch(buf [][]byte) [][]byte      { return buf }
func (nopDriver) SourceAddr() ipv6.Addr                { return topo.ScannerAddr }

// perOp times fn, which performs n operations, and returns ns per
// operation.
func perOp(n int, fn func()) float64 {
	t := time.Now()
	fn()
	return float64(time.Since(t)) / float64(n)
}

// scanKernels measures the perm, xmap and netsim kernels for a scan
// workload and writes them into l.
func (e *env) scanKernels(s scanSpec, l map[string]float64) error {
	s.onlyISP, s.shards = true, 0 // kernels need only the scanned block, on one engine
	build := func() (*topo.Deployment, *topo.ISPDeployment, error) {
		dep, err := topo.Build(e.topoConfig(s))
		if err != nil {
			return nil, nil, err
		}
		isp, err := ispByIndex(dep, scanISP)
		return dep, isp, err
	}
	dep, isp, err := build()
	if err != nil {
		return err
	}
	size, _ := isp.Window.Size()
	seed := cliSeed(e.seed)

	// perm: cycle construction (safe-prime and generator search) and the
	// per-target step at this window size.
	const cycles = 16
	l["perm.cycle_new_us"] = perOp(cycles, func() {
		for i := 0; i < cycles; i++ {
			c, err := perm.NewCycle(size, []byte(fmt.Sprintf("kernel-%d-%d", e.seed, i)))
			if err != nil {
				panic(err) // the scan already built a cycle of this size
			}
			sink += c.Prime().Lo
		}
	}) / 1e3
	cycle, err := perm.NewCycle(size, seed)
	if err != nil {
		return err
	}
	steps := int(min(size.Lo, 1<<20))
	l["perm.next_ns"] = perOp(steps, func() {
		it := cycle.Iterate()
		for i := 0; i < steps; i++ {
			idx, _ := it.Next()
			sink += idx.Lo
		}
	})

	// Capture real probes and replies: the head of this workload's scan.
	capture := &captureDriver{Driver: xmap.NewSimDriver(dep.Engine, dep.Edge), limit: kernelCapture}
	capScanner, err := xmap.New(xmap.Config{Window: isp.Window, Seed: seed, MaxTargets: kernelCapture}, capture)
	if err != nil {
		return err
	}
	if _, err := capScanner.Run(context.Background(), nil); err != nil {
		return err
	}
	probes, replies := capture.probes, capture.replies
	if len(probes) == 0 || len(replies) == 0 {
		return fmt.Errorf("kernel capture got %d probes, %d replies", len(probes), len(replies))
	}

	// xmap: the per-target pieces of the send and receive paths.
	scanner, err := xmap.New(xmap.Config{Window: isp.Window, Seed: seed}, nopDriver{})
	if err != nil {
		return err
	}
	l["xmap.target_for_ns"] = perOp(steps, func() {
		for i := 0; i < steps; i++ {
			a, _ := scanner.TargetFor(uint128.From64(uint64(i)))
			sink += a.Uint128().Lo
		}
	})
	dsts := make([]ipv6.Addr, len(probes))
	for i, p := range probes {
		dsts[i] = ipv6.AddrFromBytes(p[24:40])
	}
	const rounds = 16
	l["xmap.validation_ns"] = perOp(rounds*len(dsts), func() {
		for r := 0; r < rounds; r++ {
			for _, d := range dsts {
				sink += uint64(scanner.Validation(d))
			}
		}
	})
	probe := &xmap.ICMPEchoProbe{}
	src := topo.ScannerAddr
	var buf []byte
	l["xmap.probe_build_ns"] = perOp(rounds*len(dsts), func() {
		for r := 0; r < rounds; r++ {
			for i, d := range dsts {
				buf, _ = probe.AppendProbe(buf[:0], src, d, uint32(i))
			}
		}
	})
	var sum wire.Summary
	validate := xmap.Validator(scanner.Validation)
	valid := 0
	l["xmap.classify_ns"] = perOp(rounds*len(replies), func() {
		for r := 0; r < rounds; r++ {
			for _, raw := range replies {
				if sum.Parse(raw) != nil {
					continue
				}
				if _, ok := probe.Classify(&sum, validate); ok {
					valid++
				}
			}
		}
	})
	if valid == 0 {
		return fmt.Errorf("classify kernel validated none of %d captured replies", len(replies))
	}

	// netsim: the same captured probes into a fresh engine (every region
	// never seen: compile), again (every region warm: replay), and with
	// the fast path off (interpret).
	dep, _, err = build()
	if err != nil {
		return err
	}
	eng, edge := dep.Engine, dep.Edge
	var rx [][]byte
	inject := func() float64 {
		return perOp(len(probes), func() {
			for i := 0; i < len(probes); i += injectBatch {
				eng.InjectBatch(edge.Iface(), probes[i:min(i+injectBatch, len(probes))])
				rx = edge.DrainInto(rx[:0])
				eng.ReleaseBufs(rx)
			}
		})
	}
	l["netsim.inject_cold_ns"] = inject()
	l["netsim.inject_warm_ns"] = inject()
	eng.SetFastPath(false)
	l["netsim.inject_interp_ns"] = inject()
	return nil
}

// ringKernel measures the SPSC handoff: bursts through a RingDriver
// whose underlying driver discards them.
func ringKernel(l map[string]float64) {
	ring := xmap.NewRingDriver(nopDriver{}, 1024)
	pkt := make([]byte, 48)
	burst := make([][]byte, injectBatch)
	for i := range burst {
		burst[i] = pkt
	}
	const bursts = 1 << 14
	l["ring.handoff_ns_per_pkt"] = perOp(bursts*injectBatch, func() {
		for i := 0; i < bursts; i++ {
			ring.SendBatch(burst)
		}
		ring.Flush()
	})
	ring.Close()
}

// checkpointKernel times the write and load halves of the checkpoint
// layer on the state the resumable workload left at its half-way
// cancellation, and
// estimates the layer's share of the scan from the write count.
func (e *env) checkpointKernel(l map[string]float64, scanWallNs float64) error {
	ck, cfg := e.midCkpt, e.ckptCfg
	tmp := filepath.Join(e.outDir, e.name+"-kernel.ckpt")
	defer os.Remove(tmp)
	const n = 8
	var werr error
	l["checkpoint.write_ms"] = perOp(n, func() {
		for i := 0; i < n && werr == nil; i++ {
			werr = ck.WriteFile(tmp)
		}
	}) / 1e6
	if werr != nil {
		return werr
	}
	var lerr error
	l["checkpoint.load_ms"] = perOp(n, func() {
		for i := 0; i < n && lerr == nil; i++ {
			var c *xmap.Checkpoint
			if c, lerr = xmap.LoadCheckpoint(tmp); lerr == nil {
				lerr = c.Verify(cfg, 1)
			}
		}
	}) / 1e6
	if lerr != nil {
		return lerr
	}
	l["checkpoint.est_share"] = l["checkpoint.writes"] * l["checkpoint.write_ms"] * 1e6 / scanWallNs
	return nil
}
