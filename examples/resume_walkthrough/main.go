// Resume walkthrough: the crash-safety path of the scan reliability
// layer, end to end. A sharded scan writes periodic checkpoints, is
// stopped mid-cycle — each shard at its own fixed target count, leaving
// the resumable exit checkpoint a cancelled scan (the SIGINT path of
// cmd/xmap) leaves — and a second scan resumes from the checkpoint
// file. The walkthrough then verifies the crash cost: the union of both
// legs' responders equals an uninterrupted reference scan, no responder
// is reported twice, and the probes re-sent because of the crash are
// bounded by one checkpoint interval per shard.
//
// A week-long Internet scan (the paper probes 63M /64 prefixes per
// ISP at 50 kpps) cannot afford to restart from probe zero; this is the
// machinery that makes a mid-scan crash cost seconds, not days.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/ipv6"
	"repro/internal/topo"
	"repro/internal/xmap"
)

var seed = flag.Int64("seed", 7, "simulation seed (same seed, same output)")

const (
	shards          = 2
	checkpointEvery = 256
	killAfter       = 900 // targets each shard probes before the simulated crash
)

func main() {
	flag.Parse()
	if err := run(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "resume_walkthrough:", err)
		os.Exit(1)
	}
}

func buildDeployment() (*topo.Deployment, ipv6.Window, error) {
	dep, err := topo.Build(topo.Config{
		Seed: *seed, Scale: 0.0005, WindowWidth: 12, MaxDevicesPerISP: 2000,
	})
	if err != nil {
		return nil, ipv6.Window{}, err
	}
	return dep, dep.ISPs[0].Window, nil
}

func run(out io.Writer) error {
	ckptPath := filepath.Join(os.TempDir(), fmt.Sprintf("resume-walkthrough-%d.ckpt", *seed))
	defer os.Remove(ckptPath)

	// Reference: the same scan, uninterrupted, on an identical world.
	dep, window, err := buildDeployment()
	if err != nil {
		return err
	}
	cfg := xmap.Config{Window: window, Seed: []byte("walkthrough"), DedupExact: true}
	refSet := map[ipv6.Addr]bool{}
	refStats, err := xmap.ScanParallel(context.Background(), cfg, xmap.NewSimDriver(dep.Engine, dep.Edge),
		shards, func(r xmap.Response) { refSet[r.Responder] = true })
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "reference scan:  %5d probes, %4d responders\n", refStats.Sent, refStats.Unique)

	// Leg 1: fresh identical world, checkpoint to disk, crash mid-scan.
	// Each shard stops after killAfter targets of its own, so the crash
	// lands at the same point of every run: a cancellation fired by one
	// shard would race the other, and the crashed leg's size with it.
	dep, window, err = buildDeployment()
	if err != nil {
		return err
	}
	drv := xmap.NewSimDriver(dep.Engine, dep.Edge)
	killCfg := cfg
	killCfg.CheckpointPath = ckptPath
	killCfg.CheckpointEvery = checkpointEvery
	killCfg.MaxTargets = killAfter
	seen := map[ipv6.Addr]int{}
	leg1, err := xmap.ScanParallel(context.Background(), killCfg, drv, shards, func(r xmap.Response) { seen[r.Responder]++ })
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "crashed leg:     %5d probes, %4d responders, checkpoint %s\n",
		leg1.Sent, leg1.Unique, ckptPath)

	// Leg 2: a new process (modelled by a fresh ScanParallel call) loads
	// the checkpoint and finishes the window on the still-running world.
	ck, err := xmap.LoadCheckpoint(ckptPath)
	if err != nil {
		return err
	}
	resumeCfg := cfg
	resumeCfg.CheckpointPath = ckptPath
	resumeCfg.ResumeFrom = ck
	leg2, err := xmap.ScanParallel(context.Background(), resumeCfg, drv, shards,
		func(r xmap.Response) { seen[r.Responder]++ })
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "resumed leg:     %5d probes cumulative, %4d responders cumulative\n",
		leg2.Sent, leg2.Unique)

	// The crash-cost audit.
	var missing, invented, repeated int
	for a := range refSet {
		if seen[a] == 0 {
			missing++
		}
	}
	for a, n := range seen {
		if !refSet[a] {
			invented++
		}
		if n > 1 {
			repeated++
		}
	}
	var ckptSent uint64
	for _, st := range ck.States {
		ckptSent += st.Stats.Sent
	}
	resent := int64(leg1.Sent-ckptSent) + int64(leg2.Sent) - int64(refStats.Sent)
	fmt.Fprintf(out, "crash cost:      %d probes re-sent (bound: %d = %d shards x one checkpoint interval)\n",
		resent, shards*checkpointEvery, shards)
	fmt.Fprintf(out, "consistency:     %d missing, %d invented, %d double-reported\n", missing, invented, repeated)
	if missing > 0 || invented > 0 || repeated > 0 || resent > shards*checkpointEvery {
		return fmt.Errorf("kill-and-resume diverged from the uninterrupted scan")
	}
	fmt.Fprintln(out, "resumed scan is equivalent to the uninterrupted scan")
	return nil
}
