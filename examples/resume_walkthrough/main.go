// Resume walkthrough: the resume path of the scan reliability layer,
// end to end. A sharded scan writes periodic checkpoints and is stopped
// mid-cycle — each shard at its own fixed target count — which, like a
// cancelled scan (the SIGINT path of cmd/xmap), flushes and writes a
// resumable exit checkpoint. A second scan resumes from the checkpoint
// file. The walkthrough then verifies the resume: the union of both
// legs' responders equals an uninterrupted reference scan, no responder
// is reported twice, and a clean stop re-sends no probe, since its exit
// checkpoint records the last target sent.
//
// A crash has no exit checkpoint: the probes sent after the last
// periodic one are sent again, at most one checkpoint interval per
// shard, and the file's torn tail is dropped on load. The kill -9 leg of
// scripts/resume_smoke.sh exercises that path against the real CLI.
//
// A week-long Internet scan (the paper probes 63M /64 prefixes per
// ISP at 50 kpps) cannot afford to restart from probe zero; this is the
// machinery that makes an interruption cost seconds, not days.
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
	stopAfter       = 900 // targets each shard probes before the stop
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

	// Leg 1: fresh identical world, checkpoint to disk, stop mid-scan.
	// Each shard stops after stopAfter targets of its own, so the stop
	// lands at the same point of every run: a cancellation fired by one
	// shard would race the other, and the stopped leg's size with it.
	dep, window, err = buildDeployment()
	if err != nil {
		return err
	}
	drv := xmap.NewSimDriver(dep.Engine, dep.Edge)
	stopCfg := cfg
	stopCfg.CheckpointPath = ckptPath
	stopCfg.CheckpointEvery = checkpointEvery
	stopCfg.MaxTargets = stopAfter
	seen := map[ipv6.Addr]int{}
	leg1, err := xmap.ScanParallel(context.Background(), stopCfg, drv, shards, func(r xmap.Response) { seen[r.Responder]++ })
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "stopped leg:     %5d probes, %4d responders, exit checkpoint %s\n",
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

	// The resume audit.
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
	fmt.Fprintf(out, "clean stop:      %d probes re-sent (the exit checkpoint records the last target sent)\n", resent)
	fmt.Fprintf(out, "consistency:     %d missing, %d invented, %d double-reported\n", missing, invented, repeated)
	if missing > 0 || invented > 0 || repeated > 0 || resent != 0 {
		return fmt.Errorf("stop-and-resume diverged from the uninterrupted scan")
	}
	fmt.Fprintln(out, "resumed scan is equivalent to the uninterrupted scan")
	return nil
}
