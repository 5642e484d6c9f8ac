package simtest

import (
	"context"
	"fmt"

	"repro/internal/ipv6"
	"repro/internal/xmap"
)

// resumeCheckpointEvery is the checkpoint interval the resume oracle
// scans with; the re-sent-probe bound is stated against it.
const resumeCheckpointEvery = 32

// reliabilityFixture is one seeded fixture with the profile's injector
// installed — every oracle leg starts from an identical world. An
// inactive profile ("none") installs no fault layer at all, so the
// engine's flow cache stays consulted; a no-op injector would pin every
// leg to the interpreter and hide the fused replay from the oracles.
func reliabilityFixture(seed int64, p FaultProfile) (*ISPFixture, error) {
	return faultWorld(BuildISPFixture, seed, p)
}

// faultWorld is reliabilityFixture over any fixture builder.
func faultWorld(build func(int64) (*ISPFixture, error), seed int64, p FaultProfile) (*ISPFixture, error) {
	f, err := build(seed)
	if err != nil {
		return nil, err
	}
	if p.Active() {
		inj := NewInjector(seed, p)
		f.Eng.SetFault(inj.Apply)
	}
	return f, nil
}

// RunResumeOracle is the kill-and-resume differential oracle: a scan
// killed mid-cycle and resumed from its last periodic checkpoint must
// report exactly the responder set of an uninterrupted scan, must not
// hand the handler any responder it was given before the checkpointed
// cut (responders first seen in the re-sent tail may repeat — the
// documented kill -9 cost), and the crash may cost at most one
// checkpoint interval of re-sent probes. Odd seeds dedup through the
// Bloom filter, even seeds through the exact map.
// It applies to lossless profiles (duplication and reordering included):
// under loss, responses to pre-crash probes are genuinely gone, so set
// equality is not a sound oracle there — the adaptive oracle covers the
// lossy profiles instead.
//
// The killed and resumed legs scan through a RingDriver, so the oracle
// also covers the pipelined transmission path's crash safety: probes
// sitting in the SPSC ring are flushed before every checkpoint (the
// ring must be empty at each emission — asserted directly) and anything
// between the last checkpoint and the kill is re-sent on resume, never
// lost. The probe-count bound then proves the flush doesn't over-send
// either.
func RunResumeOracle(seed int64, p FaultProfile) ([]string, error) {
	if !p.Lossless() {
		return nil, nil
	}
	var problems []string
	cfgFor := func(f *ISPFixture) xmap.Config {
		return xmap.Config{Window: f.Window, Seed: scanSeed(seed), DedupExact: seed%2 == 0}
	}

	// Reference leg: the uninterrupted scan, direct driver.
	fA, err := reliabilityFixture(seed, p)
	if err != nil {
		return nil, err
	}
	sA, err := xmap.New(cfgFor(fA), fA.Drv)
	if err != nil {
		return nil, err
	}
	refSet := map[ipv6.Addr]bool{}
	refStats, err := sA.Run(context.Background(), func(r xmap.Response) { refSet[r.Responder] = true })
	if err != nil {
		return nil, err
	}

	// Kill leg: identical world, killed after a seed-varied number of
	// targets with periodic checkpoints, scanning through the ring.
	// Everything after the last periodic state is discarded, as a real
	// kill -9 would.
	killAt := uint64(48 + (seed*31)%150)
	fB, err := reliabilityFixture(seed, p)
	if err != nil {
		return nil, err
	}
	ringKill := xmap.NewRingDriver(fB.Drv, resumeCheckpointEvery)
	var (
		states  []xmap.ShardState
		cuts    []int       // emissions so far at each state
		emitted []ipv6.Addr // kill-leg emissions, in order
	)
	cfgKill := cfgFor(fB)
	cfgKill.MaxTargets = killAt
	cfgKill.CheckpointEvery = resumeCheckpointEvery
	cfgKill.OnCheckpoint = func(st xmap.ShardState) {
		if n := ringKill.Pending(); n != 0 {
			problems = append(problems, fmt.Sprintf(
				"checkpoint at %d targets emitted with %d probes still in the ring", st.Stats.Targets, n))
		}
		states = append(states, st)
		cuts = append(cuts, len(emitted))
	}
	sKill, err := xmap.New(cfgKill, ringKill)
	if err != nil {
		return nil, err
	}
	killStats, err := sKill.Run(context.Background(), func(r xmap.Response) { emitted = append(emitted, r.Responder) })
	ringKill.Close()
	if err != nil {
		return nil, err
	}
	if len(states) < 2 {
		return []string{fmt.Sprintf("kill at %d targets emitted only %d checkpoint states", killAt, len(states))}, nil
	}
	crash, cut := states[len(states)-2], cuts[len(cuts)-2]

	// Resume leg: continue on the same (still-running) network from the
	// last periodic checkpoint — that state and the responders reported
	// up to it, as the file would hold them — again through a fresh ring,
	// as a restarted process would build one.
	ringResume := xmap.NewRingDriver(fB.Drv, resumeCheckpointEvery)
	cfgResume := cfgFor(fB)
	cfgResume.ResumeFrom = &xmap.Checkpoint{
		Digest: xmap.ConfigDigest(cfgResume, 1), Shards: 1,
		Responders: emitted[:cut], States: []xmap.ShardState{crash},
	}
	sResume, err := xmap.New(cfgResume, ringResume)
	if err != nil {
		return nil, err
	}
	union := map[ipv6.Addr]bool{}
	beforeCut := map[ipv6.Addr]bool{}
	for i, a := range emitted {
		union[a] = true
		if i < cut {
			beforeCut[a] = true
		}
	}
	resumeStats, err := sResume.Run(context.Background(), func(r xmap.Response) {
		if beforeCut[r.Responder] {
			problems = append(problems, fmt.Sprintf(
				"responder %s, reported before the checkpoint at %d targets, was handed to the handler again after resume",
				r.Responder, crash.Stats.Targets))
		}
		union[r.Responder] = true
	})
	ringResume.Close()
	if err != nil {
		return nil, err
	}
	for a := range refSet {
		if !union[a] {
			problems = append(problems, fmt.Sprintf("responder %s lost across kill@%d/resume@%d",
				a, killAt, crash.Stats.Targets))
		}
	}
	for a := range union {
		if !refSet[a] {
			problems = append(problems, fmt.Sprintf("kill/resume invented responder %s", a))
		}
	}
	if resumeStats.Targets != refStats.Targets {
		problems = append(problems, fmt.Sprintf(
			"resumed scan covered %d cumulative targets, uninterrupted %d", resumeStats.Targets, refStats.Targets))
	}
	// Crash cost: targets re-executed after resume are those between the
	// checkpoint and the kill — at most one checkpoint interval.
	if wasted := killStats.Targets - crash.Stats.Targets; wasted > resumeCheckpointEvery {
		problems = append(problems, fmt.Sprintf(
			"crash re-sent %d targets, more than one checkpoint interval (%d)", wasted, resumeCheckpointEvery))
	}
	// Probe-count bound: both legs together send at most one checkpoint
	// interval more than the uninterrupted scan.
	totalSent := killStats.Sent + resumeStats.Sent - crash.Stats.Sent
	if totalSent > refStats.Sent+resumeCheckpointEvery {
		problems = append(problems, fmt.Sprintf(
			"kill+resume sent %d probes, uninterrupted %d (+%d allowed)",
			totalSent, refStats.Sent, resumeCheckpointEvery))
	}
	return problems, nil
}

// RunAdaptiveOracle compares loss-recovery strategies under a lossy
// profile: the blind fixed multiplier (ProbesPerTarget 3, ZMap's -P)
// against the adaptive reliability layer (retry scheduler + AIMD). The
// adaptive scan must match or beat the blind hit rate while sending
// strictly fewer probes — retries spend probes only on silent targets.
func RunAdaptiveOracle(seed int64, p FaultProfile) ([]string, error) {
	if p.Lossless() {
		return nil, nil
	}
	run := func(mutate func(*xmap.Config)) (xmap.Stats, error) {
		f, err := reliabilityFixture(seed, p)
		if err != nil {
			return xmap.Stats{}, err
		}
		cfg := xmap.Config{Window: f.Window, Seed: scanSeed(seed), DedupExact: true}
		mutate(&cfg)
		s, err := xmap.New(cfg, f.Drv)
		if err != nil {
			return xmap.Stats{}, err
		}
		return s.Run(context.Background(), nil)
	}
	blind, err := run(func(c *xmap.Config) { c.ProbesPerTarget = 3 })
	if err != nil {
		return nil, err
	}
	adaptive, err := run(func(c *xmap.Config) { c.Retries = 3; c.AIMD = true })
	if err != nil {
		return nil, err
	}

	var problems []string
	if adaptive.Sent >= blind.Sent {
		problems = append(problems, fmt.Sprintf(
			"adaptive sent %d probes, blind multiplier %d — no probe savings", adaptive.Sent, blind.Sent))
	}
	if adaptive.HitRate() < blind.HitRate() {
		problems = append(problems, fmt.Sprintf(
			"adaptive hit rate %.5f (unique %d / sent %d) below blind %.5f (unique %d / sent %d)",
			adaptive.HitRate(), adaptive.Unique, adaptive.Sent,
			blind.HitRate(), blind.Unique, blind.Sent))
	}
	if adaptive.Retried == 0 {
		problems = append(problems, "lossy profile triggered no retries")
	}
	if p.FlapLen > 0 && adaptive.RateDown == 0 {
		problems = append(problems, "link flap triggered no AIMD backoff")
	}
	return problems, nil
}
