package simtest

import (
	"fmt"
	"path/filepath"
	"slices"

	"repro/internal/ipv6"
	"repro/internal/loopscan"
	"repro/internal/netsim"
	"repro/internal/subnet"
	"repro/internal/telemetry"
	"repro/internal/xmap"
)

// profile is one point of a row's sweep: a fault regime, or a hostile
// responder model planted in the fixture.
type profile struct {
	name    string
	fault   FaultProfile
	hostile HostileProfile
}

// faults is every fault profile keep accepts (nil: all of them).
func faults(keep func(FaultProfile) bool) []profile {
	var out []profile
	for _, p := range Profiles {
		if keep == nil || keep(p) {
			out = append(out, profile{name: p.Name, fault: p})
		}
	}
	return out
}

// hostiles is every hostile profile keep accepts (nil: all of them).
func hostiles(keep func(HostileProfile) bool) []profile {
	var out []profile
	for _, hp := range HostileProfiles {
		if keep == nil || keep(hp) {
			out = append(out, profile{name: hp.Name, hostile: hp})
		}
	}
	return out
}

var (
	clean       = faults(func(p FaultProfile) bool { return !p.Active() })
	armed       = faults(FaultProfile.Active)
	lossless    = faults(FaultProfile.Lossless)
	adversaries = hostiles(func(hp HostileProfile) bool { return hp.Mode != 0 })
	storm       = hostiles(func(hp HostileProfile) bool { return hp.Mode == netsim.HostileStorm })
)

// check judges what a row's legs reported beyond its relation. A row
// without legs keeps its own world and runs it here.
type check func(e env, ref *leg, legs []*leg) ([]string, error)

// and runs c, then d.
func (c check) and(d check) check {
	return func(e env, ref *leg, legs []*leg) ([]string, error) {
		p, err := c(e, ref, legs)
		if err != nil {
			return nil, err
		}
		q, err := d(e, ref, legs)
		return append(p, q...), err
	}
}

// row is one differential scenario: under each of its profiles it runs
// the reference leg, then every leg, diffs each leg against the
// reference under rel, and hands all of them to check.
type row struct {
	name     string
	profiles []profile // unset for the sweep rows, which take every fault profile
	ref      legSpec   // no name: no reference leg
	legs     []legSpec
	rel      relation
	check    check
}

// run runs the row under one profile and returns every problem found. A
// failing row carries the span tail of its reference leg, when traced.
func (r row) run(e env) ([]string, error) {
	var problems []string
	var ref, prev *leg
	var legs []*leg
	if r.ref.name != "" {
		var err error
		if ref, err = runLeg(e, r.ref, nil); err != nil {
			return nil, err
		}
		prev = ref
	}
	for _, spec := range r.legs {
		l, err := runLeg(e, spec, prev)
		if err != nil {
			return nil, fmt.Errorf("%s leg: %w", spec.name, err)
		}
		if ref != nil {
			problems = append(problems, diff(l, ref, r.rel)...)
		}
		legs, prev = append(legs, l), l
	}
	if r.check != nil {
		p, err := r.check(e, ref, legs)
		if err != nil {
			return nil, err
		}
		problems = append(problems, p...)
	}
	problems = append(problems, findings(append([]*leg{ref}, legs...)...)...)
	if ref != nil && ref.cfg.Tracer != nil {
		problems = AttachTrace(problems, ref.cfg.Tracer.AppendSpans(0, nil), 16)
	}
	return problems, nil
}

// sweep runs under every fault profile, as subtest seed=K/<profile>.
var sweep = []row{
	// Discovery: the ISP fixture scanned with exact dedup under every
	// invariant, against Bloom dedup (identical traffic, so identical
	// results) and an exact replay (bit-exact determinism).
	{
		name:  "discovery",
		ref:   discoveryRef,
		legs:  []legSpec{{name: "bloom", tap: true, cfg: func(c *xmap.Config, _ env) { c.DedupExact = false }}, {name: "replay", tap: true}},
		rel:   relation{relSet | relOrder, []telemetry.Counter{telemetry.ScanReceived, telemetry.ScanDuplicates}},
		check: discoveryCheck,
	},
	{name: "subnet", check: subnetCheck},
	{name: "loopscan", check: loopCheck},
}

var discoveryRef = legSpec{name: "exact", tap: true}

// hostileDrainEvery pins the hostile legs' drain cadence: the default 64
// drains the 256-cell fixture only four times, far too coarse for the
// detector's cooldown clock to act mid-scan.
const hostileDrainEvery = 16

// resumeCheckpointEvery is the checkpoint interval the resume rows scan
// with; the re-sent-probe bound is stated against it.
const resumeCheckpointEvery = 32

func undefended(c *xmap.Config, _ env) { c.DrainEvery = hostileDrainEvery }
func defended(c *xmap.Config, _ env)   { c.DrainEvery, c.Defend = hostileDrainEvery, true }
func retries2(c *xmap.Config, _ env)   { c.Retries = 2 }

// bloomOnOdd dedups odd seeds through the Bloom filter.
func bloomOnOdd(c *xmap.Config, e env) { c.DedupExact = e.seed%2 == 0 }

// killAt stops a scan after a seed-varied number of targets.
func killAt(c *xmap.Config, e env) {
	c.MaxTargets, c.CheckpointEvery = uint64(48+(e.seed*31)%150), resumeCheckpointEvery
}

// traced attaches a tracer sampling every target.
func traced(c *xmap.Config, e env) {
	c.Tracer = telemetry.NewTracer(telemetry.TracerOptions{Seed: scanSeed(e.seed), SampleShift: 0})
}

// toFile checkpoints into the env's scratch directory.
func toFile(c *xmap.Config, e env) { c.CheckpointPath = filepath.Join(e.dir, "scan.ckpt") }

// all applies every mutation in turn.
func all(fs ...func(*xmap.Config, env)) func(*xmap.Config, env) {
	return func(c *xmap.Config, e env) {
		for _, f := range fs {
			f(c, e)
		}
	}
}

func ring(size int) func(*ISPFixture, *recordingDriver) xmap.Driver {
	return func(_ *ISPFixture, d *recordingDriver) xmap.Driver { return xmap.NewRingDriver(d, size) }
}

func perPacket(f *ISPFixture, _ *recordingDriver) xmap.Driver { return xmap.AdaptPacketDriver(f.Drv) }

// grouped records the leg's probes on their way into every engine shard
// of a sharded world.
func grouped(f *ISPFixture, d *recordingDriver) xmap.Driver {
	d.Driver = xmap.NewGroupDriver(f.Group, f.Edge)
	return d
}

// rows run as subtest seed=K/<row>/<profile>.
var rows = []row{
	{name: "oracle-routes", profiles: clean, check: routesCheck},
	{name: "oracle-udp", profiles: clean, check: udpCheck},
	{name: "oracle-sharded", profiles: clean, check: shardCheck},
	// The transmission path is invisible: one injection per probe
	// (AdaptPacketDriver), the scanner's native bursts, and the bursts
	// behind a ring and its pump goroutine report the same under every
	// fault profile, lossy ones included. That holds only because the
	// whole chain keeps per-packet order and decision sequence: the engine
	// pumps batches a packet at a time, the ring is FIFO, and the scanner
	// flushes the ring before every drain.
	{
		name: "oracle-batch", profiles: faults(nil),
		ref:  legSpec{name: "per-packet", wrap: perPacket},
		legs: []legSpec{{name: "batched"}, {name: "ring", wrap: ring(64)}},
		rel:  relation{relSet, dedupCounters},
	},
	// The compiled fast path is invisible to everything but the event
	// count. Fault-free, the native bursts and every forced batch size —
	// one probe (Engine.Inject's shape), 7 (straddles drain windows), 64
	// (the drain window), InjectRunLen (bursts span several locked runs) —
	// match the interpreter, over the dense fixture, the sparse one (one
	// gap flow answers nearly the whole window), the sparse one with a
	// Delegate halfway through pass one (the flow holds a pointer to the
	// emptiness index the delegation changes), and every hostile model
	// (hostile flows stay interpreted while honest ones compile). Under a
	// fault profile the cache must not be consulted at all.
	fastPathRow("oracle-fastpath", clean, BuildISPFixture, batchSizes("fastpath")...),
	fastPathRow("oracle-fastpath-armed", armed, BuildISPFixture, legSpec{name: "fastpath[armed]"}),
	fastPathRow("oracle-fastpath-sparse", clean, BuildSparseFixture, batchSizes("sparse")...).withCheck(sparseCheck),
	fastPathRow("oracle-fastpath-delegate", clean, buildLateLANFixture, legSpec{name: "sparse[delegate]"}),
	fastPathRow("oracle-fastpath-hostile", adversaries, nil, legSpec{name: "fastpath[hostile]"}),
	{name: "oracle-tools", profiles: clean, check: toolsCheck},
	// Kill and resume: a scan killed mid-cycle, resumed from its last
	// periodic state, reports the uninterrupted scan's set. Both halves
	// scan through a ring, so probes parked in it must be flushed before
	// every checkpoint. Lossless profiles only: under loss, replies to
	// pre-crash probes are genuinely gone.
	{
		name: "oracle-resume", profiles: lossless,
		ref: legSpec{name: "uninterrupted", cfg: bloomOnOdd},
		legs: []legSpec{
			{name: "killed", cfg: all(bloomOnOdd, killAt), wrap: ring(resumeCheckpointEvery)},
			{name: "resumed", cfg: bloomOnOdd, wrap: ring(resumeCheckpointEvery), resume: true},
		},
		check: resumeCheck,
	},
	{
		name: "oracle-hostile", profiles: hostiles(nil),
		ref:   legSpec{name: "undefended", cfg: undefended},
		legs:  []legSpec{{name: "defended", cfg: defended}},
		check: hostileCheck,
	},
	// A drain window of two starves the shed budget (4·DrainEvery = 8):
	// the storm must be shed without costing a true hit.
	{
		name: "oracle-hostile-shed", profiles: storm,
		legs: []legSpec{{name: "shed", cfg: func(c *xmap.Config, _ env) { c.DrainEvery, c.Defend = 2, true }}},
		check: func(_ env, _ *leg, legs []*leg) ([]string, error) {
			problems := diff(legs[0], truthLeg(legs[0].fix), relation{rel: relMissed})
			if legs[0].stats[0].Shed == 0 {
				problems = append(problems, "storm with a shed budget of 8 shed nothing")
			}
			return problems, nil
		},
	},
	{name: "watchdog", profiles: clean, check: watchdogCheck},
	// Loss recovery: the blind multiplier (ProbesPerTarget 3, ZMap's -P)
	// against retries + AIMD, which must match its hit rate on fewer
	// probes.
	{
		name: "oracle-adaptive",
		profiles: faults(func(p FaultProfile) bool {
			return p.Name == "loss" || p.Name == "ratelimit" || p.Name == "flap"
		}),
		ref:   legSpec{name: "blind", cfg: func(c *xmap.Config, _ env) { c.ProbesPerTarget = 3 }},
		legs:  []legSpec{{name: "adaptive", cfg: func(c *xmap.Config, _ env) { c.Retries, c.AIMD = 3, true }}},
		check: adaptiveCheck,
	},

	// Feature combinations: one row each. Two ring-fed workers match one
	// per-packet worker. Lossless profiles only: a fault draw depends on
	// arrival order, which concurrent workers do not repeat.
	{
		name: "combo-parallel-ring", profiles: lossless,
		ref:  legSpec{name: "per-packet", wrap: perPacket},
		legs: []legSpec{{name: "parallel-ring", workers: 2, cfg: func(c *xmap.Config, _ env) { c.RingSize = 64 }}},
		rel:  relation{relSet, []telemetry.Counter{telemetry.ScanSent, telemetry.ScanUnique}},
	},
	// Two workers injecting concurrently, cache on against off.
	{
		name: "combo-parallel-fastpath", profiles: clean,
		ref:  legSpec{name: "parallel-interpreted", workers: 2, slow: true},
		legs: []legSpec{{name: "parallel-fastpath", workers: 2}},
		rel:  relation{relSet | relLinks, []telemetry.Counter{telemetry.ScanSent, telemetry.ScanReceived, telemetry.ScanUnique}},
	},
	// Retries must not undo the defense: the defended scan still keeps
	// every honest responder, blocklists every planted region and admits
	// less pollution.
	{
		name: "combo-retries-storm", profiles: storm,
		ref:   legSpec{name: "undefended", cfg: all(undefended, retries2)},
		legs:  []legSpec{{name: "defended", cfg: all(defended, retries2)}},
		check: hostileCheck,
	},
	// Two defended workers, each with its own detector over one shared
	// seen-set, keep every honest responder.
	{
		name: "combo-parallel-hostile", profiles: hostiles(nil),
		legs: []legSpec{{name: "defended-parallel", workers: 2, cfg: defended}},
		check: func(_ env, _ *leg, legs []*leg) ([]string, error) {
			return diff(legs[0], truthLeg(legs[0].fix), relation{rel: relMissed}), nil
		},
	},
	// Parallel × resume over engine shards: two workers, each driving
	// its own shard of a two-shard world, stop at a seed-varied target
	// count and resume from the checkpoint file; together they report
	// what one uninterrupted worker finds.
	{
		name: "combo-parallel-sharded-resume", profiles: clean,
		ref: legSpec{name: "uninterrupted", build: buildShardedFixture, wrap: grouped},
		legs: []legSpec{
			{name: "killed", build: buildShardedFixture, wrap: grouped, workers: 2, cfg: all(killAt, toFile)},
			{name: "resumed", wrap: grouped, workers: 2, cfg: toFile, resume: true},
		},
		check: parallelResumeCheck,
	},
	// Kill and resume through the checkpoint file with a tracer attached:
	// the halves report the untraced uninterrupted set, and both trace.
	{
		name: "combo-resume-trace", profiles: clean,
		ref: legSpec{name: "uninterrupted"},
		legs: []legSpec{
			{name: "killed", cfg: all(traced, killAt, toFile)},
			{name: "resumed", cfg: all(traced, toFile), resume: true},
		},
		check: check(resumeCheck).and(func(_ env, _ *leg, legs []*leg) ([]string, error) {
			var problems []string
			for _, l := range legs {
				if l.cfg.Tracer.SpansRecorded() == 0 {
					problems = append(problems, l.name+" leg recorded no spans")
				}
			}
			return problems, nil
		}),
	},
	// Resume × defend, through the checkpoint file.
	{
		name: "combo-resume-defend", profiles: adversaries,
		legs: []legSpec{
			{name: "killed", cfg: func(c *xmap.Config, e env) {
				all(defended, toFile)(c, e)
				c.CheckpointEvery, c.MaxTargets = resumeCheckpointEvery, 192 // of 256
			}},
			{name: "resumed", resume: true, cfg: func(c *xmap.Config, e env) {
				all(defended, toFile)(c, e)
				c.CheckpointEvery = resumeCheckpointEvery
				c.Telemetry = telemetry.New(telemetry.Options{Shards: 1})
			}},
		},
		check: defendResumeCheck,
	},
}

// fastPathRow diffs legs over build's world against the interpreter:
// dedup accounting per pass, engine totals, responder set, link stats
// and every flow's hops.
func fastPathRow(name string, profiles []profile, build func(int64) (*ISPFixture, error), legs ...legSpec) row {
	for i := range legs {
		legs[i].build, legs[i].passes, legs[i].flows = build, 2, true
	}
	return row{
		name: name, profiles: profiles,
		ref:   legSpec{name: "interpreted", build: build, slow: true, passes: 2, flows: true},
		legs:  legs,
		rel:   relation{relSet | relEngine | relLinks | relTrace, dedupCounters},
		check: fastPathCheck,
	}
}

func (r row) withCheck(c check) row {
	r.check = r.check.and(c)
	return r
}

// batchSizes is the native-burst leg and one leg per forced batch size.
func batchSizes(name string) []legSpec {
	legs := []legSpec{{name: name}}
	for _, n := range []int{1, 7, 64, netsim.InjectRunLen} {
		legs = append(legs, legSpec{name: fmt.Sprintf("%s[batch=%d]", name, n),
			wrap: func(_ *ISPFixture, d *recordingDriver) xmap.Driver { return &chunkDriver{d, n} }})
	}
	return legs
}

// fastPathCheck demands that each leg took the path it claims: compiled
// legs hit the cache, traced their sampled flows, pumped fewer events
// and offered every probe to the cache exactly once; the interpreted
// reference never touched it. Under an armed profile nothing touches it.
func fastPathCheck(e env, ref *leg, legs []*leg) ([]string, error) {
	var problems []string
	off := ref.counters
	if off.FastPathHits|off.FastPathMisses != 0 {
		problems = append(problems, fmt.Sprintf(
			"interpreted leg recorded flow-cache traffic (%d hits, %d misses): SetFastPath(false) leaked",
			off.FastPathHits, off.FastPathMisses))
	}
	for _, l := range legs {
		c := l.counters
		if e.p.fault.Active() {
			if c.FastPathHits|c.FastPathMisses|c.FastPathCompiles != 0 || c.Events != off.Events {
				problems = append(problems, fmt.Sprintf(
					"armed engine consulted the flow cache: %d hits, %d misses, %d compiles, %d events vs %d interpreted",
					c.FastPathHits, c.FastPathMisses, c.FastPathCompiles, c.Events, off.Events))
			}
			continue
		}
		if c.FastPathHits == 0 {
			problems = append(problems, l.name+" leg recorded zero flow-cache hits: fast path never engaged")
		}
		if l.flows.total == 0 {
			problems = append(problems, l.name+" leg captured zero flow crossings: no sampled flow was traced")
		}
		if c.Events >= off.Events {
			problems = append(problems, fmt.Sprintf(
				"%s leg pumped %d events, interpreted %d: fusing saved nothing", l.name, c.Events, off.Events))
		}
		var sent uint64
		for _, s := range l.stats {
			sent += s.Sent
		}
		if c.FastPathHits+c.FastPathMisses != sent {
			problems = append(problems, fmt.Sprintf(
				"%s leg counted %d hits + %d misses for %d probes: the account does not partition the injections",
				l.name, c.FastPathHits, c.FastPathMisses, sent))
		}
	}
	return problems, nil
}

// sparseCheck: the sparse window must actually be served by the block's
// gap flow. All the empty space is one compile, each device a couple
// more, and only the hostile cells (interpreted, so keyed per address:
// one exact negative per cell per pass) and the flows the trace
// collector samples (interpreted) miss every time.
func sparseCheck(_ env, _ *leg, legs []*leg) ([]string, error) {
	const hostileProbes = 2 << (64 - sparseHostileBits) // two passes
	l := legs[0]
	c := l.counters
	replayable := 0
	for _, dst := range l.dsts {
		if !l.flows.sampled(dst) && !inHostile(l, dst) {
			replayable++
		}
	}
	share := float64(c.FastPathHits) / float64(replayable)
	if c.FastPathCompiles > sparseCPEs+hostileProbes+8 || !(share > 0.99) || c.FastPathEvictions != 0 {
		return []string{fmt.Sprintf(
			"sparse leg compiled %d flows (want <= %d devices + %d hostile probes + 8), hit share of the untraced probes outside the hostile region %.4f (want > 0.99), %d evictions: the gap flow never engaged",
			c.FastPathCompiles, sparseCPEs, hostileProbes, share, c.FastPathEvictions)}, nil
	}
	return nil, nil
}

// discoveryCheck: every probe sent, the handler sees each responder
// once, every hit is real (and on a lossless profile every real
// periphery is hit), the trie agrees with the linear table on every
// probed address, and the telemetry scan.* counters agree with Stats.
func discoveryCheck(e env, exact *leg, _ []*leg) ([]string, error) {
	var problems []string
	s := exact.stats[0]
	if s.Sent != 256 {
		problems = append(problems, fmt.Sprintf("sent %d probes, want 256", s.Sent))
	}
	if len(exact.order) != len(exact.set) {
		problems = append(problems, fmt.Sprintf(
			"exact dedup double-counted: %d callbacks for %d responders", len(exact.order), len(exact.set)))
	}
	if s.Unique != uint64(len(exact.order)) {
		problems = append(problems, fmt.Sprintf("stats.Unique %d != %d handler callbacks", s.Unique, len(exact.order)))
	}
	truth := relation{rel: relPhantom}
	if e.p.fault.Lossless() {
		truth.rel |= relMissed
	}
	problems = append(problems, diff(exact, truthLeg(exact.fix), truth)...)
	problems = append(problems, diffRouteLookups(exact.fix.Routes, exact.dsts)...)
	snap := exact.cfg.Telemetry.Snapshot()
	s.Counters(func(c telemetry.Counter, want uint64) {
		if got := snap.Counters[c.String()]; got != want {
			problems = append(problems, fmt.Sprintf("telemetry counter %s = %d, stats say %d", c, got, want))
		}
	})
	return problems, nil
}

// regionProbes counts l's probes into a planted hostile region.
func regionProbes(l *leg) int {
	n := 0
	for _, dst := range l.dsts {
		if inHostile(l, dst) {
			n++
		}
	}
	return n
}

// inHostile reports whether dst lies in one of l's planted hostile
// regions.
func inHostile(l *leg, dst ipv6.Addr) bool {
	for _, pr := range l.fix.Hostile {
		if pr.Prefix.Contains(dst) {
			return true
		}
	}
	return false
}

// pollution counts responders outside the honest ground truth.
func pollution(l *leg) int {
	truth := l.fix.Truth()
	n := 0
	for a := range l.set {
		if !truth[a] {
			n++
		}
	}
	return n
}

// hostileCheck judges defended legs against the undefended reference:
//
//   - full recall on the honest ground truth under every hostile model;
//   - every blocklisted prefix is a planted region (precision 1.0), and
//     every planted region is blocklisted (recall);
//   - against an adversary, strictly fewer probes into hostile regions
//     and strictly less pollution than undefended, which is polluted;
//   - strict validation quarantines every malformed phantom;
//   - on the honest baseline the defenses are inert: no detections,
//     quarantines, shedding or blocklisting, and the undefended scan
//     probe for probe.
func hostileCheck(e env, und *leg, legs []*leg) ([]string, error) {
	var problems []string
	add := func(format string, args ...any) { problems = append(problems, fmt.Sprintf(format, args...)) }
	if len(und.blocked) != 0 || und.stats[0].AliasDetected != 0 {
		add("undefended leg ran the alias detector")
	}
	planted := und.fix.Hostile
	for _, d := range legs {
		s := d.stats[0]
		problems = append(problems, diff(d, truthLeg(d.fix), relation{rel: relMissed})...)
		for _, b := range d.blocked {
			if !slices.ContainsFunc(planted, func(pr PlantedRegion) bool { return pr.Prefix == b }) {
				add("%s leg blocklisted honest prefix %s", d.name, b)
			}
		}
		if e.p.hostile.Mode == 0 {
			if s.AliasDetected != 0 || s.AliasBlocked != 0 || s.Quarantined != 0 || s.Shed != 0 {
				add("honest scan tripped defenses: detected=%d blocked=%d quarantined=%d shed=%d",
					s.AliasDetected, s.AliasBlocked, s.Quarantined, s.Shed)
			}
			problems = append(problems, diff(d, und, relation{relSet, []telemetry.Counter{telemetry.ScanSent}})...)
			continue
		}
		for _, pr := range planted {
			if !slices.Contains(d.blocked, pr.Prefix) {
				add("planted %s region %s never blocklisted (detected %d, blocked %d)",
					pr.Mode, pr.Prefix, s.AliasDetected, s.AliasBlocked)
			}
		}
		if dp, up := regionProbes(d), regionProbes(und); dp >= up {
			add("%s leg spent %d probes on hostile regions, undefended %d — no savings", d.name, dp, up)
		}
		dp, up := pollution(d), pollution(und)
		if up == 0 {
			add("%s adversary polluted nothing undefended — attack model inert", e.p.hostile.Mode)
		}
		if dp >= up {
			add("%s leg admitted %d phantom responders, undefended %d", d.name, dp, up)
		}
		if e.p.hostile.Mode == netsim.HostileMalformed {
			if s.Quarantined == 0 {
				add("malformed adversary produced zero quarantined replies")
			}
			if dp != 0 {
				add("strict validation still admitted %d malformed phantoms", dp)
			}
		}
	}
	return problems, nil
}

// resumeCheck: the killed and resumed legs together report exactly the
// uninterrupted scan's set and cumulative targets, and the crash costs at
// most one checkpoint interval of re-sent targets, and of probes.
func resumeCheck(_ env, ref *leg, legs []*leg) ([]string, error) {
	killed, resumed := legs[0], legs[1]
	crash, ok := resumed.from.StateFor(0)
	if !ok {
		return []string{"the resumed checkpoint holds no state"}, nil
	}
	union := &leg{name: "kill+resume", set: map[ipv6.Addr]bool{}}
	for _, a := range append(killed.order, resumed.order...) {
		union.set[a] = true
	}
	problems := diff(union, ref, relation{rel: relSet})
	problems = append(problems, diff(resumed, ref, relation{stats: []telemetry.Counter{telemetry.ScanTargets}})...)
	if wasted := killed.stats[0].Targets - crash.Stats.Targets; wasted > resumeCheckpointEvery {
		problems = append(problems, fmt.Sprintf(
			"crash re-sent %d targets, more than one checkpoint interval (%d)", wasted, resumeCheckpointEvery))
	}
	if sent := killed.stats[0].Sent + resumed.stats[0].Sent - crash.Stats.Sent; sent > ref.stats[0].Sent+resumeCheckpointEvery {
		problems = append(problems, fmt.Sprintf("kill+resume sent %d probes, uninterrupted %d (+%d allowed)",
			sent, ref.stats[0].Sent, resumeCheckpointEvery))
	}
	return problems, nil
}

// parallelResumeCheck: the stopped and resumed workers together report
// exactly the uninterrupted scan's set and cumulative targets, and the
// stop left both workers short of their part.
func parallelResumeCheck(_ env, ref *leg, legs []*leg) ([]string, error) {
	killed, resumed := legs[0], legs[1]
	union := &leg{name: "kill+resume", set: map[ipv6.Addr]bool{}}
	for _, a := range append(killed.order, resumed.order...) {
		union.set[a] = true
	}
	problems := diff(union, ref, relation{rel: relSet})
	problems = append(problems, diff(resumed, ref, relation{stats: []telemetry.Counter{telemetry.ScanTargets}})...)
	for w := range 2 {
		if st, ok := resumed.from.StateFor(w); !ok || st.Done {
			problems = append(problems, fmt.Sprintf("worker %d's checkpoint state is missing or done: the stop left it no work", w))
		}
	}
	return problems, nil
}

// defendResumeCheck: the killed defended scan moved a defense counter,
// its checkpoint file holds every counter it reported, and the resumed
// totals build on them while its telemetry covers the resumed part only.
func defendResumeCheck(_ env, _ *leg, legs []*leg) ([]string, error) {
	var problems []string
	add := func(format string, args ...any) { problems = append(problems, fmt.Sprintf(format, args...)) }
	killed, resumed := legs[0].stats[0], legs[1].stats[0]
	if killed.AliasDetected+killed.Quarantined+killed.Shed == 0 {
		add("no defense counter moved before the kill: %+v", killed)
	}
	st, ok := legs[1].from.StateFor(0)
	if !ok || st.Done {
		return append(problems, fmt.Sprintf("checkpoint state missing or done: %+v", st)), nil
	}
	var every []telemetry.Counter
	killed.Counters(func(c telemetry.Counter, _ uint64) { every = append(every, c) })
	problems = append(problems, diff(legs[0], &leg{name: "checkpointed", stats: []xmap.Stats{st.Stats}}, relation{stats: every})...)
	saved := counters(st.Stats)
	if n := resumed.Targets + resumed.Blocked; n != 256 {
		add("resumed scan covered %d of 256 cells", n)
	}
	snap := legs[1].cfg.Telemetry.Snapshot()
	resumed.Counters(func(c telemetry.Counter, v uint64) {
		if v < saved[c] {
			add("resumed %s = %d, below the checkpointed %d", c, v, saved[c])
		}
		if got := snap.Counters[c.String()]; got != v-saved[c] {
			add("resumed run's telemetry %s = %d, want the resumed part %d", c, got, v-saved[c])
		}
	})
	return problems, nil
}

// adaptiveCheck: retries + AIMD spend probes only on silent targets, so
// they must send strictly fewer than the blind multiplier for no lower a
// hit rate; a lossy profile must trigger retries, and a flap AIMD
// backoff.
func adaptiveCheck(e env, blindLeg *leg, legs []*leg) ([]string, error) {
	var problems []string
	blind, adaptive := blindLeg.stats[0], legs[0].stats[0]
	if adaptive.Sent >= blind.Sent {
		problems = append(problems, fmt.Sprintf(
			"adaptive sent %d probes, blind multiplier %d — no probe savings", adaptive.Sent, blind.Sent))
	}
	if adaptive.HitRate() < blind.HitRate() {
		problems = append(problems, fmt.Sprintf(
			"adaptive hit rate %.5f (unique %d / sent %d) below blind %.5f (unique %d / sent %d)",
			adaptive.HitRate(), adaptive.Unique, adaptive.Sent, blind.HitRate(), blind.Unique, blind.Sent))
	}
	if adaptive.Retried == 0 {
		problems = append(problems, "lossy profile triggered no retries")
	}
	if e.p.fault.FlapLen > 0 && adaptive.RateDown == 0 {
		problems = append(problems, "link flap triggered no AIMD backoff")
	}
	return problems, nil
}

// subnetCheck infers the fixture's delegated-prefix length. Lossless
// profiles must recover the true /64 boundary; lossy ones may fail, but
// a returned length stays walkable, and a replay is bit-identical.
func subnetCheck(e env, _ *leg, _ []*leg) ([]string, error) {
	type result struct {
		err       string
		length    int
		samples   []int
		periphery ipv6.Addr
	}
	var problems []string
	var runs [2]result
	for i := range runs {
		f, err := BuildISPFixture(e.seed)
		if err != nil {
			return nil, err
		}
		inj := NewInjector(e.seed, e.p.fault)
		iv := NewInvariants(inj.DupCount)
		f.Eng.SetFault(inj.Apply)
		iv.Attach(f.Eng)
		res, ierr := subnet.Infer(f.Drv, f.Block, subnet.Options{Seed: e.seed})
		runs[i] = result{length: res.Length, samples: res.Samples, periphery: res.Periphery}
		if ierr != nil {
			runs[i].err = ierr.Error()
		}
		if i == 0 {
			problems = append(problems, iv.Violations()...)
		}
	}
	r1, r2 := runs[0], runs[1]
	if e.p.fault.Lossless() {
		switch {
		case r1.err != "":
			problems = append(problems, fmt.Sprintf("inference failed on lossless profile: %s", r1.err))
		case r1.length != 64:
			problems = append(problems, fmt.Sprintf("inferred length %d, want 64", r1.length))
		}
	} else if r1.err == "" && (r1.length < 57 || r1.length > 64) {
		problems = append(problems, fmt.Sprintf("inferred length %d outside walkable range [57,64]", r1.length))
	}
	if fmt.Sprint(r1) != fmt.Sprint(r2) {
		problems = append(problems, fmt.Sprintf("replay diverged: %+v vs %+v", r1, r2))
	}
	return problems, nil
}

// loopRun is one loop sweep's comparable outcome.
type loopRun struct {
	vuln       map[ipv6.Addr]bool
	targets    uint64
	responses  uint64
	maxFactor  float64
	violations []string
}

func runLoop(e env, measure bool) (loopRun, error) {
	out := loopRun{vuln: map[ipv6.Addr]bool{}}
	dep, err := BuildLoopDeployment(e.seed)
	if err != nil {
		return out, err
	}
	inj := NewInjector(e.seed, e.p.fault)
	iv := NewInvariants(inj.DupCount)
	dep.Engine.SetFault(inj.Apply)
	iv.Attach(dep.Engine)
	drv := xmap.NewSimDriver(dep.Engine, dep.Edge)
	res, err := loopscan.NewDetector(drv).ScanWindows([]ipv6.Window{dep.ISPs[0].Window}, scanSeed(e.seed))
	if err != nil {
		return out, err
	}
	for _, h := range res.VulnerableHops() {
		out.vuln[h.Addr] = true
	}
	out.targets, out.responses = res.Targets, res.Responses
	if measure {
		// Amplification: one max-hop-limit packet into a looping prefix
		// must ping-pong on the access link >200 times (Section VI-A).
		// Xiaomi-class devices cap the loop (Table XII), so skip them.
		for _, dev := range dep.Devices() {
			if !dev.Vulnerable() || dev.Vendor == "Xiaomi" || !out.vuln[dev.WANAddr] {
				continue
			}
			amp, err := loopscan.MeasureAmplification(drv, dev.WANAddr.WithIID(dev.WANAddr.IID()^1), dev.AccessLink)
			if err != nil {
				return out, err
			}
			out.maxFactor = max(out.maxFactor, amp.Factor)
			if out.maxFactor > 200 {
				break
			}
		}
	}
	out.violations = iv.Violations()
	return out, nil
}

// loopCheck sweeps the generated China-Unicom-style deployment for
// routing loops. Detected vulnerable hops are real under every profile;
// lossless profiles find at least one loop, and on the clean one a loop
// amplifies above the paper's 200×; a replay agrees exactly.
func loopCheck(e env, _ *leg, _ []*leg) ([]string, error) {
	measure := e.p.name == "none"
	r1, err := runLoop(e, measure)
	if err != nil {
		return nil, err
	}
	r2, err := runLoop(e, false)
	if err != nil {
		return nil, err
	}
	problems := r1.violations
	dep, err := BuildLoopDeployment(e.seed)
	if err != nil {
		return nil, err
	}
	truth := map[ipv6.Addr]bool{}
	for _, dev := range dep.Devices() {
		if dev.Vulnerable() {
			truth[dev.WANAddr] = true
		}
	}
	for a := range r1.vuln {
		if !truth[a] {
			problems = append(problems, fmt.Sprintf("false loop verdict at %s (not a vulnerable device)", a))
		}
	}
	if e.p.fault.Lossless() && len(r1.vuln) == 0 {
		problems = append(problems, fmt.Sprintf(
			"no loops found on lossless profile (%d vulnerable devices exist)", len(truth)))
	}
	if measure && r1.maxFactor <= 200 {
		problems = append(problems, fmt.Sprintf("amplification factor %.0f, want >200", r1.maxFactor))
	}
	if len(r1.vuln) != len(r2.vuln) || r1.targets != r2.targets || r1.responses != r2.responses {
		problems = append(problems, fmt.Sprintf(
			"replay diverged: %d/%d/%d vs %d/%d/%d vulnerable/targets/responses",
			len(r1.vuln), r1.targets, r1.responses, len(r2.vuln), r2.targets, r2.responses))
	}
	for a := range r1.vuln {
		if !r2.vuln[a] {
			problems = append(problems, fmt.Sprintf("replay missed vulnerable hop %s", a))
		}
	}
	return problems, nil
}
