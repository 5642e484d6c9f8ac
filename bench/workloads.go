package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/telemetry"
	"repro/internal/xmap"
)

// workloadDef is one named workload; why is the sentence BENCHMARK.json
// carries. What the harness does for it follows from its properties,
// never from its name.
type workloadDef struct {
	name string
	why  string
	// scan is the deployment and scan mode at a given size; nil for
	// followup, which has its own runner.
	scan func(size) scanSpec
	// warm keeps one deployment across reps and rescans it (rescan_warm).
	warm bool
	// recallFloor is the least recall accepted on any seed. A fault-free
	// sweep finds every planted periphery except the few loop-capped
	// devices (Table XII's ">10 times" class) that silently drop a
	// looping probe; under chaos faults two retries leave about a fifth
	// unanswered; the follow-up tools see only what discovery handed them.
	recallFloor float64
}

var workloads = []workloadDef{
	{name: "scan_cold", recallFloor: 0.99,
		why:  "One cold single-shard sweep of ISP 13's 2^20-cell window in a 15-ISP build, as cmd/xmap runs it: netsim compile/interpret, perm and probe build carry it; output is about 1%.",
		scan: func(sz size) scanSpec { return scanSpec{width: sz.coldWidth} }},
	{name: "rescan_warm", recallFloor: 0.99, warm: true,
		why: "Back-to-back rescans of a 2^14 window (BenchmarkScannerThroughput's deployment): fast-path replay does the netsim work, so scanner self time and output dominate; a compile-path win stays flat here.",
		// Exactly BenchmarkScannerThroughput's deployment, under the run's seed.
		scan: func(sz size) scanSpec { return scanSpec{width: sz.warmWidth, onlyISP: true} }},
	{name: "scan_parallel", recallFloor: 0.99,
		why: "Two engine shards, GroupDriver and ScanParallel(2) with 1024-slot rings over the 2^20 window: the only workload where rings, cross-shard dedup and handler serialisation do work.",
		scan: func(sz size) scanSpec {
			return scanSpec{width: sz.coldWidth, shards: 2, parallel: 2, ring: 1024}
		}},
	{name: "scan_resumable", recallFloor: 0.99,
		why:  "The cold window with a checkpoint every 4096 targets, cancelled at half and resumed from the file: exercises checkpoint writes and reads, so a gain on one that costs the other shows.",
		scan: func(sz size) scanSpec { return scanSpec{width: sz.coldWidth, parallel: 1, resumable: true} }},
	{name: "scan_hostile", recallFloor: 0.7,
		why:  "A 2^18 window with four planted hostile regions and chaos faults, scanned with retries, AIMD and defenses: forces per-packet interpretation and guards recall and precision.",
		scan: func(sz size) scanSpec { return scanSpec{width: sz.hostileWidth, onlyISP: true, hostile: true} }},
	{name: "followup", recallFloor: 0.5,
		why: "Sub-prefix inference, eight-service probing and the loop sweep over 15 ISPs at width 14: the per-packet driver path with TCP/UDP services and 255-hop loops; scanner-loop changes should leave it flat."},
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// golden pins, for the default seed at full size, the exact outcome of
// each workload: a speed-up that changes a simulated result fails the
// run instead of posting a number.
type golden struct {
	Targets uint64 `json:"targets"`
	Sent    uint64 `json:"sent"`
	Unique  uint64 `json:"unique"`
	SetSHA  string `json:"set_sha256"`
}

//go:embed golden.json
var goldenJSON []byte

const goldenSeed = 1

func loadGolden() (map[string]golden, error) {
	g := map[string]golden{}
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	return g, nil
}

func goldenOf(r repResult) golden {
	return golden{Targets: r.targets, Sent: r.sent, Unique: r.unique, SetSHA: r.setSHA}
}

// report is one workload run: the driver's result line plus the
// distributions behind it for the human-readable lines.
type report struct {
	workload string
	result   result
	why      string // first failed output check
	dists    map[string]dist
	notes    []string
	first    repResult
}

func (r *report) print(w io.Writer) {
	names := make([]string, 0, len(r.result.Metrics))
	for n := range r.result.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		v := r.result.Metrics[n]
		line := fmt.Sprintf("%s %s %.6g %s", r.workload, n, v.Value, v.Unit)
		if d, ok := r.dists[n]; ok {
			line += fmt.Sprintf(" min=%.6g max=%.6g n=%d", d.Min, d.Max, d.N)
		}
		fmt.Fprintln(w, line)
	}
	for _, n := range r.notes {
		fmt.Fprintf(w, "# %s %s\n", r.workload, n)
	}
}

// fail records the first output check that did not hold.
func (r *report) fail(format string, args ...any) {
	if r.why == "" {
		r.why = fmt.Sprintf(format, args...)
	}
}

// runWorkload runs one workload in this process for o.seconds of timed
// work (or o.reps reps) and assembles its report.
func runWorkload(o options) (*report, error) {
	w, ok := workloadByName(o.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	e := &env{seed: o.seed, sz: o.size(), outDir: o.outDir, name: w.name}
	var rec *recorder
	if o.trace {
		rec = newRecorder()
	}
	m, err := e.measure(w, o, rec)
	if err != nil {
		return nil, err
	}
	rp := &report{workload: w.name, dists: map[string]dist{}, first: m.plain[0]}
	if err := rp.check(w, o, m); err != nil {
		return nil, err
	}

	vals := map[string]float64{}
	defs := endToEnd
	if o.trace {
		defs = perLayer
		if err := e.layerMetrics(w, rp, rec, m, vals); err != nil {
			return nil, err
		}
		if err := rec.writeChromeTrace(filepath.Join(o.outDir, "trace-"+w.name+".json"), w.name); err != nil {
			return nil, err
		}
	} else if err := e.endToEndMetrics(w, o, rp, m, vals); err != nil {
		return nil, err
	}
	if err := rp.result.build(defs, vals); err != nil {
		return nil, err
	}
	rp.result.Correct = rp.why == ""
	return rp, nil
}

// measured is what one run collected: the untraced reps, the traced
// reps paired with them (traced pass only), and the reference sweep for
// the workloads that have a cross-workload equality.
type measured struct {
	plain, traced []repResult
	ref           *repResult
}

// measure schedules the reps. Untraced: reps until the next one would
// not fit in o.seconds; a workload whose single rep fills the budget
// runs once (reps are cut, never window sizes). Traced: untraced/traced
// pairs, alternating which goes first so neither side always gets the
// colder process, at least two pairs unless one pair alone overruns, in
// a smaller budget that leaves room for the kernels.
func (e *env) measure(w workloadDef, o options, rec *recorder) (measured, error) {
	var m measured
	var spec scanSpec
	if w.scan != nil {
		spec = w.scan(e.sz)
	}
	runRep := func(rec *recorder) (repResult, error) {
		switch {
		case w.warm:
			return e.runWarm(spec, rec, nil)
		case w.scan == nil:
			return e.runFollowup(rec)
		}
		return e.runScan(spec, rec)
	}
	if spec.parallel > 0 {
		// The same window swept once by one plain scanner.
		r, err := e.runScan(scanSpec{width: e.sz.coldWidth, onlyISP: true}, nil)
		if err != nil {
			return m, fmt.Errorf("reference scan: %w", err)
		}
		m.ref = &r
	}
	if w.warm {
		// The first rep warms the flow cache and is discarded.
		if _, err := runRep(nil); err != nil {
			return m, err
		}
	}
	budget := o.seconds * 1e9
	if o.trace {
		budget *= 0.7
	}
	var timed float64
	for pair := 0; ; pair++ {
		var last float64
		for _, withTrace := range []bool{pair%2 == 1, pair%2 == 0} {
			if withTrace && !o.trace {
				continue
			}
			var r repResult
			var err error
			if withTrace {
				rec.rep.Add(1)
				endRep := rec.open(spWorkload)
				r, err = runRep(rec)
				endRep()
				m.traced = append(m.traced, r)
			} else {
				r, err = runRep(nil)
				m.plain = append(m.plain, r)
			}
			if err != nil {
				return m, err
			}
			last += r.wallNs
		}
		timed += last
		if o.reps > 0 {
			if len(m.plain) >= o.reps {
				return m, nil
			}
		} else if timed >= budget || (timed+last > budget && (!o.trace || pair >= 1)) {
			return m, nil
		}
	}
}

// check applies the output checks and fills the result line's counts.
// Every rep of one run must agree exactly with the first.
func (rp *report) check(w workloadDef, o options, m measured) error {
	first := m.plain[0]
	want := goldenOf(first)
	for i, r := range append(append([]repResult(nil), m.plain...), m.traced...) {
		rp.result.Attempted += r.ops
		rp.result.Failed += r.failed
		if g := goldenOf(r); g != want {
			rp.fail("rep %d outcome %+v differs from rep 0 %+v", i, g, want)
		}
		if r.recall != first.recall || r.precision != first.precision {
			rp.fail("rep %d recall/precision differ from rep 0", i)
		}
	}
	if rp.result.Failed > 0 {
		rp.fail("%d of %d operations failed", rp.result.Failed, rp.result.Attempted)
	}
	if first.recall < w.recallFloor {
		rp.fail("recall %.4f below floor %.2f", first.recall, w.recallFloor)
	}
	if m.ref != nil && m.ref.setSHA != want.SetSHA {
		rp.fail("hit set differs from a plain single-shard sweep of the same window")
	}
	if o.seed == goldenSeed && !o.tiny {
		gold, err := loadGolden()
		if err != nil {
			return err
		}
		if g, ok := gold[w.name]; !ok || g != want {
			rp.fail("outcome %+v differs from golden %+v", want, g)
		}
	}
	return nil
}

// Set-up is sampled at least minSetups times even when the budget holds
// fewer reps, and a set-up of a few milliseconds keeps being sampled
// until setupFloor of it has been measured (at most maxSetups times):
// short set-ups are the noisiest, and setup_s has no spread allowance
// between the driver's two sets of runs.
const (
	minSetups  = 5
	maxSetups  = 64
	setupFloor = 1.0 // seconds
)

// endToEndMetrics fills vals with the untraced pass's eight metrics.
func (e *env) endToEndMetrics(w workloadDef, o options, rp *report, m measured, vals map[string]float64) error {
	// Read first: the extra set-ups below must not raise the mark.
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	col := func(f func(repResult) float64) []float64 {
		xs := make([]float64, len(m.plain))
		for i, r := range m.plain {
			xs[i] = f(r)
		}
		return xs
	}
	put := func(name string, xs []float64) {
		d := summarize(xs)
		vals[name], rp.dists[name] = d.Median, d
	}
	setups := col(func(r repResult) float64 { return r.setupS })
	if w.scan != nil && o.reps == 0 { // a fixed rep count (tests, goldens) takes set-up as it came
		if w.warm {
			setups = setups[:1] // its reps share one deployment
		}
		spec := w.scan(e.sz)
		var sampled float64
		for _, s := range setups {
			sampled += s
		}
		for len(setups) < minSetups || (sampled < setupFloor && len(setups) < maxSetups) {
			st, err := e.setupScan(spec, nil)
			if err != nil {
				return err
			}
			setups = append(setups, st.totalS)
			sampled += st.totalS
		}
	}
	put("setup_s", setups)
	// A resumed leg's checkpoint load and verify are set-up too.
	vals["setup_s"] += median(col(func(r repResult) float64 { return r.loadS }))
	put("wall_ns_per_op", col(func(r repResult) float64 { return r.wallNs / float64(r.ops) }))
	put("cpu_ns_per_op", col(func(r repResult) float64 { return r.cpuNs / float64(r.ops) }))
	vals["peak_rss_mb"] = rss
	first := m.plain[0]
	vals["probes_per_op"] = float64(first.sent) / float64(first.ops)
	vals["recall"] = first.recall
	vals["output_precision"] = first.precision
	vals["completed_share"] = 1 - float64(rp.result.Failed)/float64(rp.result.Attempted)
	return nil
}

// layerMetrics fills vals with the traced pass's ledger: medians of the
// per-rep layer values, span distributions, kernels, and the honesty
// checks on the ledger itself.
func (e *env) layerMetrics(w workloadDef, rp *report, rec *recorder, m measured, vals map[string]float64) error {
	plain, traced, ref := m.plain, m.traced, m.ref
	keys := map[string]bool{}
	for _, r := range traced {
		for k := range r.layer {
			keys[k] = true
		}
	}
	for k := range keys {
		xs := make([]float64, 0, len(traced))
		for _, r := range traced {
			xs = append(xs, r.layer[k])
		}
		d := summarize(xs)
		vals[k], rp.dists[k] = d.Median, d
	}

	var sends []int64
	for _, s := range rec.recorded() {
		if s.kind == spSend {
			sends = append(sends, s.end-s.start)
		}
	}
	sort.Slice(sends, func(i, j int) bool { return sends[i] < sends[j] })
	vals["netsim.send_batch_p50_ns"] = percentile(sends, 0.50)
	vals["netsim.send_batch_p99_ns"] = percentile(sends, 0.99)
	rp.notes = append(rp.notes, fmt.Sprintf("netsim.send_batch percentiles over n=%d recorded SendBatch spans (%d spans recorded in all, cap %d)",
		len(sends), len(rec.recorded()), maxSpans))

	perOpWall := func(rs []repResult) float64 {
		xs := make([]float64, len(rs))
		for i, r := range rs {
			xs[i] = r.wallNs / float64(r.ops)
		}
		return median(xs)
	}
	untracedWall, tracedWall := perOpWall(plain), perOpWall(traced)
	// Overhead is taken pair by pair: the two reps of a pair ran back to
	// back, so they saw the same machine.
	overheads := make([]float64, len(traced))
	for i := range traced {
		overheads[i] = 100 * (traced[i].wallNs - plain[i].wallNs) / plain[i].wallNs
	}
	d := summarize(overheads)
	vals["bench.trace_overhead_pct"], rp.dists["bench.trace_overhead_pct"] = d.Median, d

	if w.scan == nil {
		return nil
	}
	spec := w.scan(e.sz)
	if w.warm {
		if err := e.telemetryOverhead(spec, vals); err != nil {
			return err
		}
	}
	if spec.ring > 0 {
		ringKernel(vals)
	}
	if spec.parallel > 1 {
		vals["parallel.efficiency"] = (ref.wallNs / float64(ref.ops)) / (float64(spec.parallel) * untracedWall)
	}
	if spec.resumable {
		if err := e.checkpointKernel(vals, tracedWall*float64(traced[0].ops)); err != nil {
			return err
		}
	}
	if err := e.scanKernels(spec, vals); err != nil {
		return err
	}
	// What the perm and xmap kernels leave unexplained of the scanner's
	// self time: one permutation step, one target derivation and one
	// probe build per target, one parse+classify per reply.
	if self := vals["xmap.self_ns_per_op"]; self > 0 {
		explained := vals["perm.next_ns"] + vals["xmap.target_for_ns"] + vals["xmap.probe_build_ns"] +
			vals["xmap.classify_ns"]*vals[repliesPerOp]
		vals["bench.kernel_residual_pct"] = 100 * (self - explained) / self
	}
	delete(vals, repliesPerOp)
	return nil
}

// telemetryOverhead runs extra warm reps in rounds of three — plain,
// with the telemetry registry and monitor attached, with the tracer
// (1/1024) and watchdog attached — and reports each attachment's cost
// over the plain rep of its own round.
func (e *env) telemetryOverhead(spec scanSpec, vals map[string]float64) error {
	eng := e.warm.dep.Engine
	sim := xmap.NewSimDriver(eng, e.warm.dep.Edge)
	reg := telemetry.New(telemetry.Options{Shards: 1})
	sim.RegisterTelemetry(reg)
	mon := telemetry.NewMonitor(reg, io.Discard, math.MaxInt32)
	tracer := telemetry.NewTracer(telemetry.TracerOptions{
		Seed: cliSeed(e.seed), SampleShift: 10, ScanStreams: 1, SimStreams: 1,
	})
	wd := telemetry.NewWatchdog(1, 8, tracer)

	wall := func(with attach) (float64, error) {
		r, err := e.runWarm(spec, nil, with)
		return r.wallNs, err
	}
	const rounds = 2
	var instrumented, traced []float64
	for i := 0; i < rounds; i++ {
		plain, err := wall(nil)
		if err != nil {
			return err
		}
		inst, err := wall(func(cfg *xmap.Config) { cfg.Telemetry, cfg.Monitor = reg, mon })
		if err != nil {
			return err
		}
		sim.RegisterTracer(tracer)
		tr, err := wall(func(cfg *xmap.Config) { cfg.Tracer, cfg.Watchdog = tracer, wd })
		eng.SetFlowTracer(nil)
		if err != nil {
			return err
		}
		instrumented = append(instrumented, 100*(inst-plain)/plain)
		traced = append(traced, 100*(tr-plain)/plain)
	}
	vals["telemetry.instrumented_overhead_pct"] = median(instrumented)
	vals["telemetry.traced_overhead_pct"] = median(traced)
	return nil
}

// updateGolden rewrites golden.json from one default-seed rep of every
// workload.
func updateGolden(o options) error {
	out := map[string]golden{}
	for _, w := range workloads {
		o.workload, o.seed, o.reps, o.trace, o.tiny = w.name, goldenSeed, 1, false, false
		start := time.Now()
		rp, err := runWorkload(o)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		out[w.name] = goldenOf(rp.first)
		fmt.Fprintf(os.Stderr, "%s: %+v (%s)\n", w.name, out[w.name], time.Since(start).Round(time.Millisecond))
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(sourceDir(), "golden.json"), append(data, '\n'), 0o644)
}
