package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/ipv6"
	"repro/internal/netsim"
	"repro/internal/simtest"
	"repro/internal/topo"
	"repro/internal/xmap"
)

// size fixes every workload's input size. Full is what BENCHMARK.json
// measures; tiny is the same code paths at a size the smoke test runs
// in seconds.
type size struct {
	coldWidth    int // scan_cold, scan_parallel, scan_resumable window bits
	warmWidth    int
	hostileWidth int
	followWidth  int
	maxDevices   int
	warmScans    int    // back-to-back scans per rescan_warm rep
	ckptEvery    uint64 // the CLI's -checkpoint-every default
	minInferHits int    // follow-up infers blocks with at least this many peripheries
}

var (
	fullSize = size{coldWidth: 20, warmWidth: 14, hostileWidth: 18, followWidth: 14,
		maxDevices: 4000, warmScans: 128, ckptEvery: 4096, minInferHits: 64}
	tinySize = size{coldWidth: 12, warmWidth: 10, hostileWidth: 12, followWidth: 10,
		maxDevices: 250, warmScans: 4, ckptEvery: 512, minInferHits: 64}
)

// scale is cmd/xmap's -scale default; every workload uses it.
const scale = 0.0005

// scanISP is the Table I block every scan workload sweeps.
const scanISP = 13

// env is what one child process shares across its reps.
type env struct {
	seed   int64
	sz     size
	outDir string
	name   string
	warm   *warmState
	// midCkpt and ckptCfg are the checkpoint the resumable workload left
	// at its cancellation point and the configuration it verifies
	// against: the checkpoint kernel's input.
	midCkpt *xmap.Checkpoint
	ckptCfg xmap.Config
}

// cliSeed is the scan seed cmd/xmap derives from -seed.
func cliSeed(seed int64) []byte { return []byte(fmt.Sprintf("xmap-cli-%d", seed)) }

// repResult is one rep's measurements. Layer holds the traced pass's
// per-layer values for this rep (nil when the rep ran untraced).
type repResult struct {
	setupS        float64 // topo.Build + driver + xmap.New
	loadS         float64 // checkpoint load + verify before a resumed leg
	wallNs, cpuNs float64
	ops, failed   uint64
	sent          uint64
	targets       uint64
	unique        uint64
	recall        float64
	precision     float64
	setSHA        string
	layer         map[string]float64
}

// scanSpec describes one whole-scan workload in terms of the calls
// cmd/xmap makes.
type scanSpec struct {
	width     int
	onlyISP   bool // build only the scanned ISP (as BenchmarkScannerThroughput does)
	shards    int  // topo engine shards; >1 selects GroupDriver
	parallel  int  // 0: xmap.New+Run; n: ScanParallel(n)
	ring      int
	hostile   bool // plant the four hostile regions, arm chaos faults, defend
	resumable bool // checkpoint at the CLI cadence, cancel at half, resume
}

func (e *env) topoConfig(s scanSpec) topo.Config {
	fast := true
	cfg := topo.Config{
		Seed: e.seed, Scale: scale, WindowWidth: s.width,
		MaxDevicesPerISP: e.sz.maxDevices, Shards: s.shards, FastPath: &fast,
	}
	if s.onlyISP {
		cfg.OnlyISPs = []int{scanISP}
	}
	if s.hostile {
		// Region lengths are relative to ISP 13's /60 delegations: a /52
		// is 256 window cells, a /54 is 64.
		cfg.Hostile = []topo.HostileSpec{
			{ISP: scanISP, Mode: netsim.HostileAliased, RegionBits: 52},
			{ISP: scanISP, Mode: netsim.HostileStorm, RegionBits: 54, StormFactor: 6},
			{ISP: scanISP, Mode: netsim.HostileSpoofer, RegionBits: 54},
			{ISP: scanISP, Mode: netsim.HostileMalformed, RegionBits: 54},
		}
	}
	return cfg
}

func ispByIndex(dep *topo.Deployment, index int) (*topo.ISPDeployment, error) {
	for _, isp := range dep.ISPs {
		if isp.Spec.Index == index {
			return isp, nil
		}
	}
	return nil, fmt.Errorf("ISP %d not in deployment", index)
}

// truth is the simulator-side ground truth a scan's output is scored
// against.
type truth struct {
	planted map[ipv6.Addr]bool // peripheries the scan should find
	known   map[ipv6.Addr]bool // every legitimate responder: peripheries and routers
}

func newTruth(dep *topo.Deployment, isp *topo.ISPDeployment) truth {
	t := truth{planted: map[ipv6.Addr]bool{}, known: map[ipv6.Addr]bool{}}
	for _, d := range dep.Devices() {
		t.known[d.WANAddr] = true
	}
	for i := 0; i < dep.Group.NumShards(); i++ {
		for _, l := range dep.Group.Shard(i).Links() {
			for _, end := range l.Ends() {
				switch end.Node().(type) {
				case *netsim.Router, *netsim.ISPRouter:
					t.known[end.Addr()] = true
				}
			}
		}
	}
devices:
	for _, d := range isp.Devices {
		if !isp.Window.Base.Contains(d.WANAddr) {
			continue
		}
		for _, h := range isp.Hostile {
			if h.Prefix.Contains(d.WANAddr) {
				continue devices
			}
		}
		t.planted[d.WANAddr] = true
	}
	return t
}

func (t truth) score(hits []ipv6.Addr) (recall, precision float64) {
	found, legit := 0, 0
	seen := make(map[ipv6.Addr]bool, len(hits))
	for _, a := range hits {
		if t.known[a] {
			legit++
		}
		if t.planted[a] && !seen[a] {
			found++
		}
		seen[a] = true
	}
	recall, precision = 1, 1
	if len(t.planted) > 0 {
		recall = float64(found) / float64(len(t.planted))
	}
	if len(hits) > 0 {
		precision = float64(legit) / float64(len(hits))
	}
	return recall, precision
}

// setHash is the sha256 of the sorted, de-duplicated responder set.
func setHash(hits []ipv6.Addr) string {
	s := append([]ipv6.Addr(nil), hits...)
	sort.Slice(s, func(i, j int) bool { return s[i].Less(s[j]) })
	h := sha256.New()
	for i, a := range s {
		if i > 0 && a == s[i-1] {
			continue
		}
		b := a.Bytes()
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// scanOutput is the CSV sink of one scan leg plus the harness's own
// record of what went through it.
type scanOutput struct {
	fh        *os.File
	counter   *countingWriter
	out       *xmap.CSVOutput
	hits      []ipv6.Addr
	writeErrs uint64
	rec       *recorder
}

func (e *env) openOutput(file string, rec *recorder) (*scanOutput, error) {
	fh, err := os.Create(filepath.Join(e.outDir, file))
	if err != nil {
		return nil, err
	}
	o := &scanOutput{fh: fh, rec: rec}
	var w io.Writer = fh
	if rec != nil {
		o.counter = &countingWriter{w: fh}
		w = o.counter
	}
	o.out, err = xmap.NewCSVOutput(w)
	if err != nil {
		fh.Close()
		return nil, err
	}
	return o, nil
}

// handle is the xmap.Handler: cmd/xmap's handler plus the hit record.
func (o *scanOutput) handle(r xmap.Response) {
	s := o.rec.now()
	if err := o.out.Write(r); err != nil {
		o.writeErrs++
	}
	o.hits = append(o.hits, r.Responder)
	o.rec.child(spOutput, s)
}

// finish flushes and closes the sink inside the timed interval.
func (o *scanOutput) finish() {
	s := o.rec.now()
	if err := o.out.Flush(); err != nil {
		o.writeErrs++
	}
	if err := o.fh.Close(); err != nil {
		o.writeErrs++
	}
	o.rec.child(spOutput, s)
}

// bytes is what the output module wrote (counted on traced reps only).
func (o *scanOutput) bytes() int64 {
	if o.counter == nil {
		return 0
	}
	return o.counter.n
}

// toolFailures counts the targets the scanner itself failed or dropped.
func toolFailures(st xmap.Stats) uint64 {
	return st.SendErrors + st.RetryDropped + st.RetryAbandoned
}

// scanSetup is everything cmd/xmap has in hand when it calls Run or
// ScanParallel, and how long getting there took.
type scanSetup struct {
	dep     *topo.Deployment
	isp     *topo.ISPDeployment
	drv     xmap.Driver
	cfg     xmap.Config
	scanner *xmap.Scanner // nil when the workload goes through ScanParallel
	buildS  float64       // topo.Build
	newS    float64       // xmap.New: permutation cycle and prime search
	totalS  float64
}

// setupScan is the set-up the setup_s metric times: topo.Build, the
// driver, and xmap.New where the workload calls it itself (ScanParallel
// builds its scanners inside the timed scan).
func (e *env) setupScan(s scanSpec, rec *recorder) (*scanSetup, error) {
	runtime.GC() // the previous deployment must not inflate this one's heap
	start := time.Now()
	endSetup := rec.open(spSetup)
	endBuild := rec.open(spTopoBuild)
	dep, err := topo.Build(e.topoConfig(s))
	endBuild()
	if err != nil {
		return nil, err
	}
	st := &scanSetup{dep: dep, buildS: time.Since(start).Seconds()}
	if st.isp, err = ispByIndex(dep, scanISP); err != nil {
		return nil, err
	}
	if s.shards > 1 {
		st.drv = xmap.NewGroupDriver(dep.Group, dep.Edge)
	} else {
		st.drv = xmap.NewSimDriver(dep.Engine, dep.Edge)
	}
	if rec != nil {
		st.drv = traceDriver(st.drv, rec)
	}
	st.cfg = xmap.Config{
		Window: st.isp.Window, Probe: &xmap.ICMPEchoProbe{}, Seed: cliSeed(e.seed),
		RingSize: s.ring,
	}
	if s.hostile {
		prof, _ := simtest.ProfileByName("chaos")
		dep.Group.SetFault(simtest.NewInjector(e.seed, prof).Apply)
		st.cfg.Retries, st.cfg.AIMD, st.cfg.Defend = 2, true, true
	}
	if s.parallel == 0 {
		t := time.Now()
		endNew := rec.open(spXmapNew)
		st.scanner, err = xmap.New(st.cfg, st.drv)
		endNew()
		if err != nil {
			return nil, err
		}
		st.newS = time.Since(t).Seconds()
	}
	endSetup()
	st.totalS = time.Since(start).Seconds()
	return st, nil
}

// runScan executes one rep of a whole-scan workload: set up, scan,
// write, score. rec is nil on an untraced rep; then nothing wraps the
// driver and the scanner talks to the simulator exactly as under
// cmd/xmap.
func (e *env) runScan(s scanSpec, rec *recorder) (repResult, error) {
	var res repResult
	st, err := e.setupScan(s, rec)
	if err != nil {
		return res, err
	}
	dep, isp, cfg := st.dep, st.isp, st.cfg
	res.setupS = st.totalS

	var heapMB float64
	if rec != nil {
		heapMB = heapInuseMB()
	}
	probe := beginLayerProbe(rec, dep)

	// The scan itself, timed from outside.
	out, err := e.openOutput(e.name+".csv", rec)
	if err != nil {
		return res, err
	}
	var hook checkpointHook
	ctx := context.Background()
	if s.resumable {
		cfg.CheckpointPath = filepath.Join(e.outDir, e.name+".ckpt")
		cfg.CheckpointEvery = e.sz.ckptEvery
		size, _ := isp.Window.Size()
		var cancel context.CancelFunc
		ctx, cancel = context.WithCancel(ctx)
		defer cancel()
		hook = checkpointHook{rec: rec, cancelAt: size.Lo / 2, cancel: cancel}
		cfg.OnCheckpoint = hook.onCheckpoint
	}
	scan := func(ctx context.Context, out *scanOutput) (xmap.Stats, time.Duration, time.Duration, error) {
		endScan := rec.open(spScan)
		cpu0, wall0 := cpuTime(), time.Now()
		var stats xmap.Stats
		var err error
		if s.parallel == 0 {
			stats, err = st.scanner.Run(ctx, out.handle)
		} else {
			stats, err = xmap.ScanParallel(ctx, cfg, st.drv, s.parallel, out.handle)
		}
		out.finish()
		wall, cpu := time.Since(wall0), cpuTime()-cpu0
		endScan()
		return stats, wall, cpu, err
	}
	stats, wall, cpu, err := scan(ctx, out)
	hits, writeErrs, outBytes := out.hits, out.writeErrs, out.bytes()

	var ckptBytes int64
	if s.resumable {
		if !errors.Is(err, context.Canceled) {
			return res, fmt.Errorf("first leg ended with %v, want cancellation at half", err)
		}
		if fi, serr := os.Stat(cfg.CheckpointPath); serr == nil {
			ckptBytes = fi.Size()
		}
		// Resuming is a second invocation: its checkpoint load and
		// verify are set-up, its scan continues the timed interval.
		t := time.Now()
		ck, lerr := xmap.LoadCheckpoint(cfg.CheckpointPath)
		if lerr != nil {
			return res, fmt.Errorf("loading checkpoint: %w", lerr)
		}
		if verr := ck.Verify(cfg, s.parallel); verr != nil {
			return res, verr
		}
		res.loadS = time.Since(t).Seconds()
		e.midCkpt, e.ckptCfg = ck, cfg
		cfg.ResumeFrom = ck
		hook.cancelAt = 0
		out2, oerr := e.openOutput(e.name+"-resumed.csv", rec)
		if oerr != nil {
			return res, oerr
		}
		var wall2, cpu2 time.Duration
		stats, wall2, cpu2, err = scan(context.Background(), out2)
		wall, cpu = wall+wall2, cpu+cpu2
		hits = append(hits, out2.hits...)
		writeErrs += out2.writeErrs
		outBytes += out2.bytes()
	}
	if err != nil {
		return res, err
	}

	res.wallNs, res.cpuNs = float64(wall), float64(cpu)
	res.ops, res.targets, res.sent, res.unique = stats.Targets, stats.Targets, stats.Sent, stats.Unique
	res.failed = toolFailures(stats) + writeErrs
	res.recall, res.precision = newTruth(dep, isp).score(hits)
	res.setSHA = setHash(hits)
	if uint64(len(hits)) != stats.Unique {
		return res, fmt.Errorf("handler saw %d hits, scanner reports %d unique", len(hits), stats.Unique)
	}

	if rec != nil {
		l := probe.end(stats, len(hits), outBytes, max(s.parallel, 1))
		l["topo.build_s"], l["topo.heap_mb"], l["xmap.new_s"] = st.buildS, heapMB, st.newS
		l["checkpoint.writes"], l["checkpoint.bytes"] = float64(hook.writes), float64(ckptBytes)
		if s.hostile {
			hostileMetrics(l, stats, st.scanner.BlockedPrefixes(), isp)
		}
		res.layer = l
	}
	return res, nil
}

// layerProbe brackets the scans of one traced rep: engine counters,
// allocator statistics and span totals read before and after, turned
// into per-op ledger entries. The zero probe (untraced rep) is inert.
type layerProbe struct {
	rec    *recorder
	dep    *topo.Deployment
	before netsim.Counters
	ms0    runtime.MemStats
	t0     totals
}

func beginLayerProbe(rec *recorder, dep *topo.Deployment) layerProbe {
	p := layerProbe{rec: rec, dep: dep}
	if rec != nil {
		p.before = dep.Group.Counters()
		runtime.ReadMemStats(&p.ms0)
		p.t0 = rec.totals()
	}
	return p
}

// end returns the ledger entries for the scans since begin. The
// scanner's self time is the scan span minus the spans of the calls it
// made out of the xmap package; with several shard goroutines (lanes)
// the scan span counts once per lane.
func (p layerProbe) end(st xmap.Stats, hits int, outBytes int64, lanes int) map[string]float64 {
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	d := p.rec.totals().sub(p.t0)
	ops := float64(st.Targets)
	self := int64(lanes) * d.sum[spScan]
	for _, k := range scanChildren {
		self -= d.sum[k]
	}
	l := map[string]float64{
		"xmap.allocs_per_op":        float64(ms1.Mallocs-p.ms0.Mallocs) / ops,
		"xmap.bytes_per_op":         float64(ms1.TotalAlloc-p.ms0.TotalAlloc) / ops,
		"xmap.self_ns_per_op":       float64(self) / ops,
		"xmap.drain_calls_per_kop":  float64(d.count[spRecv]) / ops * 1000,
		"netsim.send_ns_per_op":     float64(d.sum[spSend]) / ops,
		"netsim.recv_ns_per_op":     float64(d.sum[spRecv]) / ops,
		"netsim.release_ns_per_op":  float64(d.sum[spRelease]) / ops,
		"checkpoint.hook_ns_per_op": float64(d.sum[spCheckpoint]) / ops,
		"output.hits":               float64(hits),
		repliesPerOp:                float64(st.Received+st.Invalid) / ops,
	}
	if st.Received > 0 {
		l["xmap.dup_reply_share"] = float64(st.Duplicates) / float64(st.Received)
	}
	if hits > 0 {
		l["output.ns_per_hit"] = float64(d.sum[spOutput]) / float64(hits)
		l["output.bytes_per_hit"] = float64(outBytes) / float64(hits)
	}
	counterMetrics(l, p.before, p.dep.Group.Counters(), ops)
	return l
}

// repliesPerOp is an intermediate the kernel residual needs; it is
// removed before the metrics are reported.
const repliesPerOp = "netsim.replies_per_op"

// counterMetrics turns the engines' counter deltas over a scan into the
// netsim.* ledger entries; they repeat exactly for a seed.
func counterMetrics(l map[string]float64, before, after netsim.Counters, ops float64) {
	ev := float64(after.Events - before.Events)
	tx := float64(after.Transmissions - before.Transmissions)
	hit := float64(after.FastPathHits - before.FastPathHits)
	miss := float64(after.FastPathMisses - before.FastPathMisses)
	l["netsim.events_per_op"] = ev / ops
	l["netsim.transmissions_per_op"] = tx / ops
	l["netsim.fastpath_invalidations"] = float64(after.FastPathInvalidations - before.FastPathInvalidations)
	if hit+miss > 0 {
		l["netsim.fastpath_hit_share"] = hit / (hit + miss)
	}
	if tx > 0 {
		l["netsim.dropped_share"] = float64(after.Dropped-before.Dropped) / tx
	}
}

// hostileMetrics scores the reliability and defense layers against the
// planted ground truth.
func hostileMetrics(l map[string]float64, st xmap.Stats, blocked []ipv6.Prefix, isp *topo.ISPDeployment) {
	ops := float64(st.Targets)
	l["retry.retried_per_op"] = float64(st.Retried) / ops
	l["retry.exhausted_share"] = float64(st.RetryExhausted) / ops
	l["aimd.rate_down"] = float64(st.RateDown)
	l["alias.detected"] = float64(st.AliasDetected)
	l["defend.quarantined"] = float64(st.Quarantined)
	l["defend.shed"] = float64(st.Shed)
	// Precision: blocked detect-prefixes that lie inside a planted region.
	// Recall: the share of the planted regions' window cells they cover.
	inside, planted := 0, 0
	for _, p := range blocked {
		for _, h := range isp.Hostile {
			if h.Prefix.Contains(p.Addr()) && p.Bits() >= h.Prefix.Bits() {
				inside++
				break
			}
		}
	}
	for _, h := range isp.Hostile {
		planted += 1 << (isp.Window.To - h.Prefix.Bits())
	}
	if len(blocked) > 0 {
		l["alias.block_precision"] = float64(inside) / float64(len(blocked))
	}
	if planted > 0 {
		l["alias.region_recall"] = float64(inside) / float64(planted)
	}
}

// checkpointHook is the Config.OnCheckpoint the resumable workload
// installs. ScanParallel calls it right after its own sink has written
// the checkpoint file, on the scanner's goroutine, so the interval from
// the end of the preceding drain's last driver call to the hook's
// return covers state serialization plus the file write — the
// checkpoint layer's cost as seen from outside.
type checkpointHook struct {
	rec      *recorder
	writes   int
	cancelAt uint64 // cancel once this many targets are checkpointed (0 = never)
	cancel   context.CancelFunc
}

func (h *checkpointHook) onCheckpoint(st xmap.ShardState) {
	h.writes++
	if h.rec != nil {
		h.rec.child(spCheckpoint, h.rec.lastEnd.Load())
	}
	if h.cancelAt > 0 && st.Stats.Targets >= h.cancelAt {
		h.cancel()
	}
}

// warmState is rescan_warm's deployment, kept across reps so the flow
// cache stays warm.
type warmState struct {
	*scanSetup
	truth  truth
	heapMB float64
}

// attach is what a warm rep hangs on the scanner: nothing, the
// telemetry registry and monitor, or the tracer and watchdog.
type attach func(cfg *xmap.Config)

// runWarm executes one rescan_warm rep: K back-to-back full scans of
// the same window, each under its own scan seed (the same K seeds every
// rep, so reps are comparable exactly), CSV on. Only Run-to-return is
// timed; the per-scan xmap.New in between is not.
func (e *env) runWarm(spec scanSpec, rec *recorder, with attach) (repResult, error) {
	var res repResult
	if e.warm == nil {
		st, err := e.setupScan(spec, nil)
		if err != nil {
			return res, err
		}
		e.warm = &warmState{scanSetup: st, truth: newTruth(st.dep, st.isp), heapMB: heapInuseMB()}
	}
	w := e.warm
	res.setupS = w.totalS
	var drv xmap.Driver = xmap.NewSimDriver(w.dep.Engine, w.dep.Edge)
	if rec != nil {
		drv = traceDriver(drv, rec)
	}

	probe := beginLayerProbe(rec, w.dep)
	var wall, cpu time.Duration
	var total xmap.Stats
	var outBytes int64
	// The union of the K scans' responders: which /64 of a delegation a
	// scan seed probes decides whether a few loop-capped devices answer,
	// so single scans differ slightly and the union is what gets scored.
	union := map[ipv6.Addr]struct{}{}
	for k := 0; k < e.sz.warmScans; k++ {
		cfg := xmap.Config{
			Window: w.isp.Window,
			Seed:   []byte(fmt.Sprintf("xmap-cli-%d-rescan-%d", e.seed, k)),
		}
		if with != nil {
			with(&cfg)
		}
		scanner, err := xmap.New(cfg, drv)
		if err != nil {
			return res, err
		}
		out, err := e.openOutput(e.name+".csv", rec)
		if err != nil {
			return res, err
		}
		endScan := rec.open(spScan)
		cpu0, wall0 := cpuTime(), time.Now()
		stats, err := scanner.Run(context.Background(), out.handle)
		out.finish()
		wall += time.Since(wall0)
		cpu += cpuTime() - cpu0
		endScan()
		if err != nil {
			return res, err
		}
		if uint64(len(out.hits)) != stats.Unique {
			return res, fmt.Errorf("scan %d: handler saw %d hits, scanner reports %d unique", k, len(out.hits), stats.Unique)
		}
		total.Merge(stats)
		total.Unique += stats.Unique
		res.failed += out.writeErrs
		outBytes += out.bytes()
		for _, a := range out.hits {
			union[a] = struct{}{}
		}
	}
	hits := make([]ipv6.Addr, 0, len(union))
	for a := range union {
		hits = append(hits, a)
	}
	res.wallNs, res.cpuNs = float64(wall), float64(cpu)
	res.ops, res.targets, res.sent, res.unique = total.Targets, total.Targets, total.Sent, total.Unique
	res.failed += toolFailures(total)
	res.recall, res.precision = w.truth.score(hits)
	res.setSHA = setHash(hits)

	if rec != nil {
		l := probe.end(total, int(total.Unique), outBytes, 1)
		l["topo.build_s"], l["topo.heap_mb"], l["xmap.new_s"] = w.buildS, w.heapMB, w.newS
		res.layer = l
	}
	return res, nil
}
