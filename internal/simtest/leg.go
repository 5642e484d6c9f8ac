package simtest

import (
	"context"
	"encoding/binary"
	"fmt"
	"sync"

	"repro/internal/ipv6"
	"repro/internal/netsim"
	"repro/internal/telemetry"
	"repro/internal/uint128"
	"repro/internal/xmap"
)

// env is one point of a row's sweep: the harness seed, the profile and a
// scratch directory for checkpoint files.
type env struct {
	seed int64
	p    profile
	dir  string
}

// legSpec says how one leg scans: in which world, over which driver,
// with which Config, on how many workers, how many times.
type legSpec struct {
	name string
	// build makes the world; nil builds the profile's hostile fixture
	// (BuildISPFixture's world for an honest profile).
	build func(seed int64) (*ISPFixture, error)
	slow  bool // flow cache off: every crossing interpreted
	// tap observes everything: the profile's injector installed even when
	// it injects nothing, the invariant checker, a telemetry registry over
	// scanner, engine and injector, and a tracer sampling every target.
	tap   bool
	flows bool // record every flow's hop crossings
	cfg   func(c *xmap.Config, e env)
	// wrap puts a driver in front of the scanner. It is handed the world
	// and the fixture's driver behind the leg's probe recorder.
	wrap    func(f *ISPFixture, d *recordingDriver) xmap.Driver
	workers int
	// passes scans the world that many times, each under its own seed:
	// on a /64-granular fixture pass one compiles flows, pass two replays
	// them.
	passes int
	// resume continues the previous leg's world: from its checkpoint file
	// if it wrote one, else from its second-to-last state (its last
	// periodic one) and the responders reported up to it, as a kill -9
	// would leave them. A kill -9 resume is for one-worker legs.
	resume bool
}

// leg is what one scan leg reports: enough for diff to compare two legs
// and for a row's check to judge one.
type leg struct {
	name     string
	fix      *ISPFixture
	inj      *Injector   // nil when no fault layer was installed
	iv       *Invariants // nil without tap
	cfg      xmap.Config // as the last pass ran it
	stats    []xmap.Stats
	order    []ipv6.Addr // responders in handler order
	set      map[ipv6.Addr]bool
	dsts     []ipv6.Addr // every probe destination the recorder saw
	counters netsim.Counters
	eng      *netsim.Engine  // its links are read when a diff asks, once every leg is done
	flows    *traceCollector // nil unless legSpec.flows
	blocked  []ipv6.Prefix   // the alias detector's blocklist (one worker)
	states   []xmap.ShardState
	cuts     []int            // len(order) when each state was emitted
	from     *xmap.Checkpoint // what a resumed leg resumed from
	problems []string
}

// findings is every leg's own problems and invariant violations so far,
// each labeled with its leg: a caller whose world outlives the scan
// reads them last. Nil legs are skipped.
func findings(legs ...*leg) []string {
	var out []string
	for _, l := range legs {
		if l == nil {
			continue
		}
		found := l.problems
		if l.iv != nil {
			found = append(found, l.iv.Violations()...)
		}
		for _, p := range found {
			out = append(out, l.name+" leg: "+p)
		}
	}
	return out
}

// truthLeg is the fixture's ground truth as a leg, for diff.
func truthLeg(f *ISPFixture) *leg { return &leg{name: "ground truth", set: f.Truth()} }

// runLeg builds spec's world (or takes over prev's) and scans it.
func runLeg(e env, spec legSpec, prev *leg) (*leg, error) {
	l := &leg{name: spec.name, set: map[ipv6.Addr]bool{}}
	if spec.resume {
		l.fix, l.inj = prev.fix, prev.inj
	} else if err := l.world(e, spec); err != nil {
		return nil, err
	}
	f := l.fix
	rec := &recordingDriver{Driver: f.Drv}
	var drv xmap.Driver = rec
	if spec.wrap != nil {
		drv = spec.wrap(f, rec)
	}
	var mid *midScanDriver
	if f.midScan != nil {
		mid = &midScanDriver{Driver: drv, at: f.midScanAt, after: 1 << (f.Window.Width() - 1), mutate: f.midScan}
		drv = mid
	}
	var reg *telemetry.Registry
	var tracer *telemetry.Tracer
	if spec.tap {
		reg = telemetry.New(telemetry.Options{Shards: max(spec.workers, 1)})
		l.inj.RegisterTelemetry(reg)
		f.Drv.RegisterTelemetry(reg)
		// The tracer hangs on the scanner only, not the engine: the tail
		// of a failing run should read probe → reply, not be flooded by
		// hops.
		tracer = telemetry.NewTracer(telemetry.TracerOptions{
			Seed: scanSeed(e.seed), SampleShift: 0, Depth: 512, ScanStreams: max(spec.workers, 1),
		})
	}
	pender, _ := drv.(interface{ Pending() int })
	var mu sync.Mutex // workers > 1 report concurrently
	for pass := 0; pass < max(spec.passes, 1); pass++ {
		cfg := xmap.Config{Window: f.Window, Seed: scanSeed(e.seed), DedupExact: true, Telemetry: reg, Tracer: tracer}
		if spec.passes > 1 {
			cfg.Seed = append(cfg.Seed, byte('a'+pass))
		}
		if spec.cfg != nil {
			spec.cfg(&cfg, e)
		}
		var before map[ipv6.Addr]bool
		if spec.resume {
			var err error
			if cfg.ResumeFrom, err = prev.resumeState(cfg); err != nil {
				return nil, err
			}
			l.from = cfg.ResumeFrom
			before = map[ipv6.Addr]bool{}
			for _, a := range l.from.Responders {
				before[a] = true
			}
		}
		if sink := cfg.OnCheckpoint; sink != nil || cfg.CheckpointEvery > 0 {
			cfg.OnCheckpoint = func(st xmap.ShardState) {
				mu.Lock()
				// A ring in front of the scanner is flushed before every
				// checkpoint: no probe may sit in it unrecorded.
				if pender != nil && pender.Pending() != 0 {
					l.problems = append(l.problems, fmt.Sprintf(
						"checkpoint at %d targets emitted with %d probes still in the ring", st.Stats.Targets, pender.Pending()))
				}
				l.states = append(l.states, st)
				l.cuts = append(l.cuts, len(l.order))
				mu.Unlock()
				if sink != nil {
					sink(st)
				}
			}
		}
		handler := func(r xmap.Response) {
			mu.Lock()
			defer mu.Unlock()
			if before[r.Responder] {
				l.problems = append(l.problems, fmt.Sprintf(
					"responder %s, reported before the checkpoint it resumed from, was handed to the handler again",
					r.Responder))
			}
			l.order = append(l.order, r.Responder)
			l.set[r.Responder] = true
		}
		var stats xmap.Stats
		var err error
		if spec.workers > 1 {
			stats, err = xmap.ScanParallel(context.Background(), cfg, drv, spec.workers, handler)
		} else {
			var s *xmap.Scanner
			if s, err = xmap.New(cfg, drv); err != nil {
				return nil, err
			}
			stats, err = s.Run(context.Background(), handler)
			l.blocked = s.BlockedPrefixes()
		}
		if err != nil {
			return nil, err
		}
		l.stats, l.cfg = append(l.stats, stats), cfg
	}
	if ring, ok := drv.(*xmap.RingDriver); ok {
		ring.Close()
	}
	if mid != nil && mid.mutate != nil {
		return nil, fmt.Errorf("the scan ended before its mid-scan mutation was due (%d probes sent)", mid.sent)
	}
	if mid != nil && mid.err != nil {
		return nil, fmt.Errorf("mid-scan mutation: %w", mid.err)
	}
	l.dsts = rec.dsts
	l.counters, l.eng = f.Eng.Counters(), f.Eng
	return l, nil
}

// world builds the leg's world and installs what spec observes it with.
// An inactive profile installs no fault layer (unless tapped), so the
// engine's flow cache stays consulted; an armed one pins the engine to
// the interpreter.
func (l *leg) world(e env, spec legSpec) error {
	build := spec.build
	if build == nil {
		build = func(seed int64) (*ISPFixture, error) { return BuildHostileFixture(seed, e.p.hostile) }
	}
	f, err := build(e.seed)
	if err != nil {
		return err
	}
	l.fix = f
	f.Eng.SetFastPath(!spec.slow)
	if e.p.fault.Active() || spec.tap {
		l.inj = NewInjector(e.seed, e.p.fault)
		f.Eng.SetFault(l.inj.Apply)
	}
	if spec.tap {
		l.iv = NewInvariants(l.inj.DupCount)
		l.iv.Attach(f.Eng)
	}
	if spec.flows {
		l.flows = newTraceCollector()
		f.Eng.SetFlowTracer(l.flows)
	}
	return nil
}

// resumeState is the checkpoint a leg resuming from l starts from.
func (l *leg) resumeState(cfg xmap.Config) (*xmap.Checkpoint, error) {
	if l.cfg.CheckpointPath != "" {
		return xmap.LoadCheckpoint(l.cfg.CheckpointPath)
	}
	if len(l.states) < 2 {
		return nil, fmt.Errorf("%s leg emitted only %d checkpoint states", l.name, len(l.states))
	}
	i := len(l.states) - 2
	return &xmap.Checkpoint{
		Digest: xmap.ConfigDigest(cfg, 1), Shards: 1,
		Responders: l.order[:l.cuts[i]], States: []xmap.ShardState{l.states[i]},
	}, nil
}

// rel is the part of a relation diff compares besides Stats counters.
type rel uint8

const (
	relMissed  rel = 1 << iota // got finds every responder of ref
	relPhantom                 // got finds no responder outside ref
	relOrder                   // got hands responders over in ref's order
	relEngine                  // engine transmission, byte and drop totals
	relLinks                   // every link's per-direction stats
	relTrace                   // every flow's hop crossings
	relSet     = relMissed | relPhantom
)

// relation is what must agree between a leg and its reference.
type relation struct {
	rel
	stats []telemetry.Counter // compared pass by pass
}

// dedupCounters are the Stats a transmission path must not perturb.
var dedupCounters = []telemetry.Counter{
	telemetry.ScanSent, telemetry.ScanReceived, telemetry.ScanUnique,
	telemetry.ScanDuplicates, telemetry.ScanInvalid,
}

// counters indexes a Stats by its telemetry counters.
func counters(s xmap.Stats) map[telemetry.Counter]uint64 {
	m := map[telemetry.Counter]uint64{}
	s.Counters(func(c telemetry.Counter, v uint64) { m[c] = v })
	return m
}

// diff reports every way got departs from ref under r.
func diff(got, ref *leg, r relation) []string {
	var problems []string
	add := func(format string, args ...any) {
		problems = append(problems, got.name+" leg "+fmt.Sprintf(format, args...))
	}
	if r.rel&relMissed != 0 {
		for a := range ref.set {
			if !got.set[a] {
				add("missed responder %s of %s", a, ref.name)
			}
		}
	}
	if r.rel&relPhantom != 0 {
		for a := range got.set {
			if !ref.set[a] {
				add("found phantom responder %s, not in %s", a, ref.name)
			}
		}
	}
	if r.rel&relOrder != 0 {
		if len(got.order) != len(ref.order) {
			add("handed over %d responders, %s %d", len(got.order), ref.name, len(ref.order))
		}
		for i := range min(len(got.order), len(ref.order)) {
			if got.order[i] != ref.order[i] {
				add("diverged at result %d: %s, %s %s", i, got.order[i], ref.name, ref.order[i])
				break
			}
		}
	}
	if len(r.stats) > 0 && len(got.stats) != len(ref.stats) {
		add("ran %d passes, %s %d", len(got.stats), ref.name, len(ref.stats))
	}
	for pass := range min(len(got.stats), len(ref.stats)) {
		g, w := counters(got.stats[pass]), counters(ref.stats[pass])
		tag := ""
		if len(ref.stats) > 1 {
			tag = fmt.Sprintf("pass %d ", pass+1)
		}
		for _, c := range r.stats {
			if g[c] != w[c] {
				add("%s%s = %d, %s %d", tag, c, g[c], ref.name, w[c])
			}
		}
	}
	if r.rel&relEngine != 0 {
		a, b := got.counters, ref.counters
		if a.Transmissions != b.Transmissions || a.Bytes != b.Bytes || a.Dropped != b.Dropped {
			add("engine transmissions/bytes/dropped %d/%d/%d, %s %d/%d/%d",
				a.Transmissions, a.Bytes, a.Dropped, ref.name, b.Transmissions, b.Bytes, b.Dropped)
		}
	}
	if r.rel&relLinks != 0 {
		problems = append(problems, diffLinks(got, ref)...)
	}
	if r.rel&relTrace != 0 {
		problems = append(problems, diffFlowTraces(got, ref)...)
	}
	return problems
}

// linkSnap is one link's per-direction transmission counters, labeled by
// endpoint interface names (identical seeds build identical topologies,
// so legs correspond link for link in connection order).
type linkSnap struct {
	ends  [2]string
	stats [2]netsim.LinkStats
}

// snapshotLinks reads every link's per-direction counters, in
// connection order.
func snapshotLinks(eng *netsim.Engine) []linkSnap {
	var links []linkSnap
	for _, l := range eng.Links() {
		ends := l.Ends()
		links = append(links, linkSnap{
			ends:  [2]string{ends[0].Name(), ends[1].Name()},
			stats: [2]netsim.LinkStats{l.StatsFrom(ends[0]), l.StatsFrom(ends[1])},
		})
	}
	return links
}

// diffLinks compares two legs' link stats direction by direction.
func diffLinks(got, ref *leg) []string {
	gl, rl := snapshotLinks(got.eng), snapshotLinks(ref.eng)
	if len(gl) != len(rl) {
		return []string{fmt.Sprintf("%s leg link counts differ: %d vs %d (worlds diverged)",
			got.name, len(gl), len(rl))}
	}
	var problems []string
	for i, a := range gl {
		b := rl[i]
		for end := 0; end < 2; end++ {
			if a.ends[end] != b.ends[end] {
				problems = append(problems, fmt.Sprintf("%s leg link %d endpoint %d is %s vs %s (worlds diverged)",
					got.name, i, end, a.ends[end], b.ends[end]))
				continue
			}
			if a.stats[end] != b.stats[end] {
				problems = append(problems, fmt.Sprintf("%s leg link %s->%s stats %+v, %s %+v",
					got.name, a.ends[end], a.ends[1-end], a.stats[end], ref.name, b.stats[end]))
			}
		}
	}
	return problems
}

// hopRec is one recorded link crossing of a traced flow.
type hopRec struct {
	node, iface string
	hop         uint8
	drop        bool
}

// traceCollector is a netsim.FlowTracer that samples one flow in eight
// and keeps each sampled flow's full (node, iface, hop-limit) crossing
// sequence, so a fast-path engine's traces can be diffed hop for hop
// against the interpreted reference. A sampled flow is interpreted on
// either engine; the other seven in eight keep the compiled legs'
// flow-cache hits.
type traceCollector struct {
	flows map[[16]byte][]hopRec
	total uint64
}

func newTraceCollector() *traceCollector {
	return &traceCollector{flows: map[[16]byte][]hopRec{}}
}

// SampleFlow takes the top three bits of a hash of the target: pure,
// and uniform over the scanner's random IIDs.
func (t *traceCollector) SampleFlow(hi, lo uint64) bool {
	return (hi^lo)*0x9E3779B97F4A7C15>>61 == 0
}

// sampled reports whether the probes to dst belong to a sampled flow.
func (t *traceCollector) sampled(dst ipv6.Addr) bool {
	u := dst.Uint128()
	return t.SampleFlow(u.Hi, u.Lo)
}

func (t *traceCollector) HopCrossing(hi, lo uint64, node, iface string, hop uint8, drop bool) {
	var k [16]byte
	binary.BigEndian.PutUint64(k[:8], hi)
	binary.BigEndian.PutUint64(k[8:], lo)
	t.flows[k] = append(t.flows[k], hopRec{node: node, iface: iface, hop: hop, drop: drop})
	t.total++
}

// diffFlowTraces demands an identical (node, iface, hop-limit, drop)
// crossing sequence for every traced flow. Reporting is bounded: a
// systematic divergence would otherwise flood the failure with one line
// per flow.
func diffFlowTraces(got, ref *leg) []string {
	var problems []string
	const maxReports = 10
	mismatched := 0
	report := func(format string, args ...any) {
		mismatched++
		if len(problems) < maxReports {
			problems = append(problems, got.name+" leg "+fmt.Sprintf(format, args...))
		}
	}
	g, r := got.flows.flows, ref.flows.flows
	if len(g) != len(r) {
		report("traced %d flows, %s %d", len(g), ref.name, len(r))
	}
	for k, rseq := range r {
		gseq, ok := g[k]
		switch {
		case !ok:
			report("has no trace for flow %s", ipv6.AddrFromBytes(k[:]))
		case len(gseq) != len(rseq):
			report("flow %s crossed %d hops, %s %d", ipv6.AddrFromBytes(k[:]), len(gseq), ref.name, len(rseq))
		default:
			for i := range rseq {
				if gseq[i] != rseq[i] {
					report("flow %s hop %d = %+v, %s %+v", ipv6.AddrFromBytes(k[:]), i, gseq[i], ref.name, rseq[i])
					break
				}
			}
		}
	}
	for k := range g {
		if _, ok := r[k]; !ok {
			report("traced phantom flow %s", ipv6.AddrFromBytes(k[:]))
		}
	}
	if mismatched > maxReports {
		problems = append(problems, fmt.Sprintf("%s leg trace parity: %d divergences in total", got.name, mismatched))
	}
	return problems
}

// recordingDriver records every probe's destination on its way to the
// fixture's driver.
type recordingDriver struct {
	xmap.Driver
	mu   sync.Mutex // a run's workers send concurrently
	dsts []ipv6.Addr
}

func (d *recordingDriver) SendBatch(pkts [][]byte) (int, error) {
	d.mu.Lock()
	for _, pkt := range pkts {
		if len(pkt) >= 40 && pkt[0]>>4 == 6 {
			d.dsts = append(d.dsts, ipv6.AddrFrom128(uint128.FromBytes(pkt[24:40])))
		}
	}
	d.mu.Unlock()
	return d.Driver.SendBatch(pkts)
}

// Release forwards buffer recycling to the fixture's driver.
func (d *recordingDriver) Release(pkts [][]byte) {
	if r, ok := d.Driver.(xmap.Releaser); ok {
		r.Release(pkts)
	}
}

// chunkDriver splits every SendBatch into sub-batches of at most n
// packets, forcing the engine to see a chosen batch size regardless of
// the scanner's drain window. n = 1 is the per-probe injection path.
type chunkDriver struct {
	*recordingDriver
	n int
}

func (c *chunkDriver) SendBatch(pkts [][]byte) (int, error) {
	sent := 0
	for len(pkts) > 0 {
		m := min(c.n, len(pkts))
		k, err := c.recordingDriver.SendBatch(pkts[:m])
		sent += k
		if err != nil || k < m {
			return sent, err
		}
		pkts = pkts[m:]
	}
	return sent, nil
}

// midScanDriver runs mutate once, at the same probe on every leg: right
// before the first probe into at sent after the first after packets.
// The batch holding that probe is sent in two parts around the change.
type midScanDriver struct {
	xmap.Driver
	at          ipv6.Prefix
	after, sent int
	mutate      func() error
	err         error
}

func (m *midScanDriver) SendBatch(pkts [][]byte) (int, error) {
	for j, pkt := range pkts {
		if m.mutate == nil || m.sent+j < m.after || len(pkt) < 40 || !m.at.Contains(ipv6.AddrFromBytes(pkt[24:40])) {
			continue
		}
		n, err := m.send(pkts[:j])
		if err != nil || n < j {
			return n, err
		}
		m.err, m.mutate = m.mutate(), nil
		k, err := m.send(pkts[j:])
		return n + k, err
	}
	return m.send(pkts)
}

func (m *midScanDriver) send(pkts [][]byte) (int, error) {
	if len(pkts) == 0 {
		return 0, nil
	}
	n, err := m.Driver.SendBatch(pkts)
	m.sent += n
	return n, err
}
