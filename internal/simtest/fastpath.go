package simtest

import (
	"context"
	"encoding/binary"
	"fmt"
	"reflect"

	"repro/internal/ipv6"
	"repro/internal/loopscan"
	"repro/internal/netsim"
	"repro/internal/subnet"
	"repro/internal/xmap"
	"repro/internal/zgrab"
)

// fastPathLeg is one leg of the compiled-vs-interpreted oracle: the
// results of two back-to-back scans of one fixture plus every
// engine-side statistic a compiled replay must charge identically to
// sequential forwarding. Two passes because the fixture's delegation
// granularity is /64 and each pass probes every /64 once: pass one
// exercises cold compilation, pass two replays the warm cache.
type fastPathLeg struct {
	stats    [2]xmap.Stats
	set      map[ipv6.Addr]bool
	counters netsim.Counters
	links    []fastPathLink
	trace    *traceCollector
}

// hopRec is one recorded link crossing of a traced flow.
type hopRec struct {
	node, iface string
	hop         uint8
	drop        bool
}

// traceCollector is the oracle's netsim.FlowTracer: it samples every
// flow and keeps each flow's full (node, iface, hop-limit) crossing
// sequence, so the compiled fast path's synthesized traces can be
// diffed hop for hop against the interpreted reference.
type traceCollector struct {
	flows map[[16]byte][]hopRec
	total uint64
}

func newTraceCollector() *traceCollector {
	return &traceCollector{flows: map[[16]byte][]hopRec{}}
}

func (t *traceCollector) SampleFlow(hi, lo uint64) bool { return true }

func (t *traceCollector) HopCrossing(hi, lo uint64, node, iface string, hop uint8, drop bool) {
	var k [16]byte
	binary.BigEndian.PutUint64(k[:8], hi)
	binary.BigEndian.PutUint64(k[8:], lo)
	t.flows[k] = append(t.flows[k], hopRec{node: node, iface: iface, hop: hop, drop: drop})
	t.total++
}

// fastPathLink is one link's per-direction transmission counters,
// labeled by endpoint interface names (identical seeds build identical
// topologies, so legs correspond link-for-link in connection order).
type fastPathLink struct {
	ends  [2]string
	stats [2]netsim.LinkStats
}

// chunkDriver splits every SendBatch into sub-batches of at most n
// packets before handing them to the underlying driver, forcing the
// engine to see a chosen batch size regardless of the scanner's drain
// window. n = 1 is the per-probe injection path.
type chunkDriver struct {
	under xmap.Driver
	n     int
}

func (c *chunkDriver) SendBatch(pkts [][]byte) (int, error) {
	sent := 0
	for len(pkts) > 0 {
		m := min(c.n, len(pkts))
		k, err := c.under.SendBatch(pkts[:m])
		sent += k
		if err != nil || k < m {
			return sent, err
		}
		pkts = pkts[m:]
	}
	return sent, nil
}

func (c *chunkDriver) RecvBatch(buf [][]byte) [][]byte { return c.under.RecvBatch(buf) }
func (c *chunkDriver) SourceAddr() ipv6.Addr           { return c.under.SourceAddr() }

// Release forwards buffer recycling when the underlying driver supports
// it, so chunked legs keep the zero-alloc buffer loop.
func (c *chunkDriver) Release(pkts [][]byte) {
	if r, ok := c.under.(xmap.Releaser); ok {
		r.Release(pkts)
	}
}

// midScanDriver runs mutate once, between two send batches, as soon as
// after packets have gone out: a topology change in the middle of a
// scan, at the same probe on every leg.
type midScanDriver struct {
	xmap.Driver
	after, sent int
	mutate      func() error
	err         error
}

func (m *midScanDriver) SendBatch(pkts [][]byte) (int, error) {
	if m.mutate != nil && m.sent >= m.after {
		m.err, m.mutate = m.mutate(), nil
	}
	n, err := m.Driver.SendBatch(pkts)
	m.sent += n
	return n, err
}

// runFastPathLeg scans one freshly built, identically seeded fault
// world twice with the engine's compiled forwarding fast path on or
// off. batch > 0 caps the engine-visible send batch size via
// chunkDriver; 0 leaves the scanner's native bursts intact. A fixture's
// midScan mutation is applied halfway through the first pass.
func runFastPathLeg(build func(int64) (*ISPFixture, error), seed int64, p FaultProfile, fastpath bool, batch int) (fastPathLeg, error) {
	f, err := faultWorld(build, seed, p)
	if err != nil {
		return fastPathLeg{}, err
	}
	f.Eng.SetFastPath(fastpath)
	var drv xmap.Driver = f.Drv
	if batch > 0 {
		drv = &chunkDriver{under: f.Drv, n: batch}
	}
	var mid *midScanDriver
	if f.midScan != nil {
		mid = &midScanDriver{Driver: drv, after: 1 << (f.Window.Width() - 1), mutate: f.midScan}
		drv = mid
	}
	leg := fastPathLeg{set: map[ipv6.Addr]bool{}, trace: newTraceCollector()}
	f.Eng.SetFlowTracer(leg.trace)
	for pass := 0; pass < 2; pass++ {
		seedTag := append(scanSeed(seed), byte('a'+pass))
		s, err := xmap.New(xmap.Config{Window: f.Window, Seed: seedTag, DedupExact: true}, drv)
		if err != nil {
			return fastPathLeg{}, err
		}
		leg.stats[pass], err = s.Run(context.Background(), func(r xmap.Response) { leg.set[r.Responder] = true })
		if err != nil {
			return fastPathLeg{}, err
		}
	}
	if mid != nil && mid.mutate != nil {
		return fastPathLeg{}, fmt.Errorf("the scan ended before its mid-scan mutation was due (%d probes sent)", mid.sent)
	}
	if mid != nil && mid.err != nil {
		return fastPathLeg{}, fmt.Errorf("mid-scan mutation: %w", mid.err)
	}
	leg.counters = f.Eng.Counters()
	leg.links = snapshotLinks(f.Eng)
	return leg, nil
}

// fastPathPair runs the native-burst compiled leg and its interpreted
// reference.
func fastPathPair(build func(int64) (*ISPFixture, error), seed int64, p FaultProfile) (on, off fastPathLeg, err error) {
	if on, err = runFastPathLeg(build, seed, p, true, 0); err == nil {
		off, err = runFastPathLeg(build, seed, p, false, 0)
	}
	return on, off, err
}

// snapshotLinks reads every link's per-direction counters, in
// connection order.
func snapshotLinks(eng *netsim.Engine) []fastPathLink {
	var links []fastPathLink
	for _, l := range eng.Links() {
		ends := l.Ends()
		links = append(links, fastPathLink{
			ends:  [2]string{ends[0].Name(), ends[1].Name()},
			stats: [2]netsim.LinkStats{l.StatsFrom(ends[0]), l.StatsFrom(ends[1])},
		})
	}
	return links
}

// diffFastPathLegs compares one leg against the interpreted reference:
// dedup accounting per pass, engine totals, the responder set, and
// every link's per-direction stats must be identical.
func diffFastPathLegs(name string, got, ref fastPathLeg) []string {
	var problems []string
	type check struct {
		field    string
		got, ref uint64
	}
	checks := []check{
		{"Transmissions", got.counters.Transmissions, ref.counters.Transmissions},
		{"Bytes", got.counters.Bytes, ref.counters.Bytes},
		{"Dropped", got.counters.Dropped, ref.counters.Dropped},
	}
	for pass := 0; pass < 2; pass++ {
		g, r := got.stats[pass], ref.stats[pass]
		tag := fmt.Sprintf("pass %d ", pass+1)
		checks = append(checks,
			check{tag + "Sent", g.Sent, r.Sent},
			check{tag + "Received", g.Received, r.Received},
			check{tag + "Unique", g.Unique, r.Unique},
			check{tag + "Duplicates", g.Duplicates, r.Duplicates},
			check{tag + "Invalid", g.Invalid, r.Invalid},
		)
	}
	for _, c := range checks {
		if c.got != c.ref {
			problems = append(problems, fmt.Sprintf(
				"%s leg %s = %d, interpreted %d", name, c.field, c.got, c.ref))
		}
	}
	for a := range ref.set {
		if !got.set[a] {
			problems = append(problems, fmt.Sprintf("%s leg missed responder %s", name, a))
		}
	}
	for a := range got.set {
		if !ref.set[a] {
			problems = append(problems, fmt.Sprintf("%s leg found phantom responder %s", name, a))
		}
	}
	problems = append(problems, diffLinks(name, got.links, ref.links)...)
	if got.trace != nil && ref.trace != nil {
		problems = append(problems, diffFlowTraces(name, got.trace, ref.trace)...)
	}
	return problems
}

// diffLinks compares two legs' link snapshots direction by direction.
func diffLinks(name string, got, ref []fastPathLink) []string {
	if len(got) != len(ref) {
		return []string{fmt.Sprintf(
			"%s leg link counts differ: %d vs %d (fixtures diverged)", name, len(got), len(ref))}
	}
	var problems []string
	for i := range got {
		a, b := got[i], ref[i]
		for end := 0; end < 2; end++ {
			if a.ends[end] != b.ends[end] {
				problems = append(problems, fmt.Sprintf(
					"%s leg link %d endpoint %d is %s vs %s (fixtures diverged)", name, i, end, a.ends[end], b.ends[end]))
				continue
			}
			if a.stats[end] != b.stats[end] {
				problems = append(problems, fmt.Sprintf(
					"%s leg link %s->%s stats %+v, interpreted %+v",
					name, a.ends[end], a.ends[1-end], a.stats[end], b.stats[end]))
			}
		}
	}
	return problems
}

// diffFlowTraces is the trace-parity leg: every traced flow must have
// recorded an identical (node, iface, hop-limit, drop) crossing
// sequence on both legs — the compiled path's synthesized hops against
// the interpreted reference. Bounded reporting: systematic divergence
// would otherwise flood the failure with one line per flow.
func diffFlowTraces(name string, got, ref *traceCollector) []string {
	var problems []string
	const maxReports = 10
	report := func(format string, args ...any) {
		if len(problems) < maxReports {
			problems = append(problems, fmt.Sprintf(format, args...))
		}
	}
	if len(got.flows) != len(ref.flows) {
		report("%s leg traced %d flows, interpreted %d", name, len(got.flows), len(ref.flows))
	}
	mismatched := 0
	for k, rseq := range ref.flows {
		gseq, ok := got.flows[k]
		if !ok {
			mismatched++
			report("%s leg has no trace for flow %s", name, ipv6.AddrFromBytes(k[:]))
			continue
		}
		if len(gseq) != len(rseq) {
			mismatched++
			report("%s leg flow %s crossed %d hops, interpreted %d",
				name, ipv6.AddrFromBytes(k[:]), len(gseq), len(rseq))
			continue
		}
		for i := range rseq {
			if gseq[i] != rseq[i] {
				mismatched++
				report("%s leg flow %s hop %d = %+v, interpreted %+v",
					name, ipv6.AddrFromBytes(k[:]), i, gseq[i], rseq[i])
				break
			}
		}
	}
	for k := range got.flows {
		if _, ok := ref.flows[k]; !ok {
			mismatched++
			report("%s leg traced phantom flow %s", name, ipv6.AddrFromBytes(k[:]))
		}
	}
	if mismatched > maxReports {
		problems = append(problems, fmt.Sprintf(
			"%s leg trace parity: %d flows diverged in total", name, mismatched))
	}
	return problems
}

// fastPathLegs runs the oracle's fault-free battery over one fixture
// builder: the compiled leg against the interpreted reference, then the
// compiled leg again at every batch size, each diffed against that same
// reference. It returns the native-burst compiled leg for
// fixture-specific checks.
func fastPathLegs(tag string, build func(int64) (*ISPFixture, error), seed int64) (fastPathLeg, []string, error) {
	on, off, err := fastPathPair(build, seed, FaultProfile{})
	if err != nil {
		return on, nil, err
	}
	problems := diffFastPathLegs(tag, on, off)
	// The comparison is only meaningful if each leg took the path it
	// claims: fused replays (which synthesized their flow crossings
	// rather than silencing the tracer) on one side, none on the other.
	if on.counters.FastPathHits == 0 {
		problems = append(problems, tag+" leg recorded zero flow-cache hits: fast path never engaged")
	}
	if on.trace.total == 0 {
		problems = append(problems, tag+" leg captured zero flow crossings: trace synthesis never engaged")
	}
	if off.counters.FastPathHits != 0 || off.counters.FastPathMisses != 0 {
		problems = append(problems, fmt.Sprintf(
			"%s interpreted leg recorded flow-cache traffic (%d hits, %d misses): SetFastPath(false) leaked",
			tag, off.counters.FastPathHits, off.counters.FastPathMisses))
	}
	if on.counters.Events >= off.counters.Events {
		problems = append(problems, fmt.Sprintf(
			"%s leg pumped %d events, interpreted %d: fusing saved nothing",
			tag, on.counters.Events, off.counters.Events))
	}
	// Every probe of both passes was offered to the cache exactly once.
	if c, sent := on.counters, on.stats[0].Sent+on.stats[1].Sent; c.FastPathHits+c.FastPathMisses != sent {
		problems = append(problems, fmt.Sprintf(
			"%s leg counted %d hits + %d misses for %d probes: the account does not partition the injections",
			tag, c.FastPathHits, c.FastPathMisses, sent))
	}

	for _, bs := range []int{1, 7, 64, netsim.InjectRunLen} {
		name := fmt.Sprintf("%s[batch=%d]", tag, bs)
		leg, err := runFastPathLeg(build, seed, FaultProfile{}, true, bs)
		if err != nil {
			return on, nil, err
		}
		problems = append(problems, diffFastPathLegs(name, leg, off)...)
		if leg.counters.FastPathHits == 0 {
			problems = append(problems, name+" leg recorded zero flow-cache hits: fast path never engaged")
		}
	}
	return on, problems, nil
}

// RunFastPathOracle is the compiled-vs-interpreted differential oracle:
// the same seeded scan, against the same seeded world, with the netsim
// flow cache on (injected runs replayed fused) and off (every crossing
// interpreted). The fast path must be invisible to everything except
// the event count: identical responder sets, dedup accounting, engine
// transmission/byte/drop totals, per-link per-direction stats and flow
// traces. Counters.Events is deliberately NOT compared: collapsing ~13
// events per probe into one fused event is the fast path's entire point.
//
// Under an active fault profile the cache is not consulted at all, so
// one on/off pair asserts exactly that: no hits, no misses, no compiles
// and — here — an equal event count. The battery below runs fault-free.
//
// The same interpreted reference also judges every batch size: extra
// fast-path legs rerun the scan with the engine-visible send batch
// clamped to 1 (Engine.Inject's shape), 7 (odd, straddles drain
// windows), 64 (the scanner's native drain window) and
// netsim.InjectRunLen (the resolve-run scratch size, so larger bursts
// span multiple locked runs). The whole battery then runs a second time
// over the sparse fixture, where entries span empty stretches of the
// window rather than single cells.
func RunFastPathOracle(seed int64, p FaultProfile) ([]string, error) {
	if p.Active() {
		on, off, err := fastPathPair(BuildISPFixture, seed, p)
		if err != nil {
			return nil, err
		}
		problems := diffFastPathLegs("fastpath[armed]", on, off)
		if c := on.counters; c.FastPathHits|c.FastPathMisses|c.FastPathCompiles != 0 || c.Events != off.counters.Events {
			problems = append(problems, fmt.Sprintf(
				"armed engine consulted the flow cache: %d hits, %d misses, %d compiles, %d events vs %d interpreted",
				c.FastPathHits, c.FastPathMisses, c.FastPathCompiles, c.Events, off.counters.Events))
		}
		return problems, nil
	}
	_, problems, err := fastPathLegs("fastpath", BuildISPFixture, seed)
	if err != nil {
		return nil, err
	}

	// Sparse leg: the dense fixture is nearly all delegations. The same
	// battery over a 2^12-cell window holding a dozen CPEs and a hostile
	// /58 replays the block's gap flow at every batch size — and must
	// actually be served by it: all the empty space is one compile, each
	// device a couple more, and only the hostile cells (interpreted, so
	// keyed per address: one exact negative per cell per pass) miss
	// every time.
	son, sparse, err := fastPathLegs("sparse", BuildSparseFixture, seed)
	if err != nil {
		return nil, err
	}
	problems = append(problems, sparse...)
	const hostileProbes = 2 << (64 - sparseHostileBits) // two passes
	c := son.counters
	share := float64(c.FastPathHits) / float64(c.FastPathHits+c.FastPathMisses-hostileProbes)
	if c.FastPathCompiles > sparseCPEs+hostileProbes+8 || !(share > 0.99) || c.FastPathEvictions != 0 {
		problems = append(problems, fmt.Sprintf(
			"sparse leg compiled %d flows (want <= %d devices + %d hostile probes + 8), hit share outside the hostile region %.4f (want > 0.99), %d evictions: the gap flow never engaged",
			c.FastPathCompiles, sparseCPEs, hostileProbes, share, c.FastPathEvictions))
	}

	// Mid-scan Delegate: halfway through pass one a CPE wired at build
	// time is delegated a LAN /64 the live gap flow covers. Nothing but
	// Delegate itself invalidates (no interface, no link is added), and
	// the flow holds a pointer to the router's emptiness index: this is
	// the leg that would see an old entry answer for the delegated cell.
	don, doff, err := fastPathPair(buildLateLANFixture, seed, FaultProfile{})
	if err != nil {
		return nil, err
	}
	problems = append(problems, diffFastPathLegs("sparse[delegate]", don, doff)...)
	if don.counters.FastPathHits == 0 {
		problems = append(problems, "sparse[delegate] leg recorded zero flow-cache hits: fast path never engaged")
	}

	// Hostile legs: the flow cache must stay invisible under every
	// adversarial responder model too. Hostile nodes install no compile
	// hooks, so their flows are interpreted (a negative cache entry)
	// while the honest flows still compile — the on leg must therefore
	// still record cache hits.
	for _, hp := range HostileProfiles {
		if hp.Mode == 0 {
			continue
		}
		name := "fastpath[hostile=" + hp.Name + "]"
		build := func(seed int64) (*ISPFixture, error) { return BuildHostileFixture(seed, hp) }
		hon, hoff, err := fastPathPair(build, seed, FaultProfile{})
		if err != nil {
			return nil, err
		}
		problems = append(problems, diffFastPathLegs(name, hon, hoff)...)
		if hon.counters.FastPathHits == 0 {
			problems = append(problems, name+" leg recorded zero flow-cache hits: fast path never engaged")
		}
	}
	return problems, nil
}

// toolLeg is one leg of the tool-parity oracle: what the three
// per-packet tools reported over one generated deployment, and what
// they cost the engine.
type toolLeg struct {
	subnet     subnet.Result
	subnetErr  error
	grabs      []*zgrab.DeviceResult
	loop       *loopscan.ScanResult
	loopEvents uint64
	counters   netsim.Counters
	links      []fastPathLink
}

func runToolLeg(seed int64, fastpath bool) (toolLeg, error) {
	var leg toolLeg
	dep, err := BuildLoopDeployment(seed)
	if err != nil {
		return leg, err
	}
	dep.Engine.SetFastPath(fastpath)
	isp := dep.ISPs[0]
	drv := xmap.NewSimDriver(dep.Engine, dep.Edge)
	leg.subnet, leg.subnetErr = subnet.Infer(drv, isp.Window.Base, subnet.Options{Seed: seed})
	prober := zgrab.New(drv)
	for _, dev := range isp.Devices {
		grab, err := prober.ProbeDevice(dev.WANAddr, nil)
		if err != nil {
			return leg, err
		}
		leg.grabs = append(leg.grabs, grab)
	}
	before := dep.Engine.Counters().Events
	leg.loop, err = loopscan.NewDetector(drv).ScanWindows([]ipv6.Window{isp.Window}, scanSeed(seed))
	if err != nil {
		return leg, err
	}
	leg.counters = dep.Engine.Counters()
	leg.loopEvents = leg.counters.Events - before
	leg.links = snapshotLinks(dep.Engine)
	return leg, nil
}

// RunToolParityOracle runs the per-packet tools — sub-prefix inference,
// the eight-service prober over every device, the routing-loop sweep —
// over one generated deployment with the flow cache on and off, no tap,
// fault-free. Every packet they send goes through Engine.Inject, and
// the Discovery/Subnet/Loop scenarios attach the Invariants tap (an
// observed engine is interpreted), so this leg is what runs the tools
// over the compiled path: identical reports, identical per-link stats,
// cache hits on the on leg, and a loop sweep that costs fewer events
// there (loop fusion engaged at injection).
func RunToolParityOracle(seed int64) ([]string, error) {
	on, err := runToolLeg(seed, true)
	if err != nil {
		return nil, err
	}
	off, err := runToolLeg(seed, false)
	if err != nil {
		return nil, err
	}
	var problems []string
	differ := func(what string, got, ref any) {
		if !reflect.DeepEqual(got, ref) {
			problems = append(problems, fmt.Sprintf("%s: fastpath %+v, interpreted %+v", what, got, ref))
		}
	}
	differ("subnet.Infer error", fmt.Sprint(on.subnetErr), fmt.Sprint(off.subnetErr))
	differ("subnet.Infer", on.subnet, off.subnet)
	differ("zgrab.ProbeDevice", on.grabs, off.grabs)
	differ("loop sweep", on.loop, off.loop)
	a, b := on.counters, off.counters
	differ("engine transmissions/bytes/dropped",
		[3]uint64{a.Transmissions, a.Bytes, a.Dropped}, [3]uint64{b.Transmissions, b.Bytes, b.Dropped})
	problems = append(problems, diffLinks("tools", on.links, off.links)...)
	// The comparison needs teeth on both sides: an inference and a loop
	// found at all, the cache used on one leg and untouched on the other.
	if off.subnetErr != nil || len(off.loop.VulnerableHops()) == 0 {
		problems = append(problems, fmt.Sprintf("interpreted tools leg inferred nothing (%v) or found no loop", off.subnetErr))
	}
	if a.FastPathHits == 0 || b.FastPathHits|b.FastPathMisses != 0 {
		problems = append(problems, fmt.Sprintf(
			"tools legs took the wrong path: %d hits fastpath, %d hits + %d misses interpreted",
			a.FastPathHits, b.FastPathHits, b.FastPathMisses))
	}
	if on.loopEvents >= off.loopEvents {
		problems = append(problems, fmt.Sprintf(
			"loop sweep pumped %d events fastpath, %d interpreted: loop fusion never engaged at injection",
			on.loopEvents, off.loopEvents))
	}
	return problems, nil
}
