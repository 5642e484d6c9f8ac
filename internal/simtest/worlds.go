package simtest

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync/atomic"
	"time"

	"repro/internal/ipv6"
	"repro/internal/loopscan"
	"repro/internal/lpm"
	"repro/internal/subnet"
	"repro/internal/telemetry"
	"repro/internal/topo"
	"repro/internal/uint128"
	"repro/internal/wire"
	"repro/internal/xmap"
	"repro/internal/zgrab"
)

// The rows below keep their own worlds; where they scan, they scan
// through runLeg and report through diff.

// diffRouteLookups runs every query through an LPM trie and the linear
// reference table loaded with the same routes, and reports any
// disagreement.
func diffRouteLookups(routes []Route, queries []ipv6.Addr) []string {
	trie := lpm.New[string]()
	lin := lpm.NewLinear[string]()
	for _, r := range routes {
		trie.Insert(r.Prefix, r.Label)
		lin.Insert(r.Prefix, r.Label)
	}
	var problems []string
	if trie.Len() != lin.Len() {
		problems = append(problems, fmt.Sprintf("route table sizes differ: trie %d, linear %d", trie.Len(), lin.Len()))
	}
	for _, a := range queries {
		tp, tv, tok := trie.LookupPrefix(a)
		lp, lv, lok := lin.LookupPrefix(a)
		if tok != lok || tp != lp || tv != lv {
			problems = append(problems, fmt.Sprintf(
				"route lookup diverges for %s: trie (%s,%q,%v) vs linear (%s,%q,%v)", a, tp, tv, tok, lp, lv, lok))
		}
	}
	return problems
}

// routesCheck drives the trie and the linear table through the same
// seeded random insert/remove/query workload and diffs every answer.
func routesCheck(e env, _ *leg, _ []*leg) ([]string, error) {
	rng := rand.New(rand.NewSource(e.seed ^ 0x10e7a8))
	trie := lpm.New[int]()
	lin := lpm.NewLinear[int]()
	var problems []string
	randAddr := func() ipv6.Addr {
		return ipv6.AddrFrom128(uint128.New(rng.Uint64(), rng.Uint64()))
	}
	var inserted []ipv6.Prefix
	for i := 0; i < 96; i++ {
		p, err := ipv6.NewPrefix(randAddr(), 8+rng.Intn(113))
		if err != nil {
			return nil, err
		}
		trie.Insert(p, i)
		lin.Insert(p, i)
		inserted = append(inserted, p)
	}
	for i := 0; i < 24; i++ {
		p := inserted[rng.Intn(len(inserted))]
		if tr, lr := trie.Remove(p), lin.Remove(p); tr != lr {
			problems = append(problems, fmt.Sprintf("Remove(%s) diverges: trie %v, linear %v", p, tr, lr))
		}
	}
	if trie.Len() != lin.Len() {
		problems = append(problems, fmt.Sprintf("Len diverges: trie %d, linear %d", trie.Len(), lin.Len()))
	}
	for _, p := range inserted {
		tv, tok := trie.Exact(p)
		lv, lok := lin.Exact(p)
		if tok != lok || tv != lv {
			problems = append(problems, fmt.Sprintf("Exact(%s) diverges: trie (%d,%v), linear (%d,%v)", p, tv, tok, lv, lok))
		}
	}
	var queries []ipv6.Addr
	for i := 0; i < 128; i++ {
		queries = append(queries, randAddr())
	}
	// Half the queries land inside installed prefixes so matches are
	// exercised, not just misses.
	for i := 0; i < 128; i++ {
		p := inserted[rng.Intn(len(inserted))]
		host := uint128.New(rng.Uint64(), rng.Uint64())
		if p.Bits() < 128 {
			host = host.And(uint128.Max.Rsh(uint(p.Bits())))
		} else {
			host = uint128.Zero
		}
		queries = append(queries, ipv6.AddrFrom128(p.Addr().Uint128().Or(host)))
	}
	for _, a := range queries {
		tp, tv, tok := trie.LookupPrefix(a)
		lp, lv, lok := lin.LookupPrefix(a)
		if tok != lok || tp != lp || tv != lv {
			problems = append(problems, fmt.Sprintf(
				"random lookup diverges for %s: trie (%s,%d,%v) vs linear (%s,%d,%v)", a, tp, tv, tok, lp, lv, lok))
		}
	}
	return problems, nil
}

// fixed is a build function handing out f.
func fixed(f *ISPFixture) func(int64) (*ISPFixture, error) {
	return func(int64) (*ISPFixture, error) { return f, nil }
}

// udpCheck scans through the lock-step sim driver and through the
// loopback UDP driver bridged into an identical fixture: the responder
// sets must agree exactly. On the UDP leg the invariant tap fires on the
// responder goroutine, exercising the checker under the race detector.
func udpCheck(e env, _ *leg, _ []*leg) ([]string, error) {
	sim, err := runLeg(e, legSpec{name: "sim", tap: true}, nil)
	if err != nil {
		return nil, err
	}
	f, err := BuildISPFixture(e.seed)
	if err != nil {
		return nil, err
	}
	drv, err := xmap.NewUDPDriver(f.Edge.Addr(), func(pkt []byte) [][]byte {
		f.Eng.Inject(f.Edge.Iface(), pkt)
		return f.Edge.DrainInto(nil)
	})
	if err != nil {
		return nil, err
	}
	defer drv.Close()
	udp, err := runLeg(e, legSpec{
		name: "udp", tap: true, build: fixed(f),
		wrap: func(*ISPFixture, *recordingDriver) xmap.Driver { return drv },
		cfg:  func(c *xmap.Config, _ env) { c.DrainEvery = 16 },
	}, nil)
	if err != nil {
		return nil, err
	}
	// UDP delivery is asynchronous: stragglers may still be in flight
	// after the scan returns. Re-drain until the sets agree or time runs
	// out, validating as the scanner does: per /64 sub-prefix.
	validate := xmap.NewValidator(scanSeed(e.seed))
	perSub := func(dst ipv6.Addr) uint32 { return validate(dst.WithIID(0)) }
	for deadline := time.Now().Add(20 * time.Second); len(udp.set) < len(sim.set) && time.Now().Before(deadline); {
		time.Sleep(5 * time.Millisecond)
		for _, raw := range drv.RecvBatch(nil) {
			if sum, err := wire.ParsePacket(raw); err == nil {
				if resp, ok := (&xmap.ICMPEchoProbe{}).Classify(sum, perSub); ok {
					udp.set[resp.Responder] = true
				}
			}
		}
	}
	return append(findings(sim, udp), diff(udp, sim, relation{rel: relSet})...), nil
}

// shardCheck scans every ISP of a small generated deployment on one
// engine and on a four-shard EngineGroup whose shards pump concurrently
// (ScanParallel), and diffs everything sharding must not change: the
// responder set, target and probe counts, total simulation events (the
// per-shard spine replicas preserve path lengths) and each subscriber's
// access-link packet total. Lossless and fault-free, the outcome does not
// depend on injection interleaving, which is the property pinned.
func shardCheck(e env, _ *leg, _ []*leg) ([]string, error) {
	const shards = 4
	cfg := topo.Config{Seed: e.seed, Scale: 0.0005, WindowWidth: 8, MaxDevicesPerISP: 25, OnlyISPs: []int{1, 5, 12, 13}}
	single, err := topo.Build(cfg)
	if err != nil {
		return nil, err
	}
	cfg.Shards = shards
	sharded, err := topo.Build(cfg)
	if err != nil {
		return nil, err
	}
	singleInv, shardedInv := NewInvariants(nil), NewInvariants(nil)
	singleInv.Attach(single.Engine)
	sharded.Group.SetTap(shardedInv.Tap)

	scanAll := func(name string, dep *topo.Deployment, iv *Invariants, spec legSpec) (*leg, error) {
		total := &leg{name: name, iv: iv, set: map[ipv6.Addr]bool{}, stats: make([]xmap.Stats, 1)}
		for _, isp := range dep.ISPs {
			spec.build = fixed(&ISPFixture{Eng: dep.Engine, Edge: dep.Edge, Window: isp.Window,
				Drv: xmap.NewSimDriver(dep.Engine, dep.Edge)})
			l, err := runLeg(e, spec, nil)
			if err != nil {
				return nil, err
			}
			total.stats[0].Targets += l.stats[0].Targets
			total.stats[0].Sent += l.stats[0].Sent
			for a := range l.set {
				total.set[a] = true
			}
		}
		return total, nil
	}
	one, err := scanAll("single", single, singleInv, legSpec{})
	if err != nil {
		return nil, err
	}
	group := xmap.NewGroupDriver(sharded.Group, sharded.Edge)
	many, err := scanAll("sharded", sharded, shardedInv, legSpec{workers: shards,
		wrap: func(*ISPFixture, *recordingDriver) xmap.Driver { return group }})
	if err != nil {
		return nil, err
	}

	problems := append(findings(one, many), diff(many, one, relation{relSet, []telemetry.Counter{telemetry.ScanTargets, telemetry.ScanSent}})...)
	if a, b := single.Engine.Counters().Events, sharded.Group.Counters().Events; a != b {
		problems = append(problems, fmt.Sprintf("event totals diverge: single %d, sharded %d", a, b))
	}
	singleDevs, shardedDevs := single.Devices(), sharded.Devices()
	if len(singleDevs) != len(shardedDevs) {
		return append(problems, fmt.Sprintf("device counts diverge: single %d, sharded %d",
			len(singleDevs), len(shardedDevs))), nil
	}
	for i, sd := range singleDevs {
		hd := shardedDevs[i]
		if sd.WANAddr != hd.WANAddr {
			problems = append(problems, fmt.Sprintf("device %d diverges: %s vs %s", i, sd.WANAddr, hd.WANAddr))
			continue
		}
		if a, b := sd.AccessLink.TotalPackets(), hd.AccessLink.TotalPackets(); a != b {
			problems = append(problems, fmt.Sprintf(
				"access-link totals diverge for %s: single %d, sharded %d", sd.WANAddr, a, b))
		}
	}
	return problems, nil
}

// toolLeg is what the three per-packet tools reported over one generated
// deployment, and what they cost the engine.
type toolLeg struct {
	leg
	subnet     subnet.Result
	subnetErr  error
	grabs      []*zgrab.DeviceResult
	loop       *loopscan.ScanResult
	loopEvents uint64
	// grabHits and grabMisses are the flow cache's account of the
	// service prober's packets alone: every one is addressed to a
	// device's own address.
	grabHits, grabMisses uint64
	// loopMisses and loopCompiles are its account of the loop sweep.
	loopMisses, loopCompiles uint64
}

func runToolLeg(seed int64, fastpath bool) (*toolLeg, error) {
	t := &toolLeg{leg: leg{name: "fastpath"}}
	if !fastpath {
		t.name = "interpreted"
	}
	dep, err := BuildLoopDeployment(seed)
	if err != nil {
		return nil, err
	}
	dep.Engine.SetFastPath(fastpath)
	isp := dep.ISPs[0]
	drv := xmap.NewSimDriver(dep.Engine, dep.Edge)
	t.subnet, t.subnetErr = subnet.Infer(drv, isp.Window.Base, subnet.Options{Seed: seed})
	prober := zgrab.New(drv)
	grabStart := dep.Engine.Counters()
	for _, dev := range isp.Devices {
		grab, err := prober.ProbeDevice(dev.WANAddr, nil)
		if err != nil {
			return nil, err
		}
		t.grabs = append(t.grabs, grab)
	}
	grabEnd := dep.Engine.Counters()
	t.grabHits = grabEnd.FastPathHits - grabStart.FastPathHits
	t.grabMisses = grabEnd.FastPathMisses - grabStart.FastPathMisses
	before := grabEnd.Events
	if t.loop, err = loopscan.NewDetector(drv).ScanWindows([]ipv6.Window{isp.Window}, scanSeed(seed)); err != nil {
		return nil, err
	}
	t.counters, t.eng = dep.Engine.Counters(), dep.Engine
	t.loopEvents = t.counters.Events - before
	t.loopMisses = t.counters.FastPathMisses - grabEnd.FastPathMisses
	t.loopCompiles = t.counters.FastPathCompiles - grabEnd.FastPathCompiles
	return t, nil
}

// toolsCheck runs the per-packet tools — sub-prefix inference, the
// eight-service prober over every device, the routing-loop sweep — over
// one generated deployment with the flow cache on and off, untapped and
// fault-free. Every packet they send goes through Engine.Inject, and the
// sweep rows tap their engines (an observed engine is interpreted), so
// this row is what runs the tools over the compiled path: identical
// reports, engine totals and link stats, cache hits on the compiled leg
// — in the service prober's phase too, whose packets all end at a
// device's own address, with at most one miss per device — and a loop
// sweep that costs fewer events there (loop fusion engaged at
// injection) and misses only where it compiles.
func toolsCheck(e env, _ *leg, _ []*leg) ([]string, error) {
	on, err := runToolLeg(e.seed, true)
	if err != nil {
		return nil, err
	}
	off, err := runToolLeg(e.seed, false)
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
	problems = append(problems, diff(&on.leg, &off.leg, relation{rel: relEngine | relLinks})...)
	// The comparison needs teeth on both sides: an inference and a loop
	// found at all, the cache used on one leg and untouched on the other.
	if off.subnetErr != nil || len(off.loop.VulnerableHops()) == 0 {
		problems = append(problems, fmt.Sprintf("interpreted tools leg inferred nothing (%v) or found no loop", off.subnetErr))
	}
	if a, b := on.counters, off.counters; a.FastPathHits == 0 || b.FastPathHits|b.FastPathMisses != 0 {
		problems = append(problems, fmt.Sprintf(
			"tools legs took the wrong path: %d hits fastpath, %d hits + %d misses interpreted",
			a.FastPathHits, b.FastPathHits, b.FastPathMisses))
	}
	// Every packet the service prober sends is addressed to a device's
	// own address: on the cache leg the first to each device compiles
	// its local entry and the rest replay it, so its phase has hits and
	// at most one miss per device.
	if on.grabHits == 0 || on.grabMisses > uint64(len(on.grabs)) {
		problems = append(problems, fmt.Sprintf(
			"service prober: %d hits, %d misses over %d devices fastpath: local delivery was interpreted",
			on.grabHits, on.grabMisses, len(on.grabs)))
	}
	// A loop entry serves every hop limit that dies on its turn of the
	// cycle, so the sweep's h and h+2 probes replay what its discovery
	// probes compiled: every miss of its phase is a compile, none a
	// refused guard.
	if on.loopMisses > on.loopCompiles {
		problems = append(problems, fmt.Sprintf(
			"loop sweep: %d misses, %d compiles fastpath: a compiled entry refused probes",
			on.loopMisses, on.loopCompiles))
	}
	if on.loopEvents >= off.loopEvents {
		problems = append(problems, fmt.Sprintf(
			"loop sweep pumped %d events fastpath, %d interpreted: loop fusion never engaged at injection",
			on.loopEvents, off.loopEvents))
	}
	return problems, nil
}

// wedgeDriver passes one worker's probes — those into the victim
// prefix — until a fixed number have gone through, then blocks every
// further SendBatch of them until release is closed: a deterministic
// model of a wedged packet layer (a NIC queue that stopped draining).
// Behind the worker's RingDriver it wedges that ring's pump, the ring
// fills, and the worker blocks in ring backpressure: exactly the hang
// the stall watchdog exists to name. Other workers' rings pump past it.
type wedgeDriver struct {
	*recordingDriver
	victim  ipv6.Prefix
	accept  int64
	sent    atomic.Int64
	release chan struct{}
}

func (d *wedgeDriver) SendBatch(pkts [][]byte) (int, error) {
	// A ring pump's burst holds one worker's probes only.
	if len(pkts) == 0 || len(pkts[0]) < 40 || !d.victim.Contains(ipv6.AddrFromBytes(pkts[0][24:40])) {
		return d.recordingDriver.SendBatch(pkts)
	}
	if d.sent.Load() >= d.accept {
		<-d.release
	}
	n, err := d.recordingDriver.SendBatch(pkts)
	d.sent.Add(int64(n))
	return n, err
}

// watchdogCheck wedges one of two workers of a run mid-send and checks
// that the stall watchdog names the stalled worker, its stage, and the
// ring-stall span its trace stream recorded last, while the cleanly
// finished worker stays exempt. Released, the scan completes normally.
func watchdogCheck(e env, _ *leg, _ []*leg) ([]string, error) {
	f, err := BuildISPFixture(e.seed)
	if err != nil {
		return nil, err
	}
	// Worker 1 of a two-worker run probes the window's upper half, its
	// second chunk.
	upper, err := f.Window.Base.Sub(f.Window.Base.Bits()+1, uint128.One)
	if err != nil {
		return nil, err
	}
	wedge := &wedgeDriver{victim: upper, accept: 8, release: make(chan struct{})}
	tracer := telemetry.NewTracer(telemetry.TracerOptions{
		Seed:        scanSeed(e.seed),
		SampleShift: 0, // trace everything: the wedged probe must span
		ScanStreams: 2,
		SimStreams:  1,
	})
	wd := telemetry.NewWatchdog(2, 4, tracer)
	f.Drv.RegisterTracer(tracer)

	// Both workers send through small rings; worker 1's pump wedges after
	// a few packets, and its goroutine ends up waiting on the full ring.
	// Worker 0 runs to completion: it must report StageDone and stay
	// exempt from every stall check, which start once it has finished.
	worker0Done := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		_, err := runLeg(e, legSpec{
			name: "wedged", build: fixed(f), workers: 2,
			wrap: func(_ *ISPFixture, d *recordingDriver) xmap.Driver { wedge.recordingDriver = d; return wedge },
			cfg: func(c *xmap.Config, _ env) {
				c.RingSize, c.Tracer, c.Watchdog = 8, tracer, wd
				c.OnCheckpoint = func(st xmap.ShardState) {
					if st.Shard == 0 && st.Done {
						close(worker0Done)
					}
				}
			},
		}, nil)
		done <- err
	}()
	var problems []string
	select {
	case <-worker0Done:
	case <-time.After(10 * time.Second):
		close(wedge.release)
		<-done
		return append(problems, "worker 0 never finished beside the wedged worker"), nil
	}

	// Tick the checker until the wedge is diagnosed. The checker clock is
	// our own loop counter — the watchdog only needs monotonicity.
	var diag *telemetry.StallDiagnosis
	deadline := time.Now().Add(10 * time.Second)
	for tick := uint64(1); diag == nil; tick++ {
		if time.Now().After(deadline) {
			problems = append(problems, "watchdog never diagnosed the wedged worker")
			break
		}
		for _, d := range wd.Check(tick) {
			if d.Shard == 0 {
				problems = append(problems, fmt.Sprintf("finished worker 0 diagnosed as stalled: %s", d))
				continue
			}
			// Wait for the diagnosis that proves the hang reached ring
			// backpressure; earlier ticks may catch the shard mid-start.
			if d.LastSpan == "ring-stall" {
				diag = &d
				break
			}
		}
		time.Sleep(time.Millisecond)
	}
	if diag != nil {
		if diag.Shard != 1 {
			problems = append(problems, fmt.Sprintf("diagnosis names shard %d, want 1", diag.Shard))
		}
		if diag.Stage != "send" {
			problems = append(problems, fmt.Sprintf("diagnosis names stage %q, want \"send\"", diag.Stage))
		}
		if diag.StalledFor < 4 {
			problems = append(problems, fmt.Sprintf("diagnosis fired after %d ticks, threshold is 4", diag.StalledFor))
		}
	}

	// Release the wedge: the scan must finish cleanly and the worker's
	// done stage must silence the watchdog again.
	close(wedge.release)
	if err := <-done; err != nil {
		problems = append(problems, fmt.Sprintf("released scan failed: %v", err))
	}
	if ds := wd.Check(1 << 62); len(ds) != 0 {
		problems = append(problems, fmt.Sprintf("watchdog still diagnoses after completion: %v", ds))
	}
	if tracer.SpansRecorded() == 0 {
		problems = append(problems, "tracer recorded no spans at full sampling")
	}
	return problems, nil
}
