package simtest

import (
	"context"
	"fmt"

	"repro/internal/ipv6"
	"repro/internal/loopscan"
	"repro/internal/subnet"
	"repro/internal/telemetry"
	"repro/internal/xmap"
)

// DiscoveryRun is one seeded xmap scan over the ISP fixture under one
// fault profile.
type DiscoveryRun struct {
	Stats xmap.Stats
	// Order is every responder in handler-callback order; Set is the
	// same as a set. If the two disagree in size, dedup double-counted.
	Order []ipv6.Addr
	Set   map[ipv6.Addr]bool
	// ProbeDsts is every destination the scanner actually probed.
	ProbeDsts []ipv6.Addr
	// Violations are the invariant-checker findings for the run.
	Violations []string
	// Spans is the scanner's span stream (every target traced),
	// attached to failure messages via AttachTrace.
	Spans []telemetry.Span
	// Snapshot is the run's merged telemetry view (scan, engine and
	// injector counters in one document).
	Snapshot *telemetry.Snapshot
}

// runDiscovery performs one scan with the chosen dedup implementation.
func runDiscovery(seed int64, p FaultProfile, exact bool) (DiscoveryRun, error) {
	out := DiscoveryRun{Set: map[ipv6.Addr]bool{}}
	f, err := BuildISPFixture(seed)
	if err != nil {
		return out, err
	}
	inj := NewInjector(seed, p)
	iv := NewInvariants(inj.DupCount)
	f.Eng.SetFault(inj.Apply)
	iv.Attach(f.Eng)
	rec := &recordingDriver{Driver: f.Drv}
	reg := telemetry.New(telemetry.Options{Shards: 1})
	inj.RegisterTelemetry(reg)
	f.Drv.RegisterTelemetry(reg)
	// The tracer hangs on the scanner only, not the engine: the tail of
	// a failing run should read probe → reply, not be flooded by hops.
	tracer := telemetry.NewTracer(telemetry.TracerOptions{
		Seed: scanSeed(seed), SampleShift: 0, Depth: 512,
	})
	s, err := xmap.New(xmap.Config{
		Window: f.Window, Seed: scanSeed(seed), DedupExact: exact,
		Telemetry: reg, Tracer: tracer,
	}, rec)
	if err != nil {
		return out, err
	}
	stats, err := s.Run(context.Background(), func(r xmap.Response) {
		out.Order = append(out.Order, r.Responder)
		out.Set[r.Responder] = true
	})
	if err != nil {
		return out, err
	}
	out.Stats = stats
	out.ProbeDsts = rec.dsts
	out.Violations = iv.Violations()
	out.Spans = tracer.AppendSpans(0, nil)
	out.Snapshot = reg.Snapshot()
	return out, nil
}

// RunDiscoveryScenario scans the ISP fixture under the profile three
// times — exact dedup, bloom dedup, and an exact replay — and checks
// every harness property: wire invariants, hits-are-real, dedup doesn't
// double-count, completeness on lossless profiles, bloom-vs-exact set
// equality, trie-vs-linear route agreement over the probed addresses,
// and bit-exact replay determinism.
func RunDiscoveryScenario(seed int64, p FaultProfile) ([]string, error) {
	exact, err := runDiscovery(seed, p, true)
	if err != nil {
		return nil, err
	}
	bloom, err := runDiscovery(seed, p, false)
	if err != nil {
		return nil, err
	}
	replay, err := runDiscovery(seed, p, true)
	if err != nil {
		return nil, err
	}
	var problems []string
	problems = appendPrefixed(problems, "exact run: ", exact.Violations)
	problems = appendPrefixed(problems, "bloom run: ", bloom.Violations)

	// Sends are unaffected by receive-side faults.
	if exact.Stats.Sent != 256 {
		problems = append(problems, fmt.Sprintf("sent %d probes, want 256", exact.Stats.Sent))
	}
	// Dedup never double-counts: the handler sees each responder once.
	if len(exact.Order) != len(exact.Set) {
		problems = append(problems, fmt.Sprintf(
			"exact dedup double-counted: %d callbacks for %d responders", len(exact.Order), len(exact.Set)))
	}
	if exact.Stats.Unique != uint64(len(exact.Order)) {
		problems = append(problems, fmt.Sprintf(
			"stats.Unique %d != %d handler callbacks", exact.Stats.Unique, len(exact.Order)))
	}
	// Every scanner hit corresponds to a real periphery (or the ISP
	// router answering for unassigned space).
	f, err := BuildISPFixture(seed)
	if err != nil {
		return nil, err
	}
	truth := f.Truth()
	for a := range exact.Set {
		if !truth[a] {
			problems = append(problems, fmt.Sprintf("phantom responder %s not in ground truth", a))
		}
	}
	// Lossless profiles must discover the complete truth.
	if p.Lossless() {
		for a := range truth {
			if !exact.Set[a] {
				problems = append(problems, fmt.Sprintf("lossless profile missed responder %s", a))
			}
		}
	}
	// Oracle: bloom dedup and exact dedup see identical traffic, so the
	// responder sets must match even under faults.
	for a := range exact.Set {
		if !bloom.Set[a] {
			problems = append(problems, fmt.Sprintf("bloom dedup missed responder %s", a))
		}
	}
	for a := range bloom.Set {
		if !exact.Set[a] {
			problems = append(problems, fmt.Sprintf("bloom dedup invented responder %s", a))
		}
	}
	// Oracle: LPM trie vs linear lookup over the scan's probe targets.
	problems = append(problems, DiffRouteLookups(f.Routes, exact.ProbeDsts)...)
	// Determinism: an identical replay produces the identical result
	// sequence.
	if len(replay.Order) != len(exact.Order) {
		problems = append(problems, fmt.Sprintf(
			"replay diverged: %d responders vs %d", len(replay.Order), len(exact.Order)))
	} else {
		for i := range exact.Order {
			if exact.Order[i] != replay.Order[i] {
				problems = append(problems, fmt.Sprintf(
					"replay diverged at result %d: %s vs %s", i, exact.Order[i], replay.Order[i]))
				break
			}
		}
	}
	if exact.Stats.Received != replay.Stats.Received || exact.Stats.Duplicates != replay.Stats.Duplicates {
		problems = append(problems, "replay diverged in receive statistics")
	}
	// Oracle: the telemetry scan.* counters are a published view of the
	// scanner's Stats — once the run has returned they must agree with
	// it over the whole field table.
	exact.Stats.Counters(func(c telemetry.Counter, want uint64) {
		if got := exact.Snapshot.Counters[c.String()]; got != want {
			problems = append(problems, fmt.Sprintf(
				"telemetry counter %s = %d, stats say %d", c, got, want))
		}
	})
	// A failing scenario carries the packet-level tail of the run.
	problems = AttachTrace(problems, exact.Spans, 16)
	return problems, nil
}

// subnetRun is one inference attempt's comparable outcome.
type subnetRun struct {
	Err        string
	Length     int
	Samples    []int
	Periphery  ipv6.Addr
	Violations []string
}

func runSubnet(seed int64, p FaultProfile) (subnetRun, error) {
	f, err := BuildISPFixture(seed)
	if err != nil {
		return subnetRun{}, err
	}
	inj := NewInjector(seed, p)
	iv := NewInvariants(inj.DupCount)
	f.Eng.SetFault(inj.Apply)
	iv.Attach(f.Eng)
	res, ierr := subnet.Infer(f.Drv, f.Block, subnet.Options{Seed: seed})
	out := subnetRun{Length: res.Length, Samples: res.Samples, Periphery: res.Periphery,
		Violations: iv.Violations()}
	if ierr != nil {
		out.Err = ierr.Error()
	}
	return out, nil
}

// RunSubnetScenario infers the fixture's delegated-prefix length under
// the profile. Lossless profiles must recover the true /64 boundary;
// lossy profiles may fail outright, but a returned length must stay
// within the walkable range, and a replay must be bit-identical.
func RunSubnetScenario(seed int64, p FaultProfile) ([]string, error) {
	r1, err := runSubnet(seed, p)
	if err != nil {
		return nil, err
	}
	r2, err := runSubnet(seed, p)
	if err != nil {
		return nil, err
	}
	var problems []string
	problems = append(problems, r1.Violations...)
	if p.Lossless() {
		switch {
		case r1.Err != "":
			problems = append(problems, fmt.Sprintf("inference failed on lossless profile: %s", r1.Err))
		case r1.Length != 64:
			problems = append(problems, fmt.Sprintf("inferred length %d, want 64", r1.Length))
		}
	} else if r1.Err == "" && (r1.Length < 57 || r1.Length > 64) {
		problems = append(problems, fmt.Sprintf("inferred length %d outside walkable range [57,64]", r1.Length))
	}
	if r1.Err != r2.Err || r1.Length != r2.Length || r1.Periphery != r2.Periphery ||
		len(r1.Samples) != len(r2.Samples) {
		problems = append(problems, fmt.Sprintf("replay diverged: %+v vs %+v", r1, r2))
	} else {
		for i := range r1.Samples {
			if r1.Samples[i] != r2.Samples[i] {
				problems = append(problems, fmt.Sprintf("replay sample %d diverged: %d vs %d", i, r1.Samples[i], r2.Samples[i]))
			}
		}
	}
	return problems, nil
}

// loopRun is one loop sweep's comparable outcome.
type loopRun struct {
	Vuln       map[ipv6.Addr]bool
	Targets    uint64
	Responses  uint64
	MaxFactor  float64
	Violations []string
}

func runLoop(seed int64, p FaultProfile, measure bool) (loopRun, error) {
	out := loopRun{Vuln: map[ipv6.Addr]bool{}}
	dep, err := BuildLoopDeployment(seed)
	if err != nil {
		return out, err
	}
	inj := NewInjector(seed, p)
	iv := NewInvariants(inj.DupCount)
	dep.Engine.SetFault(inj.Apply)
	iv.Attach(dep.Engine)
	drv := xmap.NewSimDriver(dep.Engine, dep.Edge)
	det := loopscan.NewDetector(drv)
	res, err := det.ScanWindows([]ipv6.Window{dep.ISPs[0].Window}, scanSeed(seed))
	if err != nil {
		return out, err
	}
	for _, h := range res.VulnerableHops() {
		out.Vuln[h.Addr] = true
	}
	out.Targets, out.Responses = res.Targets, res.Responses
	if measure {
		// Amplification: one max-hop-limit packet into a looping prefix
		// must ping-pong on the access link >200 times (Section VI-A).
		// Xiaomi-class devices cap the loop (Table XII), so skip them.
		for _, dev := range dep.Devices() {
			if !dev.Vulnerable() || dev.Vendor == "Xiaomi" || !out.Vuln[dev.WANAddr] {
				continue
			}
			dst := dev.WANAddr.WithIID(dev.WANAddr.IID() ^ 1)
			amp, err := loopscan.MeasureAmplification(drv, dst, dev.AccessLink)
			if err != nil {
				return out, err
			}
			if amp.Factor > out.MaxFactor {
				out.MaxFactor = amp.Factor
			}
			if out.MaxFactor > 200 {
				break
			}
		}
	}
	out.Violations = iv.Violations()
	return out, nil
}

// RunLoopScenario sweeps the generated China-Unicom-style deployment
// for routing loops under the profile. Detected vulnerable hops must be
// a subset of ground truth under every profile; lossless profiles must
// find at least one loop and measure an amplification factor above the
// paper's 200×; a replay must agree exactly.
func RunLoopScenario(seed int64, p FaultProfile) ([]string, error) {
	measure := p.Name == "none"
	r1, err := runLoop(seed, p, measure)
	if err != nil {
		return nil, err
	}
	r2, err := runLoop(seed, p, false)
	if err != nil {
		return nil, err
	}
	var problems []string
	problems = append(problems, r1.Violations...)

	dep, err := BuildLoopDeployment(seed)
	if err != nil {
		return nil, err
	}
	truth := map[ipv6.Addr]bool{}
	for _, dev := range dep.Devices() {
		if dev.Vulnerable() {
			truth[dev.WANAddr] = true
		}
	}
	for a := range r1.Vuln {
		if !truth[a] {
			problems = append(problems, fmt.Sprintf("false loop verdict at %s (not a vulnerable device)", a))
		}
	}
	if p.Lossless() && len(r1.Vuln) == 0 {
		problems = append(problems, fmt.Sprintf(
			"no loops found on lossless profile (%d vulnerable devices exist)", len(truth)))
	}
	if measure && r1.MaxFactor <= 200 {
		problems = append(problems, fmt.Sprintf(
			"amplification factor %.0f, want >200", r1.MaxFactor))
	}
	if len(r1.Vuln) != len(r2.Vuln) || r1.Targets != r2.Targets || r1.Responses != r2.Responses {
		problems = append(problems, fmt.Sprintf(
			"replay diverged: %d/%d/%d vs %d/%d/%d vulnerable/targets/responses",
			len(r1.Vuln), r1.Targets, r1.Responses, len(r2.Vuln), r2.Targets, r2.Responses))
	}
	for a := range r1.Vuln {
		if !r2.Vuln[a] {
			problems = append(problems, fmt.Sprintf("replay missed vulnerable hop %s", a))
		}
	}
	return problems, nil
}
