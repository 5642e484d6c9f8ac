// Package simtest is a deterministic, seed-driven simulation-testing
// harness (FoundationDB-style DST) over internal/netsim. One explicit
// seed drives the topology, the scan permutation and every fault
// decision, so any failing run replays exactly from the seed printed in
// the test name.
//
// The harness has three layers:
//
//   - fault injection (Injector): seeded packet loss, duplication,
//     reordering, ICMPv6 rate-limit bursts and mid-scan link flaps,
//     installed on an Engine via netsim.Engine.SetFault;
//   - invariant checkers (Invariants): a tap on every simulated link
//     crossing verifying wire checksums, strict hop-limit decrement and
//     the 255-hop amplification circulation cap;
//   - differential oracles (rows.go): one table of rows. A row names the
//     profiles it applies to, a reference leg, the legs compared against
//     it, the relation that must hold between them (a subset of
//     responder set, handler order, Stats counters, engine totals,
//     per-link stats and per-flow hop traces) and a check for what is
//     not an equality. Every leg is one legSpec run by runLeg and
//     judged by diff (leg.go), so a feature combination costs one row.
//     Rows that keep their own worlds (worlds.go: routes, UDP, shards,
//     tools, watchdog) scan through the same runner and report through
//     the same diff.
//
// The scenario runner lives in scenario_test.go:
//
//	go test ./internal/simtest -run TestScenarios -seeds 20
//	go test ./internal/simtest -run 'TestScenarios/seed=K/<row>/<profile>' -base-seed K -seeds 1
package simtest

import (
	"hash/fnv"
	"math/rand"
	"sync"

	"repro/internal/netsim"
	"repro/internal/telemetry"
)

// FaultProfile parameterizes one fault-injection regime. The zero value
// injects nothing.
type FaultProfile struct {
	Name string
	// LossProb drops each transmission independently.
	LossProb float64
	// DupProb delivers each transmission twice.
	DupProb float64
	// ReorderProb defers a transmission past 1..MaxDelay subsequent
	// deliveries.
	ReorderProb float64
	MaxDelay    int
	// ErrBurstPeriod/ErrBurstLen model ICMPv6 rate limiting: during the
	// first ErrBurstLen of every ErrBurstPeriod transmissions, ICMPv6
	// error messages are dropped.
	ErrBurstPeriod int
	ErrBurstLen    int
	// FlapStart/FlapLen model a mid-scan link outage: transmissions
	// numbered [FlapStart, FlapStart+FlapLen) are all dropped.
	FlapStart int
	FlapLen   int
}

// Lossless reports whether every injected packet is eventually
// delivered (duplication and reordering do not lose traffic).
func (p FaultProfile) Lossless() bool {
	return p.LossProb == 0 && p.ErrBurstLen == 0 && p.FlapLen == 0
}

// Active reports whether the profile injects any fault at all. An
// inactive profile leaves the engine's fault layer uninstalled, so the
// fixture exercises the engine's fused replay (an armed fault layer —
// even a no-op one — means every packet is interpreted, so fault
// decisions land in sequential order).
func (p FaultProfile) Active() bool {
	return p.LossProb > 0 || p.DupProb > 0 || p.ReorderProb > 0 ||
		p.ErrBurstLen > 0 || p.FlapLen > 0
}

// Duplicates reports whether the profile can deliver a packet twice.
func (p FaultProfile) Duplicates() bool { return p.DupProb > 0 }

// Profiles is the sweep set: every fault class the issue names, plus a
// clean baseline and a combined chaos profile.
var Profiles = []FaultProfile{
	{Name: "none"},
	{Name: "loss", LossProb: 0.12},
	{Name: "dup", DupProb: 0.15},
	{Name: "reorder", ReorderProb: 0.35, MaxDelay: 6},
	{Name: "ratelimit", ErrBurstPeriod: 64, ErrBurstLen: 24},
	{Name: "flap", FlapStart: 250, FlapLen: 300},
	{Name: "chaos", LossProb: 0.05, DupProb: 0.08, ReorderProb: 0.2, MaxDelay: 4,
		ErrBurstPeriod: 96, ErrBurstLen: 16},
}

// ProfileByName returns the named profile from Profiles.
func ProfileByName(name string) (FaultProfile, bool) {
	for _, p := range Profiles {
		if p.Name == name {
			return p, true
		}
	}
	return FaultProfile{}, false
}

// InjectorStats counts fault decisions.
type InjectorStats struct {
	Transmissions int
	Dropped       int
	Duplicated    int
	Delayed       int
}

// Injector turns a FaultProfile into a netsim.FaultFunc whose every
// decision comes from one seeded source. Install with
// eng.SetFault(inj.Apply). Safe for concurrent use.
type Injector struct {
	mu      sync.Mutex
	rng     *rand.Rand
	profile FaultProfile
	dups    map[uint64]int
	stats   InjectorStats
	// delays backs the reorder outcomes: Deliveries for delay d is the
	// one-element delays[d-1:d], shared by every transmission it delays.
	delays []int
}

// dupDeliveries is the duplication outcome, shared read-only by every
// duplicated transmission.
var dupDeliveries = []int{0, 0}

// NewInjector creates an injector for the profile, its decisions drawn
// from a stream seeded by seed.
func NewInjector(seed int64, p FaultProfile) *Injector {
	j := &Injector{
		rng:     rand.New(rand.NewSource(seed ^ 0x5117e57)),
		profile: p,
		dups:    map[uint64]int{},
		delays:  make([]int, max(p.MaxDelay, 0)),
	}
	for i := range j.delays {
		j.delays[i] = i + 1
	}
	return j
}

// Apply is the netsim.FaultFunc. Decision order: link flap (drops
// everything in its window), ICMPv6 rate-limit burst (drops error
// messages only), random loss, duplication, reordering.
func (j *Injector) Apply(from *netsim.Iface, pkt []byte) netsim.FaultOutcome {
	j.mu.Lock()
	defer j.mu.Unlock()
	n := j.stats.Transmissions
	j.stats.Transmissions++
	p := j.profile
	if p.FlapLen > 0 && n >= p.FlapStart && n < p.FlapStart+p.FlapLen {
		j.stats.Dropped++
		return netsim.FaultOutcome{Drop: true}
	}
	if p.ErrBurstLen > 0 && p.ErrBurstPeriod > 0 &&
		n%p.ErrBurstPeriod < p.ErrBurstLen && isICMPv6Error(pkt) {
		j.stats.Dropped++
		return netsim.FaultOutcome{Drop: true}
	}
	if p.LossProb > 0 && j.rng.Float64() < p.LossProb {
		j.stats.Dropped++
		return netsim.FaultOutcome{Drop: true}
	}
	if p.DupProb > 0 && j.rng.Float64() < p.DupProb {
		j.stats.Duplicated++
		j.dups[PacketKey(pkt)]++
		return netsim.FaultOutcome{Deliveries: dupDeliveries}
	}
	if p.ReorderProb > 0 && p.MaxDelay > 0 && j.rng.Float64() < p.ReorderProb {
		j.stats.Delayed++
		i := j.rng.Intn(p.MaxDelay)
		return netsim.FaultOutcome{Deliveries: j.delays[i : i+1 : i+1]}
	}
	return netsim.FaultOutcome{}
}

// DupCount reports how many times the flow identified by key was
// duplicated, for the circulation-cap invariant.
func (j *Injector) DupCount(key uint64) int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.dups[key]
}

// Stats returns a snapshot of the decision counters.
func (j *Injector) Stats() InjectorStats {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.stats
}

// RegisterTelemetry folds the injector's decision counters into reg's
// snapshots as the inject.* counter group. Like the simulation engine,
// the injector counts under its own lock and the registry reads at
// snapshot time (merge-on-read), so Apply pays no extra atomics.
func (j *Injector) RegisterTelemetry(reg *telemetry.Registry) {
	reg.Register(func(add func(telemetry.Counter, uint64)) {
		s := j.Stats()
		add(telemetry.InjectTransmissions, uint64(s.Transmissions))
		add(telemetry.InjectDropped, uint64(s.Dropped))
		add(telemetry.InjectDuplicated, uint64(s.Duplicated))
		add(telemetry.InjectDelayed, uint64(s.Delayed))
	})
}

// PacketKey identifies an IPv6 packet's flow across hops: a hash of next
// header, source, destination and the layer-4 bytes. The hop limit
// (byte 7) is deliberately excluded — it is the only field forwarding
// mutates, so the key is stable along the packet's whole path.
func PacketKey(pkt []byte) uint64 {
	h := fnv.New64a()
	if len(pkt) >= 40 && pkt[0]>>4 == 6 {
		h.Write(pkt[6:7])
		h.Write(pkt[8:])
	} else {
		h.Write(pkt)
	}
	return h.Sum64()
}

// isICMPv6Error reports whether pkt is an ICMPv6 error message (type <
// 128), the class real routers rate-limit per RFC 4443 §2.4.
func isICMPv6Error(pkt []byte) bool {
	return len(pkt) > 40 && pkt[0]>>4 == 6 && pkt[6] == 58 && pkt[40] < 128
}
