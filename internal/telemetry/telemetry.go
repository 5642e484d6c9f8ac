// Package telemetry is the scan observability layer: a stdlib-only,
// allocation-free metrics and tracing core shared by the scanner, the
// simulation engine, the retry/AIMD machinery and the loop scanner.
//
// The design follows the ZMap/XMap monitor-thread architecture the
// paper's tooling inherits (Section IV): the hot path only increments
// fixed-slot atomic counters and writes into preallocated rings, while
// a separate reader — the status-line monitor, the expvar endpoint, a
// snapshot dump — merges per-shard state on demand. Three pieces:
//
//   - a metrics registry (Registry) of fixed-slot counters, gauges and
//     power-of-two-bucket histograms, sharded per scan shard so
//     concurrent scanner goroutines never contend, merged only at
//     Snapshot time;
//   - one event recorder (Tracer): bounded per-stream rings of
//     probe-lifecycle spans — sent, hop, reply, ICMPv6 error, retry,
//     AIMD window change, checkpoint cut, defense verdicts — sampled by
//     address hash, exportable as NDJSON or Perfetto JSON and dumpable
//     on demand, on SIGQUIT, or when a simulation-test oracle fails;
//   - exposition: a deterministic Snapshot JSON document, a ZMap-style
//     periodic status line (Monitor), and an optional net/http endpoint
//     serving expvar and pprof (Serve).
//
// Every mutator is safe for concurrent use and nil-receiver safe, so
// instrumented code paths need no "is telemetry attached?" branches of
// their own.
package telemetry

import (
	"sync"
	"sync/atomic"
)

// Counter identifies one fixed counter slot. Counters are cumulative
// and monotone; each layer of the stack owns a named group.
type Counter uint8

// Counter slots. The scan.* group is a view of xmap.Stats (the scanner
// publishes its Stats growth once per drain window; only
// scan.checkpoints is counted directly), sim.* the netsim
// engine totals (the per-link LinkStats aggregate), loop.* the loopscan
// detector, and inject.* the simtest fault injector — one snapshot
// covers the whole stack.
const (
	ScanTargets Counter = iota
	ScanSent
	ScanSendErrors
	ScanReceived
	ScanInvalid
	ScanDuplicates
	ScanUnique
	ScanBlocked
	ScanRetried
	ScanRetryDropped
	ScanRetryExhausted
	ScanRetryAbandoned
	ScanRateUp
	ScanRateDown
	ScanCheckpoints
	ScanAliasDetected
	ScanAliasCooldown
	ScanAliasBlocked
	ScanQuarantined
	ScanShed
	SimEvents
	SimTransmissions
	SimBytes
	SimDropped
	SimFastPathHits
	SimFastPathMisses
	SimFastPathInvalidations
	SimFastPathCompiles
	SimFastPathEvictions
	LoopProbes
	LoopResponses
	LoopConfirmed
	InjectTransmissions
	InjectDropped
	InjectDuplicated
	InjectDelayed
	NumCounters // sentinel: number of counter slots
)

var counterNames = [NumCounters]string{
	ScanTargets:              "scan.targets",
	ScanSent:                 "scan.sent",
	ScanSendErrors:           "scan.send_errors",
	ScanReceived:             "scan.received",
	ScanInvalid:              "scan.invalid",
	ScanDuplicates:           "scan.duplicates",
	ScanUnique:               "scan.unique",
	ScanBlocked:              "scan.blocked",
	ScanRetried:              "scan.retried",
	ScanRetryDropped:         "scan.retry_dropped",
	ScanRetryExhausted:       "scan.retry_exhausted",
	ScanRetryAbandoned:       "scan.retry_abandoned",
	ScanRateUp:               "scan.rate_up",
	ScanRateDown:             "scan.rate_down",
	ScanCheckpoints:          "scan.checkpoints",
	ScanAliasDetected:        "scan.alias.detected",
	ScanAliasCooldown:        "scan.alias.cooldown",
	ScanAliasBlocked:         "scan.alias.blocked",
	ScanQuarantined:          "scan.replies.quarantined",
	ScanShed:                 "scan.shed",
	SimEvents:                "sim.events",
	SimTransmissions:         "sim.transmissions",
	SimBytes:                 "sim.bytes",
	SimDropped:               "sim.dropped",
	SimFastPathHits:          "sim.fastpath.hits",
	SimFastPathMisses:        "sim.fastpath.misses",
	SimFastPathInvalidations: "sim.fastpath.invalidations",
	SimFastPathCompiles:      "sim.fastpath.compiles",
	SimFastPathEvictions:     "sim.fastpath.evictions",
	LoopProbes:               "loop.probes",
	LoopResponses:            "loop.responses",
	LoopConfirmed:            "loop.confirmed",
	InjectTransmissions:      "inject.transmissions",
	InjectDropped:            "inject.dropped",
	InjectDuplicated:         "inject.duplicated",
	InjectDelayed:            "inject.delayed",
}

// String returns the counter's snapshot key.
func (c Counter) String() string {
	if int(c) < len(counterNames) {
		return counterNames[c]
	}
	return "counter(?)"
}

// Gauge identifies one fixed gauge slot (a point-in-time level, not a
// cumulative count).
type Gauge uint8

// Gauge slots.
const (
	// GaugeWindow is the scanner's current send window (probes between
	// receive drains), the AIMD-controlled quantity.
	GaugeWindow Gauge = iota
	// GaugeRetryPending is the retry ring's pending-target level.
	GaugeRetryPending
	NumGauges // sentinel
)

var gaugeNames = [NumGauges]string{
	GaugeWindow:       "scan.window",
	GaugeRetryPending: "scan.retry_pending",
}

// String returns the gauge's snapshot key.
func (g Gauge) String() string {
	if int(g) < len(gaugeNames) {
		return gaugeNames[g]
	}
	return "gauge(?)"
}

// Hist identifies one fixed histogram slot.
type Hist uint8

// Histogram slots.
const (
	// HistReplyHopLimit observes the arriving hop limit of every
	// validated response — the distance fingerprint rate-limit and
	// loop diagnosis lean on.
	HistReplyHopLimit Hist = iota
	// HistDrainBatch observes how many packets each receive drain
	// returned.
	HistDrainBatch
	// HistReplyLatency observes probe-clock reply latency (probes sent
	// between a target's probe and its validated answer); populated
	// when the retry scheduler tracks outstanding targets.
	HistReplyLatency
	NumHists // sentinel
)

var histNames = [NumHists]string{
	HistReplyHopLimit: "reply_hoplimit",
	HistDrainBatch:    "drain_batch",
	HistReplyLatency:  "reply_latency_probes",
}

// String returns the histogram's snapshot key.
func (h Hist) String() string {
	if int(h) < len(histNames) {
		return histNames[h]
	}
	return "hist(?)"
}

// Shard is one scan shard's private metrics slice: fixed arrays of
// atomics. A shard is written by its scanner goroutine and read
// concurrently by snapshotters; all methods are nil-receiver safe so
// detached code paths cost one branch.
type Shard struct {
	counters [NumCounters]atomic.Uint64
	gauges   [NumGauges]atomic.Int64
	hists    [NumHists]histogram
}

// Inc adds one to a counter slot.
func (s *Shard) Inc(c Counter) {
	if s != nil {
		s.counters[c].Add(1)
	}
}

// Add adds n to a counter slot.
func (s *Shard) Add(c Counter, n uint64) {
	if s != nil {
		s.counters[c].Add(n)
	}
}

// Counter reads one counter slot.
func (s *Shard) Counter(c Counter) uint64 {
	if s == nil {
		return 0
	}
	return s.counters[c].Load()
}

// SetGauge stores a gauge level.
func (s *Shard) SetGauge(g Gauge, v int64) {
	if s != nil {
		s.gauges[g].Store(v)
	}
}

// Gauge reads one gauge slot.
func (s *Shard) Gauge(g Gauge) int64 {
	if s == nil {
		return 0
	}
	return s.gauges[g].Load()
}

// Observe records one histogram sample.
func (s *Shard) Observe(h Hist, v uint64) {
	if s != nil {
		s.hists[h].observe(v)
	}
}

// Collector folds externally maintained counts into a snapshot. Layers
// that already serialize internally (the simulation engine counts under
// its own lock) register a collector instead of paying atomics on their
// hot path; collectors run on the snapshot reader, merge-on-read.
type Collector func(add func(c Counter, n uint64))

// Options parameterizes a Registry.
type Options struct {
	// Shards is the number of independent metric shards (one per scan
	// shard; <=0 means 1).
	Shards int
}

// Registry owns the sharded metric state. All methods are safe for
// concurrent use; a nil *Registry is a valid detached registry whose
// Shard method returns a nil (no-op) shard.
type Registry struct {
	shards     []*Shard
	colMu      sync.Mutex
	collectors []Collector
	tracerMu   sync.Mutex
	tracer     *Tracer
}

// New creates a registry with o.Shards independent shards.
func New(o Options) *Registry {
	n := o.Shards
	if n <= 0 {
		n = 1
	}
	r := &Registry{shards: make([]*Shard, n)}
	for i := range r.shards {
		r.shards[i] = &Shard{}
	}
	return r
}

// NumShards returns the shard count (0 for a nil registry).
func (r *Registry) NumShards() int {
	if r == nil {
		return 0
	}
	return len(r.shards)
}

// Shard returns shard i's metrics slice (modulo the shard count, so a
// scan sharded wider than the registry still lands somewhere). A nil
// registry returns a nil, no-op shard.
func (r *Registry) Shard(i int) *Shard {
	if r == nil || len(r.shards) == 0 {
		return nil
	}
	if i < 0 {
		i = 0
	}
	return r.shards[i%len(r.shards)]
}

// Register adds a snapshot-time collector for counts maintained outside
// the registry (e.g. the simulation engine's serialized totals).
func (r *Registry) Register(c Collector) {
	if r == nil || c == nil {
		return
	}
	r.colMu.Lock()
	r.collectors = append(r.collectors, c)
	r.colMu.Unlock()
}

// AttachTracer associates a span tracer with the registry, so the
// snapshot, the monitor line, the /trace endpoint and the SIGQUIT dump
// all report its span streams and exemplars.
func (r *Registry) AttachTracer(t *Tracer) {
	if r == nil {
		return
	}
	r.tracerMu.Lock()
	r.tracer = t
	r.tracerMu.Unlock()
}

// Tracer returns the attached span tracer (nil when none, or on a nil
// registry).
func (r *Registry) Tracer() *Tracer {
	if r == nil {
		return nil
	}
	r.tracerMu.Lock()
	defer r.tracerMu.Unlock()
	return r.tracer
}
