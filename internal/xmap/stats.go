package xmap

import (
	"time"

	"repro/internal/telemetry"
)

// Stats summarizes a finished scan. It is the scan's one counter set:
// the checkpoint stores it, a run merges it, and the telemetry
// scan.* counters are a published view of it (statsFields).
type Stats struct {
	// Targets is the number of sub-prefixes probed.
	Targets    uint64
	Sent       uint64
	SendErrors uint64
	Received   uint64 // validated responses, including duplicates
	Invalid    uint64 // packets failing parse or validation
	Duplicates uint64 // validated responses from already-seen responders
	Unique     uint64 // unique responders handed to the handler
	Blocked    uint64 // targets skipped by the blocklist
	// Retry scheduler accounting.
	Retried        uint64 // retry probes sent
	RetryDropped   uint64 // targets untracked because the retry ring was full
	RetryExhausted uint64 // targets still silent after every allowed retry
	RetryAbandoned uint64 // pending retries given up at the cooldown deadline
	// AIMD rate-controller accounting.
	RateUp   uint64 // additive-increase decisions (clean windows)
	RateDown uint64 // multiplicative-decrease decisions (lossy windows)
	// Adversarial-defense accounting (Config.Defend).
	AliasDetected uint64 // prefixes entering an alias cooldown window
	AliasCooldown uint64 // cooldown re-probes sent
	AliasBlocked  uint64 // prefixes confirmed saturated and blocklisted
	Quarantined   uint64 // unvalidatable replies quarantined
	Shed          uint64 // buffered replies shed under overload
	Elapsed       time.Duration
}

// statsFields is the one ordered list of Stats counters: each field
// with the telemetry slot that publishes it (the slot's String is the
// counter's name). Stats.Merge, the checkpoint codec and the scanner's
// telemetry publication all iterate it, so a new counter is its struct
// field, its telemetry slot and one line here. The order is the
// checkpoint wire order: a change needs a new checkpointMagic. Elapsed
// is not a counter — the codec writes it after the table and Merge
// takes the maximum.
var statsFields = [...]struct {
	counter telemetry.Counter
	field   func(*Stats) *uint64
	// shardLocal marks a count Merge leaves alone: a worker's Unique is
	// its own admissions to the run's seen-set, but a resumed run's also
	// counts the responders its checkpoint lists, which no restored state
	// accounts for, so the run (and any aggregator) sets it itself.
	shardLocal bool
}{
	{counter: telemetry.ScanTargets, field: func(s *Stats) *uint64 { return &s.Targets }},
	{counter: telemetry.ScanSent, field: func(s *Stats) *uint64 { return &s.Sent }},
	{counter: telemetry.ScanSendErrors, field: func(s *Stats) *uint64 { return &s.SendErrors }},
	{counter: telemetry.ScanReceived, field: func(s *Stats) *uint64 { return &s.Received }},
	{counter: telemetry.ScanInvalid, field: func(s *Stats) *uint64 { return &s.Invalid }},
	{counter: telemetry.ScanDuplicates, field: func(s *Stats) *uint64 { return &s.Duplicates }},
	{counter: telemetry.ScanUnique, field: func(s *Stats) *uint64 { return &s.Unique }, shardLocal: true},
	{counter: telemetry.ScanBlocked, field: func(s *Stats) *uint64 { return &s.Blocked }},
	{counter: telemetry.ScanRetried, field: func(s *Stats) *uint64 { return &s.Retried }},
	{counter: telemetry.ScanRetryDropped, field: func(s *Stats) *uint64 { return &s.RetryDropped }},
	{counter: telemetry.ScanRetryExhausted, field: func(s *Stats) *uint64 { return &s.RetryExhausted }},
	{counter: telemetry.ScanRetryAbandoned, field: func(s *Stats) *uint64 { return &s.RetryAbandoned }},
	{counter: telemetry.ScanRateUp, field: func(s *Stats) *uint64 { return &s.RateUp }},
	{counter: telemetry.ScanRateDown, field: func(s *Stats) *uint64 { return &s.RateDown }},
	{counter: telemetry.ScanAliasDetected, field: func(s *Stats) *uint64 { return &s.AliasDetected }},
	{counter: telemetry.ScanAliasCooldown, field: func(s *Stats) *uint64 { return &s.AliasCooldown }},
	{counter: telemetry.ScanAliasBlocked, field: func(s *Stats) *uint64 { return &s.AliasBlocked }},
	{counter: telemetry.ScanQuarantined, field: func(s *Stats) *uint64 { return &s.Quarantined }},
	{counter: telemetry.ScanShed, field: func(s *Stats) *uint64 { return &s.Shed }},
}

// HitRate is unique responders per probe sent.
func (s Stats) HitRate() float64 {
	if s.Sent == 0 {
		return 0
	}
	return float64(s.Unique) / float64(s.Sent)
}

// Merge folds one shard scanner's stats into an aggregate: counts sum
// (except the shard-local Unique), Elapsed takes the slowest shard (the
// shards run concurrently).
func (s *Stats) Merge(o Stats) {
	for _, f := range statsFields {
		if !f.shardLocal {
			*f.field(s) += *f.field(&o)
		}
	}
	if o.Elapsed > s.Elapsed {
		s.Elapsed = o.Elapsed
	}
}

// Counters calls fn with every counter's telemetry slot and value, in
// table order — how a check compares a Stats with a telemetry snapshot
// without listing the fields again.
func (s Stats) Counters(fn func(c telemetry.Counter, v uint64)) {
	for _, f := range statsFields {
		fn(f.counter, *f.field(&s))
	}
}

// publish adds the growth of s over *prev to the telemetry shard and
// advances *prev. Publishing deltas (not totals) keeps a resumed scan's
// counters covering only the resumed part.
func (s *Stats) publish(tel *telemetry.Shard, prev *Stats) {
	if tel == nil {
		return
	}
	for _, f := range statsFields {
		if d := *f.field(s) - *f.field(prev); d != 0 {
			tel.Add(f.counter, d)
		}
	}
	*prev = *s
}
