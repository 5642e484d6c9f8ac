package xmap

import (
	"context"
	"fmt"
	"time"

	"repro/internal/ipv6"
	"repro/internal/lpm"
	"repro/internal/perm"
	"repro/internal/telemetry"
	"repro/internal/uint128"
	"repro/internal/wire"
)

// Config parameterizes one scan.
type Config struct {
	// Window is the target space: all sub-prefixes of the given length
	// within the base prefix, each probed once at a pseudo-random
	// interface identifier (Section III-B).
	Window ipv6.Window
	// Probe is the probe module; nil means ICMPv6 echo.
	Probe ProbeModule
	// Seed keys the permutation, the per-target IIDs and the stateless
	// validation. Scans with equal seeds are identical.
	Seed []byte
	// ShardIndex/Shards split the permutation across scanner instances
	// (ZMap-style sharding): the run scans slice ShardIndex of Shards,
	// cut among its workers; Shards=0 means 1.
	ShardIndex, Shards int
	// Rate caps probes per second; 0 disables limiting (the simulator
	// runs faster than any real link).
	Rate int
	// MaxTargets stops after probing this many sub-prefixes (0 = all).
	MaxTargets uint64
	// Blocklist prefixes are never probed.
	Blocklist []ipv6.Prefix
	// ProbesPerTarget sends this many copies of each probe (ZMap's -P),
	// recovering hit rate on lossy paths; default 1. Duplicate replies
	// are absorbed by responder dedup.
	ProbesPerTarget int
	// DrainEvery pumps the receive path after this many probes
	// (default 64).
	DrainEvery int
	// RingSize inserts a transmission queue (RingDriver) of this many
	// packets between each worker and the driver: probe generation and
	// driver transmission then run pipelined in separate goroutines, a
	// full queue acting as backpressure on the generator. 0 sends
	// directly.
	RingSize int
	// DedupExact uses an exact map for responder dedup instead of the
	// default Bloom filter — the ablation knob of DESIGN.md.
	DedupExact bool
	// Retries re-probes each target that stays unanswered past its
	// timeout, up to this many extra probes with exponential backoff
	// (0 = off). Unlike ProbesPerTarget, which sends blind copies to
	// everyone, retries spend probes only on the silent fraction.
	Retries int
	// AIMD adapts the send window — probes between receive drains — to
	// the observed reply rate: additive increase on clean windows,
	// multiplicative decrease when the reply ratio collapses (the
	// back-pressure signal of ICMPv6 rate limiting, RFC 4443 §2.4).
	AIMD bool
	// CheckpointEvery emits a resumable ShardState through OnCheckpoint
	// after roughly this many targets (0 = only at exit).
	CheckpointEvery uint64
	// OnCheckpoint, when set, receives checkpoint states: periodically
	// per CheckpointEvery, and at every exit including cancellation.
	OnCheckpoint func(ShardState)
	// CheckpointPath persists the assembled scan checkpoint to this file
	// on every worker's update: an appended record, or a snapshot
	// replacing the file by rename (see checkpointer).
	CheckpointPath string
	// BeforeCheckpoint, when set, runs before every write of the
	// CheckpointPath file, never beside a handler call: every responder
	// the file is about to list has been through the handler and none is
	// in it. An output module's Flush belongs here, so that a
	// hard kill never leaves the file listing a responder whose row was
	// still buffered. An error skips that write and fails the scan.
	BeforeCheckpoint func() error
	// ResumeFrom continues an interrupted scan mid-cycle. The run (New,
	// or ScanParallel) verifies the checkpoint's config digest against
	// its worker count and adds every listed responder to its seen-set
	// once, so none is handed to the handler again; each worker restores
	// the state recorded for its position (permutation cursor, cumulative
	// statistics, retry ring; one without a state starts over).
	ResumeFrom *Checkpoint
	// Telemetry, when set, receives live counters, gauges and histograms
	// as the scan runs; the scanner writes to the registry shard of its
	// worker position. The scan.* counters are a view of Stats, published
	// once per drain window, so a live read lags by at most one window.
	// Allocation-free; nil costs one branch per window.
	Telemetry *telemetry.Registry
	// Monitor, when set, is ticked on the probe clock once per drain
	// window, driving the periodic ZMap-style status line.
	Monitor *telemetry.Monitor

	// Defend enables the adversarial defenses: the cooldown alias
	// detector (saturated prefixes are re-probed and, if confirmed,
	// folded into the runtime blocklist), strict embedded-quote
	// validation, reply quarantine, and drain-window overload shedding:
	// a drain processes at most 4*DrainEvery replies, and when RecvBatch
	// floods past that, lowest-value replies are dropped deterministically
	// instead of stalling the send path. Off by default; the hot path
	// then carries no defense state.
	Defend bool

	// Tracer, when set, records sampled probe-lifecycle spans: the
	// scanner writes the scan stream of its worker position and fires
	// anomaly exemplars on quarantine, alias detection, retry
	// exhaustion and shedding. Nil costs one predictable branch per
	// hook.
	Tracer *telemetry.Tracer
	// Watchdog, when set, receives this shard's stage transitions and
	// one progress beat per drain window for stall diagnosis.
	Watchdog *telemetry.Watchdog
}

// Handler consumes one first-seen responder.
type Handler func(Response)

// Scanner is one worker of a run: it walks its shard of the
// permutation, sends, and validates replies, offering each to the run's
// seen-set. New returns the only worker of a run of one, and its Run
// executes that run. A Scanner is not safe for concurrent use:
// Validation, TargetFor and Run share reusable PRF and buffer scratch
// state (ScanParallel gives each goroutine its own Scanner).
type Scanner struct {
	cfg    Config // the run's, with this worker's shard and checkpoint sink
	run    *run
	drv    Driver // the run's, or the ring in front of it during a run
	probe  ProbeModule
	cycle  *perm.Cycle
	block  *lpm.Table[bool]
	resume *ShardState     // nil unless Config.ResumeFrom holds this worker's state
	retry  *retryRing      // nil unless Config.Retries > 0
	aimd   *aimdController // nil unless Config.AIMD
	alias  *aliasDetector  // nil unless Config.Defend
	tel    *telemetry.Shard

	// pos is the worker's place in the run: the telemetry shard, trace
	// stream and watchdog slot it writes, and the index of the
	// ShardState it emits and resumes from.
	pos int
	// passed is the responder this worker last offered to a shared
	// seen-set: a repeat of it is a duplicate without taking the lock.
	passed     ipv6.Addr
	havePassed bool
	// Probe-lifecycle tracing (nil tracer/watchdog = detached).
	tracer *telemetry.Tracer
	wd     *telemetry.Watchdog

	// retryTimeout is the probe-clock delay (in probes sent) before an
	// unanswered target's first retry; retry k waits retryTimeout<<k.
	retryTimeout uint64

	// prf derives per-sub-prefix material; one derivation feeds both the
	// target IID and the validation value, and the lastSub cache means
	// the send path — TargetFor immediately followed by Validation on
	// the resulting target — derives once, not twice.
	prf          subPRF
	lastSub      ipv6.Addr
	haveSub      bool
	subHi, subLo uint64 // cached host-IID limbs for lastSub
	subVal       uint32 // cached validation value for lastSub
	// subMask keeps an address's sub-prefix bits (Window.To of them), so
	// Validation finds the sub-prefix with one AND.
	subMask uint128.Uint128
	// validate is the bound Validation method, constructed once —
	// passing s.Validation at a call site would allocate a closure per
	// packet.
	validate Validator
	batch    [][]byte
	// free holds probe buffers whose batch has been sent (the Driver
	// contract: SendBatch does not retain them); recycle stages drained
	// receive buffers for return to a Releaser driver; rx is the reused
	// RecvBatch drain slice. Together they make the steady-state probe
	// loop allocation-free against the simulator drivers.
	free    [][]byte
	recycle [][]byte
	rx      [][]byte
	// sum is the receive path's reusable packet decoder.
	sum wire.Summary
}

// defaultSeed is applied when Config.Seed is empty.
var defaultSeed = []byte("xmap-default-seed")

func seedOrDefault(seed []byte) []byte {
	if len(seed) == 0 {
		return defaultSeed
	}
	return seed
}

// probeOrDefault applies Config.Probe's default, ICMPv6 echo.
func probeOrDefault(p ProbeModule) ProbeModule {
	if p == nil {
		return &ICMPEchoProbe{}
	}
	return p
}

// New validates the configuration and prepares a run of one worker,
// returned as that worker: Run then executes exactly what
// ScanParallel(ctx, cfg, drv, 1, h) does, scanning slice ShardIndex of
// Shards at worker position 0 and resuming from a one-shard Checkpoint.
func New(cfg Config, drv Driver) (*Scanner, error) {
	r, err := newRun(cfg, drv, 1)
	if err != nil {
		return nil, err
	}
	return r.workers[0], nil
}

// newScanner prepares worker pos of r, which walks shard cfg.ShardIndex
// of cfg.Shards of cycle; r has validated the run-wide configuration.
func newScanner(cfg Config, drv Driver, r *run, cycle *perm.Cycle, pos int) (*Scanner, error) {
	if cfg.DrainEvery <= 0 {
		cfg.DrainEvery = 64
	}
	if cfg.ProbesPerTarget <= 0 {
		cfg.ProbesPerTarget = 1
	}
	if cfg.ProbesPerTarget > 16 {
		return nil, fmt.Errorf("xmap: %d probes per target is unreasonable", cfg.ProbesPerTarget)
	}
	if cfg.Retries < 0 || cfg.Retries > 16 {
		return nil, fmt.Errorf("xmap: %d retries out of [0,16]", cfg.Retries)
	}
	cfg.Seed = seedOrDefault(cfg.Seed)
	s := &Scanner{cfg: cfg, run: r, drv: drv, cycle: cycle, pos: pos}
	s.tel = cfg.Telemetry.Shard(pos)
	s.tracer = cfg.Tracer
	s.wd = cfg.Watchdog
	s.retryTimeout = retryTimeoutWindows * uint64(cfg.DrainEvery)
	s.prf = newSubPRF(cfg.Seed)
	s.subMask = uint128.Max.Lsh(uint(128 - cfg.Window.To))
	s.validate = s.Validation
	s.probe = probeOrDefault(cfg.Probe)
	if cfg.Defend {
		s.alias = newAliasDetector(cfg.Seed)
		// Strict embedded-quote validation: error replies must quote an
		// invoking packet sourced from this scanner, closing the forged
		// verbatim-quote hole the malformed responder exploits.
		if ep, ok := s.probe.(*ICMPEchoProbe); ok && ep.StrictSource == (ipv6.Addr{}) {
			ep.StrictSource = drv.SourceAddr()
		}
	}
	if len(cfg.Blocklist) > 0 {
		s.block = lpm.New[bool]()
		for _, p := range cfg.Blocklist {
			s.block.Insert(p, true)
		}
	}
	if cfg.Retries > 0 {
		s.retry = newRetryRing(retryRingCap)
	}
	if cfg.AIMD {
		s.aimd = newAIMD(cfg.DrainEvery)
	}
	if ck := cfg.ResumeFrom; ck != nil {
		s.resume, _ = ck.StateFor(pos)
		if r := s.resume; r != nil && len(r.Retry) > 4 { // 4 bytes is an empty ring's count header
			if s.retry == nil {
				return nil, fmt.Errorf("xmap: resume state has pending retries but retries are disabled")
			}
			if err := s.retry.restoreState(r.Retry, s.TargetFor); err != nil {
				return nil, fmt.Errorf("xmap: restoring retry state: %w", err)
			}
		}
	}
	return s, nil
}

// ResponderCounts returns per-responder response counts when the exact
// dedup set is in use (Config.DedupExact), nil otherwise. Infrastructure
// routers answer for many destinations; peripheries for few — the
// distinction Section IV-E's periphery validation leans on. After a
// resume the counts cover the resumed leg only: every responder of the
// checkpoint starts at 1.
func (s *Scanner) ResponderCounts() map[ipv6.Addr]uint64 {
	if m, ok := s.run.seen.set.(mapDedup); ok {
		return m
	}
	return nil
}

// subDerive computes (or returns from the one-entry cache) the PRF
// material for one sub-prefix base address.
func (s *Scanner) subDerive(sub ipv6.Addr) {
	if s.haveSub && sub == s.lastSub {
		return
	}
	u := sub.Uint128()
	s.subHi, s.subLo, s.subVal = s.prf.derive(u.Hi, u.Lo)
	s.lastSub, s.haveSub = sub, true
}

// Validation derives the stateless validation value for dst
// (NewValidator gives cooperating tools such as the loop scanner the
// same PRF without a Scanner). The value is bound to the sub-prefix
// containing dst (a scan probes one address per sub, so this loses no
// discrimination) and comes from the same keyed derivation that
// generates the target IID — one PRF call covers the whole send path. Any other sub-prefix — nearly every reply
// the receive path validates — gets the value alone, and the cache stays
// TargetFor's.
func (s *Scanner) Validation(dst ipv6.Addr) uint32 {
	sub := dst.Uint128().And(s.subMask)
	if s.haveSub && sub == s.lastSub.Uint128() {
		return s.subVal
	}
	return s.prf.value(sub.Hi, sub.Lo)
}

// TargetFor returns the probe address for a window index: the sub-prefix
// base combined with a pseudo-random host part (the nonexistent-address
// IID of Section III-B).
func (s *Scanner) TargetFor(idx uint128.Uint128) (ipv6.Addr, error) {
	sub, err := s.cfg.Window.Sub(idx)
	if err != nil {
		return ipv6.Addr{}, err
	}
	hostBits := uint(128 - s.cfg.Window.To)
	if hostBits == 0 {
		return sub.Addr(), nil
	}
	s.subDerive(sub.Addr())
	host := uint128.New(s.subHi, s.subLo)
	if hostBits < 128 {
		host = host.And(uint128.Max.Rsh(128 - hostBits))
	}
	if host.IsZero() {
		host = uint128.One // never probe the subnet-router anycast address
	}
	return ipv6.AddrFrom128(sub.Addr().Uint128().Or(host)), nil
}

const (
	// retryTimeoutWindows is the first retry's backoff in drain windows
	// (DrainEvery probes each): a reply has had two full drains to arrive.
	retryTimeoutWindows = 2
	// cooldownDrains bounds the drain phase at scan end, when stragglers
	// and pending retries are collected. Retries need the headroom of
	// cooldownDrainsRetry: each cooldown round both drains and fires the
	// next backoff tier.
	cooldownDrains      = 3
	cooldownDrainsRetry = 8
)

// Run executes the scanner's run, invoking handler for each first-seen
// responder, and returns the run's Stats. It honors ctx cancellation
// between probes.
func (s *Scanner) Run(ctx context.Context, handler Handler) (Stats, error) {
	return s.run.exec(ctx, handler)
}

// scan is one worker's part of a run: it walks the worker's shard and
// returns the worker's Stats, whose Unique counts its own admissions to
// the run's seen-set.
//
// The send path is one path: every probe is appended to the batch, which
// flushes once per drain window through Driver.SendBatch, amortizing
// driver entry across the burst. A rate limit forces per-probe pacing,
// so a paced probe is flushed as a one-packet burst.
//
// With Config.ResumeFrom set, the scan continues mid-cycle: the
// permutation cursor fast-forwards past the probed prefix of the shard's
// sequence, statistics accumulate on top of the restored ones, and the
// run's seeded seen-set keeps already-reported responders suppressed.
func (s *Scanner) scan(ctx context.Context, handler Handler) (Stats, error) {
	var stats Stats
	var priorElapsed time.Duration
	start := time.Now()
	var it *perm.Iterator
	if r := s.resume; r != nil {
		stats = r.Stats
		priorElapsed = r.Stats.Elapsed
		it = s.cycle.ShardAt(s.cfg.ShardIndex, s.cfg.Shards, r.Consumed)
	} else {
		it = s.cycle.Shard(s.cfg.ShardIndex, s.cfg.Shards)
	}
	src := s.drv.SourceAddr()
	s.wd.Stage(s.pos, "send")
	defer s.wd.Stage(s.pos, telemetry.StageDone)
	// pender exposes a pipelined driver's queued depth for watchdog beats.
	pender, _ := s.drv.(interface{ Pending() int })
	// published is the Stats the telemetry counters already reflect;
	// starting from the restored Stats keeps a resumed scan's counters to
	// the resumed part.
	published := stats
	// finish is every return path: it stamps Elapsed and publishes the
	// last window's counters.
	finish := func(err error) (Stats, error) {
		stats.Elapsed = priorElapsed + time.Since(start)
		stats.publish(s.tel, &published)
		return stats, err
	}

	var limiter *rateLimiter
	if s.cfg.Rate > 0 {
		limiter = newRateLimiter(s.cfg.Rate)
	}
	// flush sends the batch through the driver and recycles its buffers:
	// the Driver contract guarantees SendBatch does not retain them.
	// Sent advances by exactly what the driver accepted.
	flush := func() {
		if len(s.batch) == 0 {
			return
		}
		sent, failed := sendAll(s.drv, s.batch)
		stats.Sent += sent
		stats.SendErrors += failed
		for _, p := range s.batch {
			// ProbesPerTarget copies are one buffer sent consecutively,
			// perhaps across paced flushes; recycle it once.
			if l := len(s.free); l > 0 && len(p) > 0 && len(s.free[l-1]) > 0 && &p[0] == &s.free[l-1][0] {
				continue
			}
			s.free = append(s.free, p)
		}
		clear(s.batch)
		s.batch = s.batch[:0]
	}
	// send stages one built probe into the current batch. A rate limit
	// paces probes one at a time, so a paced probe waits for its token and
	// is flushed at once.
	send := func(pkt []byte) {
		if limiter != nil {
			limiter.wait()
			if s.tracer != nil && len(pkt) >= wire.HeaderLen && pkt[0]>>4 == 6 {
				s.span(telemetry.SpanRateGate, stats.Sent, ipv6.AddrFromBytes(pkt[24:40]), 0)
			}
		}
		s.batch = append(s.batch, pkt)
		if limiter != nil {
			flush()
		}
	}
	buildProbe := func(target ipv6.Addr) ([]byte, error) {
		var buf []byte
		if l := len(s.free); l > 0 {
			buf, s.free = s.free[l-1], s.free[:l-1]
		}
		return s.probe.AppendProbe(buf, src, target, s.Validation(target))
	}

	// The drain cadence: a counter against the send window, which is
	// DrainEvery fixed, or AIMD-adjusted between drains. Counting locally
	// (not stats.Targets%DrainEvery) keeps the cadence correct across
	// resume offsets and retry traffic.
	window := s.cfg.DrainEvery
	sinceDrain := 0
	lastSent, lastRecv := stats.Sent, stats.Received
	baseUp, baseDown := stats.RateUp, stats.RateDown
	s.tel.SetGauge(telemetry.GaugeWindow, int64(window))
	var nextCkpt uint64
	if s.cfg.CheckpointEvery > 0 {
		nextCkpt = stats.Targets + s.cfg.CheckpointEvery
	}
	// emit hands the current resumable state to the checkpoint sink. It
	// runs only after a flush+drain, so the handler has been given every
	// responder of the probes the cursor covers.
	emit := func(done bool) {
		if s.cfg.OnCheckpoint == nil {
			return
		}
		stats.Elapsed = priorElapsed + time.Since(start)
		st := ShardState{
			Shard:    s.pos,
			Done:     done,
			Consumed: it.Consumed(),
			Stats:    stats,
		}
		if s.retry != nil {
			st.Retry = s.retry.appendState(nil)
		}
		s.cfg.OnCheckpoint(st)
		s.tel.Inc(telemetry.ScanCheckpoints)
		// Checkpoint cuts and window changes are rare and concern every
		// target, so their spans are recorded unsampled.
		s.tracer.Span(s.pos, telemetry.SpanCheckpoint, stats.Sent, zeroAddr, stats.Targets)
	}
	// pumpDue reports whether the send window should close now: it is
	// full, or a checkpoint interval expired (a checkpoint needs the
	// flush+drain for a consistent responder snapshot, so it forces one).
	pumpDue := func() bool {
		return sinceDrain >= window || (nextCkpt > 0 && stats.Targets >= nextCkpt)
	}
	// sendCooldown fires the alias detector's queued re-probes and
	// flushes them immediately: cooldown evidence must arrive within the
	// cooldown window regardless of how full the next send window is.
	sendCooldown := func() {
		if s.alias == nil {
			return
		}
		pending := s.alias.takePending()
		if len(pending) == 0 {
			return
		}
		for _, dst := range pending {
			pkt, err := buildProbe(dst)
			if err != nil {
				continue
			}
			send(pkt)
			stats.AliasCooldown++
			s.span(telemetry.SpanAliasCooldown, stats.Sent, dst, 0)
		}
		flush()
	}
	// pump closes a send window: flush, drain, let AIMD reconsider the
	// window, checkpoint if the interval has passed, and publish the
	// window's counters.
	pump := func() {
		if s.wd != nil {
			depth := 0
			if pender != nil {
				depth = pender.Pending()
			}
			s.wd.Beat(s.pos, stats.Sent, depth, uint64(sinceDrain))
		}
		flush()
		s.tel.Observe(telemetry.HistDrainBatch, uint64(sinceDrain))
		s.wd.Stage(s.pos, "drain")
		s.drain(&stats, handler)
		sendCooldown()
		s.wd.Stage(s.pos, "send")
		sinceDrain = 0
		if s.aimd != nil {
			prevWindow := window
			window = s.aimd.update(stats.Sent-lastSent, stats.Received-lastRecv)
			lastSent, lastRecv = stats.Sent, stats.Received
			stats.RateUp = baseUp + s.aimd.ups
			stats.RateDown = baseDown + s.aimd.downs
			if window != prevWindow {
				s.tel.SetGauge(telemetry.GaugeWindow, int64(window))
				s.tracer.Span(s.pos, telemetry.SpanAIMD, stats.Sent, zeroAddr, uint64(window))
			}
		}
		if s.retry != nil {
			s.tel.SetGauge(telemetry.GaugeRetryPending, int64(s.retry.pending))
		}
		if nextCkpt > 0 && stats.Targets >= nextCkpt {
			emit(false)
			nextCkpt = stats.Targets + s.cfg.CheckpointEvery
		}
		stats.publish(s.tel, &published)
		s.cfg.Monitor.Tick()
	}
	// sendRetry re-probes a due entry (one probe, not ProbesPerTarget
	// copies) and reschedules it with exponential backoff.
	sendRetry := func(e retryEntry) error {
		pkt, err := buildProbe(e.dst)
		if err != nil {
			return fmt.Errorf("xmap: building retry probe for %s: %w", e.dst, err)
		}
		send(pkt)
		stats.Retried++
		sinceDrain++
		e.attempts++
		e.due = stats.Sent + s.retryTimeout<<(e.attempts-1)
		s.span(telemetry.SpanRetry, stats.Sent, e.dst, uint64(e.attempts))
		if !s.retry.push(e) {
			stats.RetryDropped++
		}
		return nil
	}
	// popRetries resolves every retry entry due at *clock (re-read per
	// entry: sending advances the probe clock): one that has used all its
	// attempts is counted exhausted and leaves an exemplar, the rest go
	// to live.
	popRetries := func(clock *uint64, live func(retryEntry) error) error {
		for {
			e, ok := s.retry.popDue(*clock)
			if !ok {
				return nil
			}
			if int(e.attempts) >= 1+s.cfg.Retries {
				stats.RetryExhausted++
				s.tracer.Anomaly(telemetry.AnomalyRetryExhausted, s.pos, stats.Sent, e.dst.Bytes())
				continue
			}
			if err := live(e); err != nil {
				return err
			}
		}
	}

	ranOut := false
	for {
		if err := ctx.Err(); err != nil {
			flush()
			if s.cfg.OnCheckpoint != nil {
				// Collect what the driver already has, then leave a
				// resumable state behind: cancellation is the crash-safe
				// shutdown path.
				s.drain(&stats, handler)
				emit(false)
			}
			return finish(err)
		}
		// Service due retries ahead of fresh targets: their backoff
		// deadline has passed, and resolving them frees ring capacity.
		if s.retry != nil {
			err := popRetries(&stats.Sent, func(e retryEntry) error {
				if err := sendRetry(e); err != nil {
					return err
				}
				if pumpDue() {
					pump()
				}
				return nil
			})
			if err != nil {
				flush()
				return finish(err)
			}
		}
		if s.cfg.MaxTargets > 0 && stats.Targets >= s.cfg.MaxTargets {
			break
		}
		idx, ok := it.Next()
		if !ok {
			ranOut = true
			break
		}
		target, err := s.TargetFor(idx)
		if err != nil {
			flush()
			return finish(err)
		}
		if s.skipTarget(target) {
			stats.Blocked++
			continue
		}
		pkt, err := buildProbe(target)
		if err != nil {
			flush()
			return finish(fmt.Errorf("xmap: building probe for %s: %w", target, err))
		}
		for copyN := 0; copyN < s.cfg.ProbesPerTarget; copyN++ {
			send(pkt)
		}
		if s.retry != nil {
			if !s.retry.push(retryEntry{
				idx:      idx,
				dst:      target,
				due:      stats.Sent + s.retryTimeout,
				attempts: 1,
			}) {
				stats.RetryDropped++
			}
		}
		stats.Targets++
		sinceDrain++
		s.span(telemetry.SpanSent, stats.Sent, target, stats.Targets)
		if pumpDue() {
			pump()
		}
	}
	flush()

	// Cooldown: a bounded sequence of drain rounds collects stragglers (a
	// real driver may deliver late). Between rounds the probe clock jumps
	// to the next retry deadline, so pending retries get their backoff
	// tiers fired before the deadline expires; the final round only
	// drains.
	s.wd.Stage(s.pos, "cooldown")
	rounds := cooldownDrains
	if s.retry != nil {
		rounds = cooldownDrainsRetry
	}
	for round := 0; round < rounds; round++ {
		s.drain(&stats, handler)
		sendCooldown()
		stats.publish(s.tel, &published)
		if s.retry == nil || round == rounds-1 {
			continue
		}
		clock := stats.Sent
		if due, ok := s.retry.nextDue(); ok && due > clock {
			clock = due
		}
		if err := popRetries(&clock, sendRetry); err != nil {
			return finish(err)
		}
		flush()
	}
	// Account for whatever the deadline left unresolved.
	if s.retry != nil {
		never := ^uint64(0)
		_ = popRetries(&never, func(retryEntry) error { // the callback never fails
			stats.RetryAbandoned++
			return nil
		})
		s.tel.SetGauge(telemetry.GaugeRetryPending, 0)
	}
	emit(ranOut)
	return finish(nil)
}

// zeroAddr is the all-zero span address for events that concern no
// particular target (window changes, checkpoints).
var zeroAddr [16]byte

// span records one sampled probe-lifecycle span keyed by addr. The
// address-hash sampler makes the decision, so the same targets are
// traced here and in every other layer.
func (s *Scanner) span(kind telemetry.SpanKind, clock uint64, addr ipv6.Addr, arg uint64) {
	if s.tracer != nil {
		if b := addr.Bytes(); s.tracer.SampleAddr(b) {
			s.tracer.Span(s.pos, kind, clock, b, arg)
		}
	}
}

// skipTarget applies the blocklist.
func (s *Scanner) skipTarget(a ipv6.Addr) bool {
	if s.block == nil {
		return false
	}
	_, ok := s.block.Lookup(a)
	return ok
}

// drain pumps the receive path through classification, validation and
// the run's seen-set. A pipelined driver is flushed first, so the drain
// window is a barrier: every probe accepted before it has reached the
// packet layer, which keeps checkpoints (emitted only after a drain) and
// the batch-vs-per-packet oracle sound. Buffers that no Response retains
// (only KindUDPData keeps a Payload reference) go back to a Releaser
// driver afterwards.
func (s *Scanner) drain(stats *Stats, handler Handler) {
	rawMod, isRaw := s.probe.(RawProbeModule)
	releaser, _ := s.drv.(Releaser)
	seen := s.run.seen
	if flusher, ok := s.drv.(Flusher); ok {
		flusher.Flush()
	}
	s.rx = s.drv.RecvBatch(s.rx[:0])
	if s.alias != nil && len(s.rx) > s.shedBudget() {
		s.shed(stats, releaser)
	}
	for _, raw := range s.rx {
		var (
			resp Response
			ok   bool
		)
		if isRaw {
			resp, ok = rawMod.ClassifyRaw(raw, s.validate)
		} else if err := s.sum.Parse(raw); err == nil {
			resp, ok = s.probe.Classify(&s.sum, s.validate)
		}
		if releaser != nil && resp.Payload == nil {
			s.recycle = append(s.recycle, raw)
		}
		if !ok {
			stats.Invalid++
			if s.alias != nil {
				s.aliasQuarantine(raw, stats)
			}
			continue
		}
		stats.Received++
		// IPv4 replies (the raw v4 modules) record no hop limit.
		var hop uint64
		if len(raw) >= wire.HeaderLen && raw[0]>>4 == 6 {
			hop = uint64(raw[7])
			s.tel.Observe(telemetry.HistReplyHopLimit, hop)
		}
		// Spans key by the probed target (not the responder) so the
		// reply stitches onto the target's sent/hop spans.
		kind := telemetry.SpanReply
		if resp.Kind == KindDestUnreach || resp.Kind == KindTimeExceeded {
			kind = telemetry.SpanICMPError
		}
		s.span(kind, stats.Sent, resp.ProbeDst, hop)
		if s.retry != nil {
			// Any validated response resolves the probed target, even a
			// duplicate responder or an ICMP error: the path answered. The
			// resolved entry dates the probe, yielding the reply latency in
			// probe-clock ticks.
			if e, answered := s.retry.answered(resp.ProbeDst); answered {
				sentAt := e.due - s.retryTimeout<<(e.attempts-1)
				s.tel.Observe(telemetry.HistReplyLatency, stats.Sent-sentAt)
			}
		}
		if s.alias != nil && s.aliasObserve(&resp, stats) {
			// Detector traffic (cooldown-probe replies, saturation
			// chatter from prefixes under suspicion): consumed, never
			// dedup'd or handed to the handler.
			continue
		}
		var fresh bool
		if seen.shared {
			fresh = s.offerShared(&resp, handler)
		} else {
			fresh = seen.offer(&resp, handler)
		}
		if !fresh {
			stats.Duplicates++
			s.span(telemetry.SpanDedup, stats.Sent, resp.ProbeDst, 0)
			continue
		}
		stats.Unique++
	}
	if releaser != nil && len(s.recycle) > 0 {
		// Deferred past the loop: s.sum still references the most
		// recently parsed buffer until the next Parse.
		releaser.Release(s.recycle)
		clear(s.recycle)
		s.recycle = s.recycle[:0]
	}
	// Drop the drain slice's references so released buffers are not
	// pinned until the next drain.
	clear(s.rx)
	s.rx = s.rx[:0]
	if s.alias != nil {
		s.aliasTick()
	}
}

// offerShared is seenSet.offer under a shared set's lock, once the
// worker has turned away a repeat of the responder it offered last: that
// responder is a member already, since neither set has false negatives.
// A run of one offers unlocked.
func (s *Scanner) offerShared(resp *Response, handler Handler) bool {
	if s.havePassed && resp.Responder == s.passed {
		return false
	}
	s.passed, s.havePassed = resp.Responder, true
	seen := s.run.seen
	seen.mu.Lock()
	defer seen.mu.Unlock()
	return seen.offer(resp, handler)
}

// rateLimiter is a token bucket over wall-clock time. Tokens refill in
// batches of ~1ms worth of probes rather than one per probe: at high
// rates a per-probe time.Sleep would need sub-microsecond precision the
// OS timer cannot deliver, silently capping throughput near the timer
// frequency. Batched refills sleep at most once per batch and keep the
// long-run average at the configured rate.
type rateLimiter struct {
	interval time.Duration // wall-clock budget per token batch
	batch    int           // tokens granted per refill
	tokens   int           // sends remaining before the next refill
	next     time.Time     // when the next refill is due
}

func newRateLimiter(rate int) *rateLimiter {
	batch := rate / 1000
	if batch < 1 {
		batch = 1
	}
	return &rateLimiter{
		interval: time.Duration(batch) * time.Second / time.Duration(rate),
		batch:    batch,
		next:     time.Now(),
	}
}

func (r *rateLimiter) wait() {
	if r.tokens > 0 {
		r.tokens--
		return
	}
	now := time.Now()
	if now.Before(r.next) {
		time.Sleep(r.next.Sub(now))
	}
	r.next = r.next.Add(r.interval)
	if r.next.Before(now.Add(-time.Second)) {
		// Deep deficit (slow sender); don't accumulate unbounded burst.
		r.next = now
	}
	r.tokens = r.batch - 1
}
