package xmap

import (
	"context"
	"fmt"
	"math/bits"
	"os"
	"sync"

	"repro/internal/ipv6"
	"repro/internal/perm"
	"repro/internal/telemetry"
	"repro/internal/uint128"
)

// seenSet is a run's one responder set, shared by all its workers and
// the set a checkpoint persists. With one worker it takes no lock. With
// more, mu covers insert and handler call together (offerShared), so a
// snapshot never lists a responder whose handler call has not returned.
type seenSet struct {
	mu     sync.Mutex
	shared bool // more than one worker: members change under mu
	set    dedupSet
	// unique counts the members: the responders a resumed checkpoint
	// lists, then every admission. It is the run's Stats.Unique.
	unique uint64
	// order lists the members in insertion order when a checkpointer
	// exists (logOrder), so each update finds its new responders as a
	// suffix instead of walking the set.
	order    []ipv6.Addr
	logOrder bool
}

// offer admits resp's responder and, if it is new, hands resp to
// handler; it reports whether the responder was new.
func (s *seenSet) offer(resp *Response, handler Handler) bool {
	if !s.set.checkAdd(resp.Responder) {
		return false
	}
	s.unique++
	if s.logOrder {
		s.order = append(s.order, resp.Responder)
	}
	if handler != nil {
		handler(*resp)
	}
	return true
}

// has reports whether a is a member; it is the read the defenses make
// outside offer.
func (s *seenSet) has(a ipv6.Addr) bool {
	if s.shared {
		s.mu.Lock()
		defer s.mu.Unlock()
	}
	return s.set.seen(a)
}

// compactBudget bounds the superseded shard-state bytes a checkpoint
// log may carry: an update whose states would take them past it
// replaces the file with a snapshot instead of appending.
const compactBudget = 2 << 10

// checkpointer assembles per-shard states and the responder set into the
// log file behind Config.CheckpointPath. Its first write in a run, and
// every write that would pass compactBudget, replaces the file with a
// snapshot; every other update appends one fsync'd record holding the
// responders new since the last record and every shard state.
type checkpointer struct {
	mu   sync.Mutex // serializes writes, so records land in update order
	path string
	ck   Checkpoint // States only; responders come from seen.order
	seen *seenSet
	// before is Config.BeforeCheckpoint: what the handler buffered is
	// drained before the file may list it.
	before     func() error
	f          *os.File // the log, open for appending; nil until a snapshot
	logged     int      // prefix of seen.order the file lists
	superseded int      // state bytes appended since the last snapshot
	buf        []byte   // reused encoding buffer
	err        error    // first write failure
}

// write persists the recorded states and the responders new since the
// last write. Drain and listing share one hold of the seen-set's lock,
// which a shared set's handler calls run under, so the file lists
// exactly the responders whose output has been drained.
func (c *checkpointer) write() {
	order, err := c.drain()
	if err == nil {
		err = c.persist(order)
	}
	if err != nil && c.err == nil {
		c.err = err
	}
}

// drain runs BeforeCheckpoint and returns the responder list as of it.
// Only appends follow, so the returned prefix stays valid unlocked.
func (c *checkpointer) drain() ([]ipv6.Addr, error) {
	c.seen.mu.Lock()
	defer c.seen.mu.Unlock()
	if c.before != nil {
		if err := c.before(); err != nil {
			return nil, fmt.Errorf("xmap: before checkpoint: %w", err)
		}
	}
	return c.seen.order, nil
}

// persist appends a record listing order[c.logged:], or compacts.
func (c *checkpointer) persist(order []ipv6.Addr) error {
	if c.f != nil {
		var stateBytes int
		c.buf, stateBytes = appendRecord(c.buf[:0], order[c.logged:], c.ck.States)
		if c.superseded+stateBytes <= compactBudget {
			_, err := c.f.Write(c.buf)
			if err == nil {
				err = c.f.Sync()
			}
			if err != nil {
				// A torn record must not have a successor: the next
				// write starts a fresh snapshot.
				c.close()
				return fmt.Errorf("xmap: checkpoint append: %w", err)
			}
			c.logged = len(order)
			c.superseded += stateBytes
			return nil
		}
		c.close()
	}
	c.buf = appendHeader(c.buf[:0], &c.ck.Digest, c.ck.Shards)
	c.buf, _ = appendRecord(c.buf, order, c.ck.States)
	if err := writeFileAtomic(c.path, c.buf); err != nil {
		return err
	}
	f, err := os.OpenFile(c.path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		return fmt.Errorf("xmap: checkpoint open: %w", err)
	}
	c.f, c.logged, c.superseded = f, len(order), 0
	return nil
}

// close releases the append handle; the next write snapshots.
func (c *checkpointer) close() {
	if c.f == nil {
		return
	}
	if err := c.f.Close(); err != nil && c.err == nil {
		c.err = fmt.Errorf("xmap: checkpoint close: %w", err)
	}
	c.f = nil
}

// update records one shard's state and persists it.
func (c *checkpointer) update(st ShardState) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if cur, ok := c.ck.StateFor(st.Shard); ok {
		*cur = st
	} else {
		c.ck.States = append(c.ck.States, st)
	}
	c.write()
}

// ScanParallel runs one scan: slice Config.ShardIndex of Config.Shards
// (0 means 1), cut among n scanner goroutines that share the driver —
// the multi-threaded operation mode of the real tool. Every worker walks
// the slice's one permutation sequence and keeps the targets of its own
// window chunks (see chunkPart): worker i of n keeps the chunks c with
// c mod n == i, the rule topo uses to give sub-prefixes to engine
// shards, so against a topo.Config.Shards: n deployment each worker's
// bursts land in one engine shard. The slice holds the same targets
// whatever n is, and n = 1 walks it exactly as a lone scanner does.
// Config.MaxTargets applies per worker. The handler receives each
// responder exactly once across all workers; it is invoked from multiple
// goroutines under an internal lock, so it needs no synchronization of
// its own. The driver must be safe for concurrent use (all bundled
// drivers are); against a sharded deployment, use a GroupDriver, which
// routes each probe to the engine shard owning it.
// ScanParallel(ctx, cfg, drv, 1, h) is New(cfg, drv).Run(ctx, h).
//
// The workers share one seen-set (see run): Stats.Unique counts its
// members, and Stats.Duplicates every validated response it turned away.
//
// With Config.CheckpointPath set, every worker's periodic and exit
// checkpoint states are assembled into one log file (see checkpointer)
// together with the run's responder set, after Config.BeforeCheckpoint
// has drained the handler's output. A state's cursor is its worker's
// place in the slice's walk. With Config.ResumeFrom set, the checkpoint
// is verified against this run (ConfigDigest with n shards), each worker
// resumes from its state, and the handler is never re-invoked for
// responders the interrupted scan already reported.
// Config.Monitor's total is set to the run's budget.
func ScanParallel(ctx context.Context, cfg Config, drv Driver, n int, handler Handler) (Stats, error) {
	r, err := newRun(cfg, drv, n)
	if err != nil {
		return Stats{}, err
	}
	return r.exec(ctx, handler)
}

// run is one scan: slice Config.ShardIndex of Config.Shards cut among
// its workers. It owns what they share — the verified ResumeFrom, the
// permutation cycle, the monitor total, the one seen-set, the
// checkpointer — and merges their Stats; each worker owns its cursor,
// probe path and receive path. New builds a run of one worker,
// ScanParallel one of n.
type run struct {
	cfg     Config // as the caller gave it
	drv     Driver
	share   uint128.Uint128 // the slice's size: ⌈window / Shards⌉
	workers []*Scanner
	seen    *seenSet
	ckpt    *checkpointer // nil without Config.CheckpointPath
}

// newRun validates cfg and builds a run of n workers. Every worker is
// constructed before any runs or the checkpoint file is touched: a
// state that does not fit its worker is refused here.
func newRun(cfg Config, drv Driver, n int) (*run, error) {
	n = max(n, 1)
	if drv == nil {
		return nil, fmt.Errorf("xmap: nil driver")
	}
	if cfg.Window.To == 0 {
		return nil, fmt.Errorf("xmap: no scan window configured")
	}
	slices := max(cfg.Shards, 1)
	if cfg.ShardIndex < 0 || cfg.ShardIndex >= slices {
		return nil, fmt.Errorf("xmap: shard %d of %d invalid", cfg.ShardIndex, slices)
	}
	if ck := cfg.ResumeFrom; ck != nil {
		if err := ck.Verify(cfg, n); err != nil {
			return nil, err
		}
	}
	seed := seedOrDefault(cfg.Seed)
	size, ok := cfg.Window.Size()
	if !ok {
		return nil, fmt.Errorf("xmap: window %s too large", cfg.Window)
	}
	// The permutation is built once; it is immutable, and every worker
	// iterates its own shard of the same cycle.
	cycle, err := perm.NewCycle(size, seed)
	if err != nil {
		return nil, fmt.Errorf("xmap: building permutation: %w", err)
	}
	r := &run{cfg: cfg, drv: drv, seen: &seenSet{shared: n > 1}}
	r.share, _ = size.Add64(uint64(slices) - 1).Div64(uint64(slices))
	if cfg.DedupExact {
		r.seen.set = make(mapDedup)
	} else {
		// The run only probes its slice of the space, so the filter needs
		// capacity for that slice, not the whole window.
		bf, err := newBloomDedup(r.share, seed)
		if err != nil {
			return nil, fmt.Errorf("xmap: sizing dedup filter: %w", err)
		}
		r.seen.set = bf
	}
	if cfg.CheckpointPath != "" {
		r.ckpt = &checkpointer{
			path:   cfg.CheckpointPath,
			ck:     Checkpoint{Digest: ConfigDigest(cfg, n), Shards: n},
			seen:   r.seen,
			before: cfg.BeforeCheckpoint,
		}
		r.seen.logOrder = true
	}
	if ck := cfg.ResumeFrom; ck != nil {
		// Responders the interrupted scan reported are never re-emitted
		// and stay in the cumulative Unique (a checkpoint lists each
		// once); states are carried forward for workers that finish
		// before their first fresh checkpoint (or were already done).
		for _, a := range ck.Responders {
			r.seen.set.checkAdd(a)
		}
		r.seen.unique = uint64(len(ck.Responders))
		if r.ckpt != nil {
			r.seen.order = append(r.seen.order, ck.Responders...)
			r.ckpt.ck.States = append(r.ckpt.ck.States, ck.States...)
		}
	}

	r.workers = make([]*Scanner, n)
	for i := range r.workers {
		wcfg := cfg
		wcfg.Shards = slices
		if sink := cfg.OnCheckpoint; r.ckpt != nil {
			wcfg.OnCheckpoint = func(st ShardState) {
				r.ckpt.update(st)
				if sink != nil {
					sink(st)
				}
			}
		}
		if r.workers[i], err = newScanner(wcfg, drv, r, cycle, i); err != nil {
			return nil, err
		}
		r.workers[i].part = newChunkPart(cfg.Window.Width(), n, i)
	}
	return r, nil
}

// chunkPart is one worker's share of its run's slice. The window's
// 2^⌈log2 n⌉ contiguous chunks (single indices when the window has fewer)
// go round-robin to the n workers, as topo gives them to engine shards
// (ISPDeployment.shardOf): the worker keeps index idx iff chunk
// c = idx >> shift has c mod n == i. Since c < 2n, one subtraction is
// the modulo. A run of one keeps everything.
type chunkPart struct {
	shift  uint
	chunks uint64
	n, i   uint64
}

func newChunkPart(width, n, i int) chunkPart {
	b := 0
	for 1<<b < n {
		b++
	}
	b = min(b, width)
	return chunkPart{shift: uint(width - b), chunks: 1 << b, n: uint64(n), i: uint64(i)}
}

// owns reports whether the worker keeps window index idx.
func (p chunkPart) owns(idx uint128.Uint128) bool {
	if p.n <= 1 {
		return true
	}
	c := idx.Rsh(p.shift).Lo
	if c >= p.n {
		c -= p.n
	}
	return c == p.i
}

// share is how many targets of a slice of size the worker keeps. It is
// exact for a whole window; a slice's targets are taken as spread evenly
// over the chunks.
func (p chunkPart) share(size uint64) uint64 {
	if p.i >= p.chunks {
		return 0
	}
	kept := (p.chunks-1-p.i)/p.n + 1
	hi, lo := bits.Mul64(size, kept)
	q, _ := bits.Div64(hi, lo, p.chunks)
	return q
}

// exec runs every worker to its end, worker 0 on the calling goroutine,
// and returns their merged Stats and the first error by worker position.
func (r *run) exec(ctx context.Context, handler Handler) (Stats, error) {
	cfg, n := r.cfg, len(r.workers)
	if total, ok := r.budget(); ok && cfg.Monitor != nil {
		cfg.Monitor.SetTotal(total)
	}
	stats := make([]Stats, n)
	errs := make([]error, n)
	work := func(i int) {
		w := r.workers[i]
		// With RingSize set, each worker gets its own transmission ring in
		// front of the shared driver: the worker's goroutine generates
		// probes while the ring's pump goroutine pushes them into the
		// packet layer, and the worker's pre-drain Flush keeps checkpoint
		// and dedup semantics identical to direct sends.
		var ring *RingDriver
		if cfg.RingSize > 0 {
			ring = NewRingDriver(r.drv, cfg.RingSize)
			if cfg.Tracer != nil {
				ring.SetTracer(cfg.Tracer, i)
			}
			w.drv = ring
		}
		stats[i], errs[i] = w.scan(ctx, handler)
		if ring != nil {
			// Close drains anything still queued; transmissions the
			// underlying driver then rejected surface as send errors
			// (they were already counted sent at ring acceptance, the
			// TX-queue analogue).
			ring.Close()
			w.drv = r.drv
			failed := ring.Failed()
			stats[i].SendErrors += failed
			cfg.Telemetry.Shard(i).Add(telemetry.ScanSendErrors, failed)
		}
	}
	var wg sync.WaitGroup
	for i := 1; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work(i)
		}()
	}
	work(0)
	wg.Wait()

	var total Stats
	var firstErr error
	for i := range stats {
		total.Merge(stats[i])
		if firstErr == nil {
			firstErr = errs[i]
		}
	}
	total.Unique = r.seen.unique
	if r.ckpt != nil {
		// Write once more so the file's responder set includes every
		// worker's final emissions, and surface any write failure.
		r.ckpt.write()
		r.ckpt.close()
		if firstErr == nil {
			firstErr = r.ckpt.err
		}
	}
	return total, firstErr
}

// budget is what the run's workers probe: each its part of the slice,
// or MaxTargets when that is less, minus what the states it resumes from
// already probed (the telemetry counters count the resumed leg only). It
// fails for a slice past 2^64 targets.
func (r *run) budget() (uint64, bool) {
	if r.share.Hi != 0 {
		return 0, false
	}
	cfg := r.cfg
	total := r.share.Lo
	if cfg.MaxTargets > 0 {
		total = 0
		for _, w := range r.workers {
			total += min(cfg.MaxTargets, w.part.share(r.share.Lo))
		}
	}
	if ck := cfg.ResumeFrom; ck != nil {
		for _, st := range ck.States {
			total -= min(st.Stats.Targets, total)
		}
	}
	return total, true
}
