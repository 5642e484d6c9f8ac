package xmap

import (
	"context"
	"fmt"
	"os"
	"sync"

	"repro/internal/ipv6"
	"repro/internal/perm"
	"repro/internal/telemetry"
)

// seenSet is a parallel scan's cross-shard responder set — the one
// seen-set a checkpoint persists. Its lock covers insert and handler
// call together, so a snapshot never lists a responder whose handler
// call has not returned. Traffic is light: each shard's own dedup
// absorbs repeats first, so a responder arrives at most once per shard.
type seenSet struct {
	mu sync.Mutex
	m  map[ipv6.Addr]struct{}
	// order lists m's members in insertion order when a checkpointer
	// exists (logOrder), so each update finds its new responders as a
	// suffix instead of walking the map.
	order    []ipv6.Addr
	logOrder bool
	dups     uint64
}

func (s *seenSet) add(a ipv6.Addr) {
	s.m[a] = struct{}{}
	if s.logOrder {
		s.order = append(s.order, a)
	}
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
// last write. Drain and listing share one hold of the handler's lock,
// so the file lists exactly the responders whose output has been
// drained.
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
// the multi-threaded operation mode of the real tool. Worker i, at
// worker position i, walks shard ShardIndex + i·Shards of Shards·n of
// the cycle, whose positions are j, j+N, …: the slice holds the same
// targets whatever n is. Config.MaxTargets applies per worker. The
// handler receives each responder exactly once across all workers; it
// is invoked from multiple goroutines under an internal lock, so it
// needs no synchronization of its own. The driver must be safe for
// concurrent use (all bundled drivers are); against a sharded
// deployment, use a GroupDriver so the senders pump disjoint engine
// shards.
//
// Stats.Duplicates sums the per-scanner duplicate counts (a responder
// answering twice within one worker's drains) and the cross-worker
// ones (a responder first seen by another worker).
//
// With Config.CheckpointPath set, every worker's periodic and exit
// checkpoint states are assembled into one log file (see checkpointer)
// together with the cross-worker responder set, after
// Config.BeforeCheckpoint has drained the handler's output. With
// Config.ResumeFrom set, the checkpoint is verified against this run
// (ConfigDigest with n shards), each worker resumes from its state,
// and the handler is never re-invoked for responders the interrupted
// scan already reported. Config.Monitor's total is set to the run's
// budget.
func ScanParallel(ctx context.Context, cfg Config, drv Driver, n int, handler Handler) (Stats, error) {
	if n <= 0 {
		n = 1
	}
	slices := max(cfg.Shards, 1)
	if cfg.ShardIndex < 0 || cfg.ShardIndex >= slices {
		return Stats{}, fmt.Errorf("xmap: shard %d of %d invalid", cfg.ShardIndex, slices)
	}
	if ck := cfg.ResumeFrom; ck != nil {
		if err := ck.Verify(cfg, n); err != nil {
			return Stats{}, err
		}
	}
	// Build the permutation once; it is immutable and every worker
	// iterates its own shard of the same cycle. On error, fall through:
	// newScanner reports it with context.
	if size, ok := cfg.Window.Size(); ok && cfg.Window.To != 0 {
		cfg.cycle, _ = perm.NewCycle(size, seedOrDefault(cfg.Seed))
	}
	if cfg.Monitor != nil {
		if total, ok := budget(cfg, slices, n); ok {
			cfg.Monitor.SetTotal(total)
		}
	}

	seen := &seenSet{m: make(map[ipv6.Addr]struct{})}
	dedupHandler := func(r Response) {
		seen.mu.Lock()
		defer seen.mu.Unlock()
		if _, ok := seen.m[r.Responder]; ok {
			seen.dups++
			return
		}
		seen.add(r.Responder)
		if handler != nil {
			handler(r)
		}
	}
	var ckpt *checkpointer
	if cfg.CheckpointPath != "" {
		ckpt = &checkpointer{
			path:   cfg.CheckpointPath,
			ck:     Checkpoint{Digest: ConfigDigest(cfg, n), Shards: n},
			seen:   seen,
			before: cfg.BeforeCheckpoint,
		}
		seen.logOrder = true
	}
	if ck := cfg.ResumeFrom; ck != nil {
		// Responders the interrupted scan reported are never re-emitted
		// and stay in the cumulative Unique; states are carried forward
		// for shards that finish before their first fresh checkpoint (or
		// were already done).
		for _, a := range ck.Responders {
			if _, ok := seen.m[a]; !ok {
				seen.add(a)
			}
		}
		if ckpt != nil {
			ckpt.ck.States = append(ckpt.ck.States, ck.States...)
		}
	}

	// Construct every worker's scanner before any runs or the file is
	// touched: a state that does not fit its worker is refused here.
	scanners := make([]*Scanner, n)
	rings := make([]*RingDriver, n)
	for i := range scanners {
		shardCfg := cfg
		shardCfg.Shards, shardCfg.ShardIndex = slices*n, cfg.ShardIndex+i*slices
		if userSink := cfg.OnCheckpoint; ckpt != nil {
			shardCfg.OnCheckpoint = func(st ShardState) {
				ckpt.update(st)
				if userSink != nil {
					userSink(st)
				}
			}
		}
		// With RingSize set, each shard gets its own transmission ring in
		// front of the shared driver: the shard's scanner goroutine
		// generates probes while the ring's pump goroutine pushes them
		// into the packet layer, and the scanner's pre-drain Flush keeps
		// checkpoint and dedup semantics identical to direct sends.
		shardDrv := drv
		if cfg.RingSize > 0 {
			rings[i] = NewRingDriver(drv, cfg.RingSize)
			if cfg.Tracer != nil {
				rings[i].SetTracer(cfg.Tracer, i)
			}
			shardDrv = rings[i]
		}
		var err error
		if scanners[i], err = newScanner(shardCfg, shardDrv, i); err != nil {
			for _, ring := range rings[:i+1] {
				if ring != nil {
					ring.Close()
				}
			}
			return Stats{}, err
		}
	}
	var (
		mu       sync.Mutex // guards total / firstErr
		total    Stats
		firstErr error
		wg       sync.WaitGroup
	)
	for i := range scanners {
		wg.Add(1)
		go func() {
			defer wg.Done()
			stats, err := scanners[i].Run(ctx, dedupHandler)
			if ring := rings[i]; ring != nil {
				// Close drains anything still queued; transmissions the
				// underlying driver then rejected surface as send errors
				// (they were already counted sent at ring acceptance, the
				// TX-queue analogue).
				ring.Close()
				failed := ring.Failed()
				stats.SendErrors += failed
				cfg.Telemetry.Shard(i).Add(telemetry.ScanSendErrors, failed)
			}
			mu.Lock()
			defer mu.Unlock()
			total.Merge(stats)
			if err != nil && firstErr == nil {
				firstErr = err
			}
		}()
	}
	wg.Wait()

	total.Unique = uint64(len(seen.m))
	total.Duplicates += seen.dups
	if ckpt != nil {
		// Write once more so the file's responder set includes every
		// shard's final emissions, and surface any write failure.
		ckpt.write()
		ckpt.close()
		if firstErr == nil {
			firstErr = ckpt.err
		}
	}
	return total, firstErr
}

// budget is what a run's workers probe: the slice's share of the window,
// or n·MaxTargets when that is less, minus what the states it resumes
// from already probed (the telemetry counters count the resumed leg
// only). It fails for a slice past 2^64 targets.
func budget(cfg Config, slices, n int) (uint64, bool) {
	size, ok := cfg.Window.Size()
	share, _ := size.Add64(uint64(slices) - 1).Div64(uint64(slices))
	if !ok || share.Hi != 0 {
		return 0, false
	}
	total := share.Lo
	if cfg.MaxTargets > 0 && cfg.MaxTargets < total/uint64(n) {
		total = cfg.MaxTargets * uint64(n)
	}
	if ck := cfg.ResumeFrom; ck != nil {
		for _, st := range ck.States {
			total -= min(st.Stats.Targets, total)
		}
	}
	return total, true
}
