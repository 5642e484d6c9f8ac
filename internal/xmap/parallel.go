package xmap

import (
	"context"
	"errors"
	"sync"

	"repro/internal/ipv6"
	"repro/internal/perm"
	"repro/internal/telemetry"
)

// dedupStripes splits ScanParallel's cross-shard responder dedup into
// independently locked stripes so concurrent scanner goroutines rarely
// contend; a power of two keeps stripe selection a mask.
const dedupStripes = 16

// dedupStripe is one lock-striped slice of the seen-responder set.
type dedupStripe struct {
	mu   sync.Mutex
	seen map[ipv6.Addr]struct{}
	dups uint64
}

// stripeFor maps a responder to its dedup stripe.
func stripeFor(a ipv6.Addr) int {
	u := a.Uint128()
	return int((u.Lo ^ u.Hi ^ u.Lo>>17 ^ u.Hi>>31) & (dedupStripes - 1))
}

// ScanParallel splits the window into shards (Config.Shards is
// overridden) and runs one scanner goroutine per shard against the same
// driver — the multi-threaded operation mode of the real tool. The
// handler receives each responder exactly once across all shards; it is
// invoked from multiple goroutines through an internal lock, so it needs
// no synchronization of its own. The driver must be safe for concurrent
// use (all bundled drivers are); against a sharded deployment, use a
// GroupDriver so the senders pump disjoint engine shards.
//
// Stats.Duplicates sums the per-scanner duplicate counts (a responder
// answering twice within one shard's drains) and the cross-shard ones
// (a responder first seen by another shard).
//
// With Config.CheckpointPath set, every shard's periodic and exit
// checkpoint states are assembled into one file (atomically replaced on
// each update) together with the cross-shard responder set. With
// Config.ResumeFrom set, the checkpoint — digest-verified against this
// configuration — restores every shard's cursor, statistics, dedup and
// retry state, and the handler is never re-invoked for responders the
// interrupted scan already reported.
func ScanParallel(ctx context.Context, cfg Config, drv Driver, shards int, handler Handler) (Stats, error) {
	if shards <= 0 {
		shards = 1
	}
	cfg.Shards = shards
	if cfg.ResumeFrom != nil {
		if err := cfg.ResumeFrom.Verify(cfg, shards); err != nil {
			var zero Stats
			return zero, err
		}
	}
	// Build the permutation once; it is immutable and every shard
	// scanner iterates its own slice of the same cycle.
	if cfg.cycle == nil && cfg.Window.To != 0 {
		if size, ok := cfg.Window.Size(); ok {
			if cyc, err := perm.NewCycle(size, seedOrDefault(cfg.Seed)); err == nil {
				cfg.cycle = cyc
			}
			// On error, fall through: New reports it with context.
		}
	}

	var stripes [dedupStripes]dedupStripe
	for i := range stripes {
		stripes[i].seen = make(map[ipv6.Addr]struct{})
	}
	if cfg.ResumeFrom != nil {
		// Preseed the cross-shard dedup with responders the interrupted
		// scan already reported: re-probed targets must not re-emit, and
		// the final Unique count stays cumulative.
		for _, a := range cfg.ResumeFrom.Responders {
			stripes[stripeFor(a)].seen[a] = struct{}{}
		}
	}
	var ckpt *Checkpointer
	if cfg.CheckpointPath != "" {
		ckpt = NewCheckpointer(cfg.CheckpointPath, ConfigDigest(cfg, shards), shards)
		ckpt.SetResponders(func() []ipv6.Addr {
			var out []ipv6.Addr
			for i := range stripes {
				st := &stripes[i]
				st.mu.Lock()
				for a := range st.seen {
					out = append(out, a)
				}
				st.mu.Unlock()
			}
			return out
		})
		if cfg.ResumeFrom != nil {
			// Carry forward states of shards that may finish before their
			// first fresh checkpoint (or that were already done).
			for _, st := range cfg.ResumeFrom.States {
				ckpt.Update(st)
			}
		}
	}
	var (
		mu        sync.Mutex // guards total / firstErr
		handlerMu sync.Mutex // serializes handler invocations
		total     Stats
		firstErr  error
	)
	dedupHandler := func(r Response) {
		st := &stripes[stripeFor(r.Responder)]
		st.mu.Lock()
		if _, ok := st.seen[r.Responder]; ok {
			st.dups++
			st.mu.Unlock()
			return
		}
		st.seen[r.Responder] = struct{}{}
		st.mu.Unlock()
		if handler != nil {
			handlerMu.Lock()
			handler(r)
			handlerMu.Unlock()
		}
	}

	var wg sync.WaitGroup
	for i := 0; i < shards; i++ {
		shardCfg := cfg
		shardCfg.ShardIndex = i
		shardCfg.CheckpointPath = ""
		shardCfg.ResumeFrom = nil
		if cfg.ResumeFrom != nil {
			if st, ok := cfg.ResumeFrom.StateFor(i); ok {
				stCopy := *st
				shardCfg.Resume = &stCopy
			}
		}
		if userSink := cfg.OnCheckpoint; ckpt != nil || userSink != nil {
			sink := ckpt
			shardCfg.OnCheckpoint = func(st ShardState) {
				if sink != nil {
					sink.Update(st)
				}
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
		var ring *RingDriver
		if cfg.RingSize > 0 {
			ring = NewRingDriver(drv, cfg.RingSize)
			if cfg.Tracer != nil {
				ring.SetTracer(cfg.Tracer, i)
			}
			shardDrv = ring
		}
		scanner, err := New(shardCfg, shardDrv)
		if err != nil {
			if ring != nil {
				ring.Close()
			}
			return total, err
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			stats, err := scanner.Run(ctx, dedupHandler)
			if ring != nil {
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

	for i := range stripes {
		total.Unique += uint64(len(stripes[i].seen))
		total.Duplicates += stripes[i].dups
	}
	mu.Lock()
	if ckpt != nil {
		// Rewrite once more so the file's responder set includes every
		// shard's final emissions, and surface any write failure.
		if err := ckpt.Flush(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	err := firstErr
	mu.Unlock()
	if err != nil && !errors.Is(err, context.Canceled) {
		return total, err
	}
	return total, err
}
