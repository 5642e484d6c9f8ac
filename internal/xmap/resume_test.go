package xmap

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/ipv6"
)

// collectScan runs a scan to completion, returning stats and the set of
// emitted responders.
func collectScan(t *testing.T, cfg Config, drv Driver) (Stats, map[ipv6.Addr]bool) {
	t.Helper()
	s, err := New(cfg, drv)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[ipv6.Addr]bool{}
	stats, err := s.Run(context.Background(), func(r Response) { seen[r.Responder] = true })
	if err != nil {
		t.Fatal(err)
	}
	return stats, seen
}

// recordedLeg is one scanner run with everything a resume needs: every
// checkpoint state, the emissions in order, and how many had been made
// when each state was cut.
type recordedLeg struct {
	states  []ShardState
	cuts    []int
	emitted []ipv6.Addr
	stats   Stats
	err     error
}

// runRecorded runs cfg to its end (or ctx's), recording as above; an
// OnCheckpoint already in cfg runs after the record is taken.
func runRecorded(t *testing.T, ctx context.Context, cfg Config, drv Driver) *recordedLeg {
	t.Helper()
	leg := &recordedLeg{}
	user := cfg.OnCheckpoint
	cfg.OnCheckpoint = func(st ShardState) {
		leg.states = append(leg.states, st)
		leg.cuts = append(leg.cuts, len(leg.emitted))
		if user != nil {
			user(st)
		}
	}
	s, err := New(cfg, drv)
	if err != nil {
		t.Fatal(err)
	}
	leg.stats, leg.err = s.Run(ctx, func(r Response) { leg.emitted = append(leg.emitted, r.Responder) })
	return leg
}

// checkpointAt is the one-shard Checkpoint a kill right after state i
// would leave on disk: that state and the responders reported up to it.
func (l *recordedLeg) checkpointAt(cfg Config, i int) *Checkpoint {
	return &Checkpoint{
		Digest: ConfigDigest(cfg, 1), Shards: 1,
		Responders: l.emitted[:l.cuts[i]], States: []ShardState{l.states[i]},
	}
}

// TestResumeMatchesUninterrupted is the kill-and-resume differential
// oracle at the single-scanner level: a scan stopped mid-cycle and
// resumed from its last periodic checkpoint must report exactly the
// responders an uninterrupted scan reports, re-sending at most one
// checkpoint interval of probes.
func TestResumeMatchesUninterrupted(t *testing.T) {
	const checkpointEvery = 32
	base := func(f *scanFixture) Config {
		return Config{Window: window(t, f), Seed: []byte("resume")}
	}

	// Leg 0: the uninterrupted reference on its own fixture.
	fRef := buildFixture(t)
	refStats, refSeen := collectScan(t, base(fRef), fRef.drv)

	// Leg 1: same scan on a fresh identical fixture, killed at target
	// 100 with periodic checkpoints. The crash discards everything after
	// the last periodic state (target 96), like a real kill -9 would.
	f := buildFixture(t)
	cfg := base(f)
	cfg.MaxTargets = 100
	cfg.CheckpointEvery = checkpointEvery
	leg1 := runRecorded(t, context.Background(), cfg, f.drv)
	if leg1.err != nil {
		t.Fatal(leg1.err)
	}
	if len(leg1.states) < 2 {
		t.Fatalf("only %d checkpoint states emitted", len(leg1.states))
	}
	last := len(leg1.states) - 2 // last periodic state, not the exit flush
	crash := leg1.states[last]
	if crash.Stats.Targets != 96 {
		t.Fatalf("periodic checkpoint at %d targets, want 96", crash.Stats.Targets)
	}

	// Leg 2: resume on the same fixture (the network kept existing).
	cfg2 := base(f)
	cfg2.ResumeFrom = leg1.checkpointAt(cfg2, last)
	leg2Stats, leg2Seen := collectScan(t, cfg2, f.drv)

	// The union of both legs' emissions equals the uninterrupted set.
	union := map[ipv6.Addr]bool{}
	for _, a := range leg1.emitted {
		union[a] = true
	}
	for a := range leg2Seen {
		union[a] = true
	}
	if len(union) != len(refSeen) {
		t.Fatalf("union has %d responders, uninterrupted %d", len(union), len(refSeen))
	}
	for a := range refSeen {
		if !union[a] {
			t.Errorf("responder %s lost across the crash", a)
		}
	}
	// Cumulative coverage: every target probed exactly once, except the
	// re-sent tail between the checkpoint and the kill.
	if leg2Stats.Targets != refStats.Targets {
		t.Errorf("resumed scan probed %d cumulative targets, want %d", leg2Stats.Targets, refStats.Targets)
	}
	resent := leg2Stats.Sent + 100 - crash.Stats.Sent - refStats.Sent
	if resent > checkpointEvery {
		t.Errorf("crash re-sent %d probes, more than one checkpoint interval (%d)", resent, checkpointEvery)
	}
}

// TestResumeAfterCancellation: context cancellation is the signal-driven
// shutdown path; the state it emits must resume to full coverage.
func TestResumeAfterCancellation(t *testing.T) {
	f := buildFixture(t)
	ctx, cancel := context.WithCancel(context.Background())
	cfg := Config{
		Window: window(t, f), Seed: []byte("cancel"),
		CheckpointEvery: 16,
		OnCheckpoint: func(st ShardState) {
			if st.Stats.Targets >= 48 {
				cancel() // the "signal" arrives mid-scan
			}
		},
	}
	leg1 := runRecorded(t, ctx, cfg, f.drv)
	if leg1.err != context.Canceled {
		t.Fatalf("run returned %v, want context.Canceled", leg1.err)
	}
	exit := len(leg1.states) - 1
	if leg1.states[exit].Done {
		t.Fatal("cancelled scan checkpointed as done")
	}

	cfg2 := Config{Window: window(t, f), Seed: []byte("cancel")}
	cfg2.ResumeFrom = leg1.checkpointAt(cfg2, exit)
	stats, seen := collectScan(t, cfg2, f.drv)
	for _, a := range leg1.emitted {
		seen[a] = true
	}
	if stats.Targets != 256 {
		t.Errorf("cumulative targets = %d, want 256", stats.Targets)
	}
	if len(seen) < fixtureCPEs+1 {
		t.Errorf("found %d responders across cancel+resume, want %d", len(seen), fixtureCPEs+1)
	}
}

// TestScanParallelCheckpointResume drives the whole stack: a sharded
// scan writes its checkpoint file, stops early, and a second process
// (modelled by a fresh ScanParallel call) resumes it without re-emitting
// responders the first leg already reported.
func TestScanParallelCheckpointResume(t *testing.T) {
	const shards = 4
	path := filepath.Join(t.TempDir(), "scan.ckpt")

	f := buildFixture(t)
	cfg := Config{
		Window: window(t, f), Seed: []byte("parallel-resume"),
		MaxTargets:      40, // per shard: 160 of 256 targets, then "crash"
		CheckpointEvery: 16,
		CheckpointPath:  path,
	}
	emitted := map[ipv6.Addr]int{}
	if _, err := ScanParallel(context.Background(), cfg, f.drv, shards, func(r Response) { emitted[r.Responder]++ }); err != nil {
		t.Fatal(err)
	}

	ck, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(ck.States) != shards {
		t.Fatalf("checkpoint has %d shard states, want %d", len(ck.States), shards)
	}
	if len(ck.Responders) != len(emitted) {
		t.Fatalf("checkpoint has %d responders, handler saw %d", len(ck.Responders), len(emitted))
	}

	cfg2 := Config{
		Window: window(t, f), Seed: []byte("parallel-resume"),
		CheckpointPath: path,
		ResumeFrom:     ck,
	}
	total, err := ScanParallel(context.Background(), cfg2, f.drv, shards, func(r Response) { emitted[r.Responder]++ })
	if err != nil {
		t.Fatal(err)
	}
	if total.Targets != 256 {
		t.Errorf("cumulative targets = %d, want 256", total.Targets)
	}
	if len(emitted) != fixtureCPEs+1 {
		t.Errorf("found %d responders, want %d", len(emitted), fixtureCPEs+1)
	}
	if total.Unique != uint64(len(emitted)) {
		t.Errorf("Unique = %d, handler saw %d", total.Unique, len(emitted))
	}
	for a, n := range emitted {
		if n != 1 {
			t.Errorf("responder %s emitted %d times across resume", a, n)
		}
	}
	// The final checkpoint marks every shard done.
	final, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range final.States {
		if !st.Done {
			t.Errorf("shard %d not marked done after completion", st.Shard)
		}
	}
}

// TestBeforeCheckpointDrainsOutput: with a handler that only buffers and
// a BeforeCheckpoint that drains the buffer, the file on disk never lists
// a responder whose row is still buffered — what a kill -9 right after
// any checkpoint write would lose, a resume re-probes. Without the
// callback the same scan leaves listed responders undrained, and a
// failing callback fails the scan and skips the write.
func TestBeforeCheckpointDrainsOutput(t *testing.T) {
	const shards = 2
	scan := func(drain bool, beforeErr error) (undrained, writes int, err error) {
		f := buildFixture(t)
		path := filepath.Join(t.TempDir(), "scan.ckpt")
		var buffered []ipv6.Addr // the handler's output buffer
		var mu sync.Mutex        // shards call OnCheckpoint concurrently
		durable := map[ipv6.Addr]bool{}
		cfg := Config{
			Window: window(t, f), Seed: []byte("before-checkpoint"),
			CheckpointEvery: 16,
			CheckpointPath:  path,
			// OnCheckpoint runs after the write: read back what a kill
			// would leave (this write or another shard's later one).
			OnCheckpoint: func(ShardState) {
				mu.Lock()
				defer mu.Unlock()
				ck, lerr := LoadCheckpoint(path)
				if lerr != nil {
					if beforeErr == nil {
						t.Error(lerr)
					}
					return
				}
				writes++
				for _, a := range ck.Responders {
					if !durable[a] {
						undrained++
					}
				}
			},
		}
		if drain || beforeErr != nil {
			cfg.BeforeCheckpoint = func() error {
				mu.Lock()
				defer mu.Unlock()
				for _, a := range buffered {
					durable[a] = true
				}
				buffered = buffered[:0]
				return beforeErr
			}
		}
		_, err = ScanParallel(context.Background(), cfg, f.drv, shards, func(r Response) {
			buffered = append(buffered, r.Responder)
		})
		return undrained, writes, err
	}

	undrained, writes, err := scan(true, nil)
	if err != nil {
		t.Fatal(err)
	}
	if writes < 256/16 {
		t.Errorf("%d checkpoint writes observed, want at least %d", writes, 256/16)
	}
	if undrained != 0 {
		t.Errorf("%d listed responders had rows still buffered at a checkpoint write", undrained)
	}
	if undrained, _, err = scan(false, nil); err != nil || undrained == 0 {
		t.Errorf("without BeforeCheckpoint: %d undrained, err %v; the test cannot see the defect", undrained, err)
	}
	errDrain := errors.New("disk full")
	if _, writes, err = scan(false, errDrain); !errors.Is(err, errDrain) || writes != 0 {
		t.Errorf("failing BeforeCheckpoint: err %v after %d file writes, want %v and none", err, writes, errDrain)
	}
}

// TestScanParallelResumeRejectsSkew: a checkpoint must not resume under
// a different identity configuration, and the refusal leaves the file
// it was loaded from as it was.
func TestScanParallelResumeRejectsSkew(t *testing.T) {
	f := buildFixture(t)
	cfg := Config{Window: window(t, f), Seed: []byte("skew")}
	cfg.CheckpointPath = filepath.Join(t.TempDir(), "scan.ckpt")
	ck := &Checkpoint{Digest: ConfigDigest(cfg, 2), Shards: 2, States: []ShardState{{Shard: 1}}}
	if err := ck.WriteFile(cfg.CheckpointPath); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(cfg.CheckpointPath)
	if err != nil {
		t.Fatal(err)
	}

	bad := cfg
	bad.Seed = []byte("other-seed")
	bad.ResumeFrom = ck
	if _, err := ScanParallel(context.Background(), bad, f.drv, 2, nil); err == nil {
		t.Error("seed skew accepted")
	}
	cfg.ResumeFrom = ck
	if _, err := ScanParallel(context.Background(), cfg, f.drv, 4, nil); err == nil {
		t.Error("shard-count skew accepted")
	}
	if after, err := os.ReadFile(cfg.CheckpointPath); err != nil || !bytes.Equal(after, before) {
		t.Errorf("refused resume rewrote the checkpoint file (read error %v)", err)
	}
}

// TestResumeRefusesOtherSplit: a checkpoint of two workers written
// under the cycle-position split of older builds, or one taken with
// another worker count, is refused with an error naming the reason,
// before any probe goes out.
func TestResumeRefusesOtherSplit(t *testing.T) {
	f := buildFixture(t)
	cfg := Config{Window: window(t, f), Seed: []byte("split")}
	for _, tc := range []struct {
		name string
		ck   Checkpoint
		want string
	}{
		{"cycle-position split", Checkpoint{Digest: configDigest(cfg, 2, false), Shards: 2}, "cycle-position worker split"},
		{"four workers", Checkpoint{Digest: ConfigDigest(cfg, 4), Shards: 4}, "taken with 4 shards, resuming with 2"},
	} {
		path := filepath.Join(t.TempDir(), "scan.ckpt")
		tc.ck.States = []ShardState{{Shard: 1}}
		if err := tc.ck.WriteFile(path); err != nil {
			t.Fatal(err)
		}
		ck, err := LoadCheckpoint(path)
		if err != nil {
			t.Fatal(err)
		}
		resume := cfg
		resume.ResumeFrom = ck
		drv := &memDriver{}
		_, err = ScanParallel(context.Background(), resume, drv, 2, nil)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want one naming %q", tc.name, err, tc.want)
		}
		if len(drv.pkts) != 0 {
			t.Errorf("%s: %d probes sent before the refusal", tc.name, len(drv.pkts))
		}
	}
}

// TestResumeRestoresDedup: a scan killed after its last periodic
// checkpoint re-probes the tail, and the ISP router that answered before
// the cut answers again. No responder reported before the cut may reach
// the handler a second time — under both dedup implementations, direct
// and through a transmission ring. Responders first seen in the re-sent
// tail may repeat: the file never heard of them (the kill -9 cost).
func TestResumeRestoresDedup(t *testing.T) {
	for _, tc := range []struct {
		name        string
		exact, ring bool
	}{
		{"bloom", false, false},
		{"exact", true, false},
		{"bloom-ring", false, true},
		{"exact-ring", true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := buildFixture(t)
			driver := func() (Driver, func()) {
				if !tc.ring {
					return f.drv, func() {}
				}
				ring := NewRingDriver(f.drv, 16)
				return ring, ring.Close
			}
			cfg := Config{
				Window: window(t, f), Seed: []byte("dedup-resume"),
				DedupExact: tc.exact, MaxTargets: 220, CheckpointEvery: 16,
			}
			drv, closeDrv := driver()
			leg1 := runRecorded(t, context.Background(), cfg, drv)
			closeDrv()
			if leg1.err != nil {
				t.Fatal(leg1.err)
			}
			last := len(leg1.states) - 2 // last periodic state, not the exit flush
			cut := leg1.cuts[last]
			if cut == 0 || leg1.states[last].Stats.Targets >= 220 {
				t.Fatalf("cut after %d emissions at %d targets; nothing to suppress or no tail to re-probe",
					cut, leg1.states[last].Stats.Targets)
			}
			beforeCut := map[ipv6.Addr]bool{}
			for _, a := range leg1.emitted[:cut] {
				beforeCut[a] = true
			}

			cfg2 := Config{Window: window(t, f), Seed: []byte("dedup-resume"), DedupExact: tc.exact}
			cfg2.ResumeFrom = leg1.checkpointAt(cfg2, last)
			drv, closeDrv = driver()
			defer closeDrv()
			s2, err := New(cfg2, drv)
			if err != nil {
				t.Fatal(err)
			}
			fresh := 0
			stats2, err := s2.Run(context.Background(), func(r Response) {
				if beforeCut[r.Responder] {
					t.Errorf("responder %s, reported before the cut, handed to the handler again", r.Responder)
				}
				fresh++
			})
			if err != nil {
				t.Fatal(err)
			}
			if stats2.Duplicates <= leg1.states[last].Stats.Duplicates {
				t.Error("resumed leg suppressed nothing: the router never answered again, so the test proves nothing")
			}
			if want := leg1.states[last].Stats.Unique + uint64(fresh); stats2.Unique != want {
				t.Errorf("cumulative Unique = %d, want %d (checkpointed) + %d (new)", stats2.Unique, want-uint64(fresh), fresh)
			}
			if tc.exact {
				// The seeded exact set counts from 1: the resumed leg's answers.
				counts := s2.ResponderCounts()
				for a := range beforeCut {
					if counts[a] == 0 {
						t.Errorf("seeded responder %s missing from ResponderCounts", a)
					}
				}
			}
		})
	}
}

// TestResumeValidation: a checkpoint that does not fit the scanner must
// be rejected at construction, not crash or silently misdirect the scan.
func TestResumeValidation(t *testing.T) {
	f := buildFixture(t)
	base := Config{Window: window(t, f), Seed: []byte("val")}
	resume := func(cfg Config, shards int, st ShardState) Config {
		cfg.ResumeFrom = &Checkpoint{Digest: ConfigDigest(cfg, shards), Shards: shards, States: []ShardState{st}}
		return cfg
	}

	if _, err := New(resume(base, 1, ShardState{}), f.drv); err != nil {
		t.Errorf("fitting checkpoint refused: %v", err)
	}

	seedSkew := resume(base, 1, ShardState{})
	seedSkew.Seed = []byte("other")
	if _, err := New(seedSkew, f.drv); err == nil {
		t.Error("checkpoint of another seed accepted")
	}

	shardSkew := resume(base, 4, ShardState{})
	if _, err := New(shardSkew, f.drv); err == nil {
		t.Error("four-shard checkpoint accepted by a lone scanner")
	}

	// The dedup implementation is not part of a checkpoint's identity.
	exact := resume(base, 1, ShardState{})
	exact.DedupExact = true
	if _, err := New(exact, f.drv); err != nil {
		t.Errorf("switching dedup implementation across a resume refused: %v", err)
	}

	r := newRetryRing(4)
	r.push(retryEntry{dst: retryAddr(1), due: 1, attempts: 1})
	retriesOff := resume(base, 1, ShardState{Retry: r.appendState(nil)})
	if _, err := New(retriesOff, f.drv); err == nil {
		t.Error("pending retries accepted with retries disabled")
	}
	badRetry := resume(base, 1, ShardState{Retry: []byte{0, 0, 0, 9, 1, 2, 3}})
	badRetry.Retries = 1
	if _, err := New(badRetry, f.drv); err == nil {
		t.Error("corrupt retry state accepted")
	}
}

// TestCheckpointLogBounded: a ScanParallel checkpointing every few
// targets keeps its log within 16 bytes per responder plus 4 KiB after
// every update — compaction caps the superseded shard states — and
// takes both paths: appends to the open file and snapshot replacements.
func TestCheckpointLogBounded(t *testing.T) {
	const shards = 2
	f := buildFixture(t)
	path := filepath.Join(t.TempDir(), "scan.ckpt")
	var (
		mu                         sync.Mutex
		emitted                    int
		last                       os.FileInfo
		updates, appends, replaces int
	)
	cfg := Config{
		Window: window(t, f), Seed: []byte("bounded-log"),
		CheckpointEvery: 4,
		CheckpointPath:  path,
		OnCheckpoint: func(ShardState) {
			mu.Lock()
			defer mu.Unlock()
			fi, err := os.Stat(path)
			if err != nil {
				t.Error(err)
				return
			}
			updates++
			if limit := int64(16*emitted + 4096); fi.Size() > limit {
				t.Errorf("update %d: log is %d bytes for %d responders, want <= %d", updates, fi.Size(), emitted, limit)
			}
			if last != nil {
				if os.SameFile(last, fi) {
					appends++
				} else {
					replaces++
				}
			}
			last = fi
		},
	}
	_, err := ScanParallel(context.Background(), cfg, f.drv, shards, func(Response) {
		mu.Lock()
		emitted++
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	if updates < 256/4 || appends == 0 || replaces == 0 {
		t.Errorf("%d updates: %d appended, %d replaced the file; want both", updates, appends, replaces)
	}
	ck, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(ck.Responders) != emitted || len(ck.States) != shards {
		t.Errorf("final log: %d responders, %d states; handler saw %d", len(ck.Responders), len(ck.States), emitted)
	}
}

// TestResumeFirstWriteReplacesFile: a resumed run never appends to the
// file it resumed from. Until its first write that file is untouched and
// loads as it was; the first write replaces it by rename.
func TestResumeFirstWriteReplacesFile(t *testing.T) {
	f := buildFixture(t)
	path := filepath.Join(t.TempDir(), "scan.ckpt")
	cfg := Config{
		Window: window(t, f), Seed: []byte("resume-replace"),
		MaxTargets: 40, CheckpointEvery: 8, CheckpointPath: path,
	}
	if _, err := ScanParallel(context.Background(), cfg, f.drv, 2, nil); err != nil {
		t.Fatal(err)
	}
	old, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	oldInfo, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	ck, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	var drained, writes int
	cfg.MaxTargets = 0
	cfg.ResumeFrom = ck
	// The first drain precedes the first write: writes are serialised.
	cfg.BeforeCheckpoint = func() error {
		if drained++; drained > 1 {
			return nil
		}
		if data, err := os.ReadFile(path); err != nil || !bytes.Equal(data, old) {
			t.Errorf("the resumed-from file changed before the first write (read error %v)", err)
		}
		if _, err := LoadCheckpoint(path); err != nil {
			t.Errorf("the resumed-from file no longer loads: %v", err)
		}
		return nil
	}
	cfg.OnCheckpoint = func(ShardState) {
		if writes++; writes > 1 {
			return
		}
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if os.SameFile(oldInfo, fi) {
			t.Error("the resumed run's first write reused the old file instead of renaming a snapshot over it")
		}
	}
	// Both shards' goroutines run the hooks above: serialise them.
	var mu sync.Mutex
	before, on := cfg.BeforeCheckpoint, cfg.OnCheckpoint
	cfg.BeforeCheckpoint = func() error { mu.Lock(); defer mu.Unlock(); return before() }
	cfg.OnCheckpoint = func(st ShardState) { mu.Lock(); defer mu.Unlock(); on(st) }
	if _, err := ScanParallel(context.Background(), cfg, f.drv, 2, nil); err != nil {
		t.Fatal(err)
	}
	if writes == 0 {
		t.Fatal("the resumed run wrote no checkpoint")
	}
}

// TestScanParallelSliceCheckpoint: each slice of a distributed scan
// checkpoints and resumes on its own, the resumed slices together find
// what the undivided scan finds, and one slice's file never resumes
// another.
func TestScanParallelSliceCheckpoint(t *testing.T) {
	f := buildFixture(t)
	base := Config{Window: window(t, f), Seed: []byte("slice-ckpt"), DedupExact: true, CheckpointEvery: 16}
	whole := map[ipv6.Addr]bool{}
	if _, err := ScanParallel(context.Background(), base, f.drv, 1, func(r Response) { whole[r.Responder] = true }); err != nil {
		t.Fatal(err)
	}
	union := map[ipv6.Addr]bool{}
	collect := func(r Response) { union[r.Responder] = true }
	dir := t.TempDir()
	for k := 0; k < 2; k++ {
		cfg := base
		cfg.Shards, cfg.ShardIndex = 2, k
		cfg.CheckpointPath = filepath.Join(dir, fmt.Sprintf("slice%d.ckpt", k))
		half := cfg
		half.MaxTargets = 32
		if _, err := ScanParallel(context.Background(), half, f.drv, 2, collect); err != nil {
			t.Fatal(err)
		}
		ck, err := LoadCheckpoint(cfg.CheckpointPath)
		if err != nil {
			t.Fatal(err)
		}
		other := cfg
		other.ShardIndex = 1 - k
		other.ResumeFrom = ck
		if _, err := ScanParallel(context.Background(), other, f.drv, 2, nil); err == nil ||
			!strings.Contains(err.Error(), "digest mismatch") {
			t.Errorf("slice %d's checkpoint resumed slice %d: err %v", k, 1-k, err)
		}
		cfg.ResumeFrom = ck
		if _, err := ScanParallel(context.Background(), cfg, f.drv, 2, collect); err != nil {
			t.Fatal(err)
		}
	}
	if len(union) != len(whole) {
		t.Errorf("resumed slices found %d responders, the whole scan %d", len(union), len(whole))
	}
	for a := range whole {
		if !union[a] {
			t.Errorf("responder %s missing from the resumed slices", a)
		}
	}
}

// TestScanParallelClosesCheckpointLog: the append handle is closed on
// every return path — completion, cancellation, a refused resume and a
// failing BeforeCheckpoint.
func TestScanParallelClosesCheckpointLog(t *testing.T) {
	openFDs := func() int {
		entries, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Skipf("no /proc/self/fd: %v", err)
		}
		return len(entries)
	}
	openFDs()
	f := buildFixture(t)
	base := func() Config {
		return Config{
			Window: window(t, f), Seed: []byte("close-log"),
			CheckpointEvery: 16, CheckpointPath: filepath.Join(t.TempDir(), "scan.ckpt"),
		}
	}
	cancelled := base()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cancelled.OnCheckpoint = func(ShardState) { cancel() }
	skewed := base()
	skewed.ResumeFrom = &Checkpoint{Digest: ConfigDigest(skewed, 3), Shards: 3}
	failing := base()
	failing.BeforeCheckpoint = func() error { return errors.New("disk full") }
	for _, tc := range []struct {
		name string
		ctx  context.Context
		cfg  Config
	}{
		{"complete", context.Background(), base()},
		{"cancelled", ctx, cancelled},
		{"refused-resume", context.Background(), skewed},
		{"before-fails", context.Background(), failing},
	} {
		before := openFDs()
		ScanParallel(tc.ctx, tc.cfg, f.drv, 2, nil)
		if after := openFDs(); after != before {
			t.Errorf("%s: %d open descriptors before the scan, %d after", tc.name, before, after)
		}
	}
}

// burstDriver records the largest burst handed to SendBatch: a run's
// 8-slot ring pumps bursts of at most 8, direct sends a whole send
// window (16 targets between the test's checkpoints).
type burstDriver struct {
	*SimDriver
	largest int
}

func (d *burstDriver) SendBatch(pkts [][]byte) (int, error) {
	d.largest = max(d.largest, len(pkts))
	return d.SimDriver.SendBatch(pkts)
}

// TestLoneScannerIsRunOfOne: New+Run is ScanParallel(…, 1, …), the same
// run, so a lone scanner honours CheckpointPath, BeforeCheckpoint and
// RingSize. On a slice of a distributed scan, stopped early and resumed
// from its file, both write the same CSV byte for byte and the same
// checkpoint log but for the Elapsed wall times it records.
func TestLoneScannerIsRunOfOne(t *testing.T) {
	scan := func(lone bool) (csv []byte, ckpt *Checkpoint, size int64) {
		f := buildFixture(t)
		drv := &burstDriver{SimDriver: f.drv}
		path := filepath.Join(t.TempDir(), "scan.ckpt")
		var buf bytes.Buffer
		out, err := NewCSVOutput(&buf)
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{
			Window: window(t, f), Seed: []byte("run-of-one"), Shards: 2, ShardIndex: 1,
			RingSize: 8, CheckpointEvery: 16, CheckpointPath: path, BeforeCheckpoint: out.Flush,
		}
		handler := func(r Response) {
			if err := out.Write(r); err != nil {
				t.Error(err)
			}
		}
		leg := func(cfg Config) {
			var stats Stats
			var err error
			if lone {
				var s *Scanner
				if s, err = New(cfg, drv); err != nil {
					t.Fatal(err)
				}
				stats, err = s.Run(context.Background(), handler)
			} else {
				stats, err = ScanParallel(context.Background(), cfg, drv, 1, handler)
			}
			if err != nil {
				t.Fatal(err)
			}
			if stats.Sent == 0 {
				t.Fatal("the leg sent nothing")
			}
		}
		half := cfg
		half.MaxTargets = 40
		leg(half)
		if cfg.ResumeFrom, err = LoadCheckpoint(path); err != nil {
			t.Fatal(err)
		}
		leg(cfg)
		if err := out.Flush(); err != nil {
			t.Fatal(err)
		}
		if drv.largest == 0 || drv.largest > cfg.RingSize {
			t.Errorf("lone=%v: largest burst %d, a ring of %d pumps at most that", lone, drv.largest, cfg.RingSize)
		}
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if ckpt, err = LoadCheckpoint(path); err != nil {
			t.Fatal(err)
		}
		for i := range ckpt.States {
			ckpt.States[i].Stats.Elapsed = 0
		}
		return buf.Bytes(), ckpt, fi.Size()
	}
	loneCSV, loneCkpt, loneSize := scan(true)
	runCSV, runCkpt, runSize := scan(false)
	if !bytes.Equal(loneCSV, runCSV) {
		t.Errorf("CSV differs:\nNew+Run:\n%s\nScanParallel(1):\n%s", loneCSV, runCSV)
	}
	if strings.Count(string(loneCSV), "\n") < 2 {
		t.Errorf("CSV lists no responder:\n%s", loneCSV)
	}
	if !bytes.Equal(loneCkpt.Marshal(), runCkpt.Marshal()) || loneSize != runSize {
		t.Errorf("checkpoint differs: New+Run %d bytes %+v, ScanParallel(1) %d bytes %+v", loneSize, loneCkpt, runSize, runCkpt)
	}
	if len(loneCkpt.States) != 1 || !loneCkpt.States[0].Done || len(loneCkpt.Responders) == 0 {
		t.Errorf("lone scanner's final checkpoint: %d states, %d responders; want one done state and the responders",
			len(loneCkpt.States), len(loneCkpt.Responders))
	}
}
