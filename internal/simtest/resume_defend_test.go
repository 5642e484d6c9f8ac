package simtest

import (
	"context"
	"path/filepath"
	"testing"

	"repro/internal/telemetry"
	"repro/internal/xmap"
)

// TestDefendedResumeKeepsCounters is the resume × defend combination: a
// defended scan of a hostile fixture killed mid-cycle and resumed from
// its checkpoint file. The file must hold every counter the killed run
// reported — the defense counters included — and the resumed totals
// build on them, never restart below them. The resumed run's telemetry
// covers only the resumed part.
func TestDefendedResumeKeepsCounters(t *testing.T) {
	for _, name := range []string{"aliased", "spoof", "malformed", "storm"} {
		t.Run(name, func(t *testing.T) {
			hp, ok := HostileProfileByName(name)
			if !ok {
				t.Fatalf("no hostile profile %q", name)
			}
			f, err := BuildHostileFixture(1, hp)
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(t.TempDir(), "scan.ckpt")
			cfg := xmap.Config{
				Window: f.Window, Seed: scanSeed(1), DedupExact: true,
				DrainEvery: hostileDrainEvery, Defend: true,
				CheckpointEvery: 32, CheckpointPath: path,
			}
			killedCfg := cfg
			killedCfg.MaxTargets = 192 // of 256: the "kill"
			killed, err := xmap.ScanParallel(context.Background(), killedCfg, f.Drv, 1, nil)
			if err != nil {
				t.Fatal(err)
			}
			if killed.AliasDetected+killed.Quarantined+killed.Shed == 0 {
				t.Fatalf("fixture sanity: no defense counter moved before the kill: %+v", killed)
			}
			ck, err := xmap.LoadCheckpoint(path)
			if err != nil {
				t.Fatal(err)
			}
			st, ok := ck.StateFor(0)
			if !ok || st.Done {
				t.Fatalf("checkpoint state missing or done: %+v", st)
			}
			saved := map[telemetry.Counter]uint64{}
			st.Stats.Counters(func(c telemetry.Counter, v uint64) { saved[c] = v })
			killed.Counters(func(c telemetry.Counter, v uint64) {
				if saved[c] != v {
					t.Errorf("checkpoint holds %s = %d, the killed run reported %d", c, saved[c], v)
				}
			})

			reg := telemetry.New(telemetry.Options{Shards: 1})
			cfg.ResumeFrom, cfg.Telemetry = ck, reg
			resumed, err := xmap.ScanParallel(context.Background(), cfg, f.Drv, 1, nil)
			if err != nil {
				t.Fatal(err)
			}
			if resumed.Targets+resumed.Blocked != 256 {
				t.Errorf("resumed scan covered %d of 256 cells", resumed.Targets+resumed.Blocked)
			}
			snap := reg.Snapshot()
			resumed.Counters(func(c telemetry.Counter, v uint64) {
				if v < saved[c] {
					t.Errorf("resumed %s = %d, below the checkpointed %d", c, v, saved[c])
				}
				if got := snap.Counters[c.String()]; got != v-saved[c] {
					t.Errorf("resumed run's telemetry %s = %d, want the resumed part %d", c, got, v-saved[c])
				}
			})
		})
	}
}
