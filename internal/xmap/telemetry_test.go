package xmap

import (
	"context"
	"reflect"
	"testing"
	"time"

	"repro/internal/ipv6"
	"repro/internal/telemetry"
)

// checkTelemetryMatchesStats walks the whole Stats field table: every
// scan.* counter must equal the Stats field it is a view of.
func checkTelemetryMatchesStats(t *testing.T, snap *telemetry.Snapshot, stats Stats) {
	t.Helper()
	n := 0
	stats.Counters(func(c telemetry.Counter, want uint64) {
		n++
		if got := snap.Counters[c.String()]; got != want {
			t.Errorf("counter %s = %d, stats say %d", c, got, want)
		}
	})
	if n != len(statsFields) {
		t.Errorf("Counters visited %d fields, table has %d", n, len(statsFields))
	}
}

// TestTelemetryMatchesStats: the scan.* counters are a published view
// of Stats — after a scan they must agree with it field for field, over
// the whole field table, on a clean scan, on a scan with every optional
// subsystem counting against a failing driver, and behind a
// transmission ring whose under-driver fails sends. At full sampling
// the span stream carries one sent span per target.
func TestTelemetryMatchesStats(t *testing.T) {
	f := buildFixture(t)
	reg := telemetry.New(telemetry.Options{Shards: 1})
	tracer := telemetry.NewTracer(telemetry.TracerOptions{Seed: []byte("tel"), SampleShift: 0})
	f.drv.RegisterTelemetry(reg)
	stats, results := runScan(t, Config{
		Window: window(t, f), Seed: []byte("tel"), Telemetry: reg, Tracer: tracer,
	}, f.drv)

	snap := reg.Snapshot()
	checkTelemetryMatchesStats(t, snap, stats)
	if stats.Unique != uint64(len(results)) {
		t.Fatalf("fixture sanity: Unique %d != %d results", stats.Unique, len(results))
	}
	// The engine collector registered by the driver contributes the
	// simulated network's totals to the same snapshot.
	if snap.Counters[telemetry.SimTransmissions.String()] == 0 {
		t.Error("sim.transmissions = 0: engine collector not folded in")
	}
	if snap.Counters[telemetry.SimBytes.String()] == 0 {
		t.Error("sim.bytes = 0")
	}
	// Every probe left a sent span carrying its target.
	var sent, replies uint64
	for _, sp := range tracer.AppendSpans(0, nil) {
		switch sp.Kind {
		case telemetry.SpanSent:
			sent++
			if sp.Addr == ([16]byte{}) {
				t.Error("sent span without a target address")
			}
		case telemetry.SpanReply, telemetry.SpanICMPError:
			replies++
		}
	}
	if sent != stats.Targets {
		t.Errorf("%d sent spans for %d targets", sent, stats.Targets)
	}
	if replies != stats.Received {
		t.Errorf("%d reply spans for %d received responses", replies, stats.Received)
	}
	// The hop-limit histogram saw every validated response.
	hh := snap.Histograms[telemetry.HistReplyHopLimit.String()]
	if hh == nil || hh.Count != stats.Received {
		t.Errorf("hop-limit histogram = %+v, want count %d", hh, stats.Received)
	}
	if snap.Gauges[telemetry.GaugeWindow.String()] == 0 {
		t.Error("scan.window gauge never set")
	}

	t.Run("busy", func(t *testing.T) {
		f := buildFixture(t)
		reg := telemetry.New(telemetry.Options{Shards: 1})
		stats, _ := runScan(t, Config{
			Window: window(t, f), Seed: []byte("tel"), Telemetry: reg,
			Retries: 2, RetryRing: 8, AIMD: true, Defend: true, DrainEvery: 16,
			Blocklist: []ipv6.Prefix{ipv6.MustParsePrefix("2001:db8:0:80::/58")},
		}, &faultyDriver{d: f.drv, failEvery: 5})
		for name, v := range map[string]uint64{
			"SendErrors": stats.SendErrors, "Blocked": stats.Blocked, "Retried": stats.Retried,
			"RetryDropped": stats.RetryDropped, "RateUp": stats.RateUp,
		} {
			if v == 0 {
				t.Errorf("fixture sanity: %s = 0, the leg does not exercise it", name)
			}
		}
		checkTelemetryMatchesStats(t, reg.Snapshot(), stats)
	})

	t.Run("ring", func(t *testing.T) {
		f := buildFixture(t)
		reg := telemetry.New(telemetry.Options{Shards: 1})
		faulty := &faultyDriver{d: f.drv, failEvery: 5}
		stats, err := ScanParallel(context.Background(), Config{
			Window: window(t, f), Seed: []byte("tel"), Telemetry: reg, RingSize: 64,
		}, faulty, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		// The ring accepted every probe; the under-driver's rejections
		// surface as send errors when the ring closes.
		if stats.SendErrors == 0 || stats.SendErrors != uint64(faulty.failed) {
			t.Fatalf("SendErrors = %d, under-driver failed %d sends", stats.SendErrors, faulty.failed)
		}
		checkTelemetryMatchesStats(t, reg.Snapshot(), stats)
	})
}

// TestScanUnaffectedByTelemetry: attaching a registry must not change
// what a seeded scan finds — instrumentation observes, never steers.
func TestScanUnaffectedByTelemetry(t *testing.T) {
	f1 := buildFixture(t)
	bare, bareResults := runScan(t, Config{Window: window(t, f1), Seed: []byte("same")}, f1.drv)
	f2 := buildFixture(t)
	reg := telemetry.New(telemetry.Options{Shards: 1})
	inst, instResults := runScan(t,
		Config{Window: window(t, f2), Seed: []byte("same"), Telemetry: reg}, f2.drv)
	if bare.Sent != inst.Sent || bare.Received != inst.Received || bare.Unique != inst.Unique {
		t.Errorf("stats diverge with telemetry attached: %+v vs %+v", bare, inst)
	}
	if len(bareResults) != len(instResults) {
		t.Fatalf("result counts diverge: %d vs %d", len(bareResults), len(instResults))
	}
	for i := range bareResults {
		if bareResults[i].Responder != instResults[i].Responder {
			t.Errorf("result %d diverges: %s vs %s", i, bareResults[i].Responder, instResults[i].Responder)
		}
	}
}

// TestStatsMerge: counts sum, Elapsed takes the slowest shard, and
// Unique stays untouched (the run counts the members of its seen-set).
func TestStatsMerge(t *testing.T) {
	// The table lists every counter field of Stats exactly once.
	var probe Stats
	fields := map[*uint64]bool{}
	for _, f := range statsFields {
		fields[f.field(&probe)] = true
	}
	if want := reflect.TypeOf(probe).NumField() - 1; len(fields) != want { // all but Elapsed
		t.Errorf("statsFields covers %d distinct fields, Stats has %d counters", len(fields), want)
	}
	// Over the whole field table: every counter but Unique sums.
	var x, y Stats
	for i, f := range statsFields {
		*f.field(&x), *f.field(&y) = uint64(i+1), uint64(100*(i+1))
	}
	x.Merge(y)
	for i, f := range statsFields {
		want := uint64(101 * (i + 1))
		if f.shardLocal {
			want = uint64(i + 1)
		}
		if got := *f.field(&x); got != want {
			t.Errorf("merged %s = %d, want %d", f.counter, got, want)
		}
	}

	a := Stats{Targets: 10, Sent: 12, Received: 5, Duplicates: 1, Unique: 4,
		Retried: 2, RateUp: 1, Elapsed: 3 * time.Second}
	b := Stats{Targets: 20, Sent: 21, Received: 9, Duplicates: 2, Unique: 7,
		Retried: 1, RateDown: 2, Elapsed: 2 * time.Second}
	a.Merge(b)
	if a.Targets != 30 || a.Sent != 33 || a.Received != 14 || a.Duplicates != 3 ||
		a.Retried != 3 || a.RateUp != 1 || a.RateDown != 2 {
		t.Errorf("merged counts wrong: %+v", a)
	}
	if a.Unique != 4 {
		t.Errorf("Unique = %d after merge, want the receiver's own 4", a.Unique)
	}
	if a.Elapsed != 3*time.Second {
		t.Errorf("Elapsed = %v, want the max 3s", a.Elapsed)
	}
}

// TestScanParallelTelemetryCountsRunUnique: under ScanParallel every
// worker publishes only its own admissions to the run's one seen-set,
// so the live scan.unique sums to the run's Unique — the handler calls —
// and scan.duplicates to its Duplicates, whichever worker first saw a
// responder the others hear again.
func TestScanParallelTelemetryCountsRunUnique(t *testing.T) {
	f := buildFixture(t)
	reg := telemetry.New(telemetry.Options{Shards: 4})
	calls := 0
	stats, err := ScanParallel(context.Background(), Config{
		Window: window(t, f), Seed: []byte("tel-parallel"), Telemetry: reg,
	}, f.drv, 4, func(Response) { calls++ })
	if err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	checkTelemetryMatchesStats(t, snap, stats)
	if got := snap.Counters[telemetry.ScanUnique.String()]; got != 6 || stats.Unique != 6 || calls != 6 {
		t.Errorf("scan.unique %d, Stats.Unique %d, %d handler calls; want 6 each", got, stats.Unique, calls)
	}
	if got := snap.Counters[telemetry.ScanDuplicates.String()]; got != 250 || stats.Duplicates != 250 {
		t.Errorf("scan.duplicates %d, Stats.Duplicates %d; want 250 each", got, stats.Duplicates)
	}
}
