package simtest

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/ipv6"
	"repro/internal/telemetry"
	"repro/internal/xmap"
)

// wedgeDriver passes a fixed number of packets through to the
// underlying driver, then blocks every further SendBatch until release
// is closed — a deterministic model of a wedged packet layer (a NIC
// queue that stopped draining). Behind a RingDriver it wedges the pump,
// the ring fills, and the scanner spins in ring backpressure: exactly
// the hang the stall watchdog exists to name.
type wedgeDriver struct {
	under   xmap.Driver
	accept  int64
	sent    atomic.Int64
	release chan struct{}
}

func (d *wedgeDriver) SendBatch(pkts [][]byte) (int, error) {
	if d.sent.Load() >= d.accept {
		<-d.release
	}
	n, err := d.under.SendBatch(pkts)
	d.sent.Add(int64(n))
	return n, err
}

func (d *wedgeDriver) RecvBatch(buf [][]byte) [][]byte { return d.under.RecvBatch(buf) }

func (d *wedgeDriver) SourceAddr() ipv6.Addr { return d.under.SourceAddr() }

func (d *wedgeDriver) Release(pkts [][]byte) {
	if rel, ok := d.under.(xmap.Releaser); ok {
		rel.Release(pkts)
	}
}

// RunWatchdogScenario wedges one of two shard scanners mid-send and
// checks the stall watchdog produces a structured diagnosis naming the
// stalled shard, its stage, and the ring-stall span its trace stream
// recorded last — while the cleanly finished shard stays exempt. The
// wedge is then released and the scan must complete normally.
func RunWatchdogScenario(seed int64) ([]string, error) {
	f, err := BuildISPFixture(seed)
	if err != nil {
		return nil, err
	}
	var problems []string
	tracer := telemetry.NewTracer(telemetry.TracerOptions{
		Seed:        scanSeed(seed),
		SampleShift: 0, // trace everything: the wedged probe must span
		ScanStreams: 2,
		SimStreams:  1,
	})
	wd := telemetry.NewWatchdog(2, 4, tracer)
	f.Drv.RegisterTracer(tracer)

	cfg := xmap.Config{
		Window:   f.Window,
		Seed:     scanSeed(seed),
		Shards:   2,
		Tracer:   tracer,
		Watchdog: wd,
	}

	// Shard 0 runs to completion first: it must report StageDone and
	// stay exempt from every later stall check.
	cfg0 := cfg
	cfg0.ShardIndex = 0
	s0, err := xmap.New(cfg0, f.Drv)
	if err != nil {
		return nil, err
	}
	if _, err := s0.Run(context.Background(), nil); err != nil {
		return nil, fmt.Errorf("shard 0 scan: %w", err)
	}

	// Shard 1 sends through a small ring whose pump wedges after a few
	// packets; the scanner goroutine ends up spinning on the full ring.
	wedge := &wedgeDriver{under: f.Drv, accept: 8, release: make(chan struct{})}
	ring := xmap.NewRingDriver(wedge, 8)
	ring.SetTracer(tracer, 1)
	cfg1 := cfg
	cfg1.ShardIndex = 1
	s1, err := xmap.New(cfg1, ring)
	if err != nil {
		ring.Close()
		return nil, err
	}
	done := make(chan error, 1)
	go func() {
		_, err := s1.Run(context.Background(), nil)
		done <- err
	}()

	// Tick the checker until the wedge is diagnosed. The checker clock
	// is our own loop counter — the watchdog only needs monotonicity.
	var diag *telemetry.StallDiagnosis
	deadline := time.Now().Add(10 * time.Second)
	for tick := uint64(1); diag == nil; tick++ {
		if time.Now().After(deadline) {
			problems = append(problems, "watchdog never diagnosed the wedged shard")
			break
		}
		for _, d := range wd.Check(tick) {
			if d.Shard == 0 {
				problems = append(problems, fmt.Sprintf("finished shard 0 diagnosed as stalled: %s", d))
				continue
			}
			// Wait for the diagnosis that proves the hang reached ring
			// backpressure; earlier ticks may catch the shard mid-start.
			if d.LastSpan == "ring-stall" {
				d := d
				diag = &d
				break
			}
		}
		time.Sleep(time.Millisecond)
	}
	if diag != nil {
		if diag.Shard != 1 {
			problems = append(problems, fmt.Sprintf("diagnosis names shard %d, want 1", diag.Shard))
		}
		if diag.Stage != "send" {
			problems = append(problems, fmt.Sprintf("diagnosis names stage %q, want \"send\"", diag.Stage))
		}
		if diag.StalledFor < 4 {
			problems = append(problems, fmt.Sprintf("diagnosis fired after %d ticks, threshold is 4", diag.StalledFor))
		}
	}

	// Release the wedge: the scan must finish cleanly and the shard's
	// done stage must silence the watchdog again.
	close(wedge.release)
	if err := <-done; err != nil {
		problems = append(problems, fmt.Sprintf("released scan failed: %v", err))
	}
	ring.Close()
	if ds := wd.Check(1 << 62); len(ds) != 0 {
		problems = append(problems, fmt.Sprintf("watchdog still diagnoses after completion: %v", ds))
	}
	if tracer.SpansRecorded() == 0 {
		problems = append(problems, "tracer recorded no spans at full sampling")
	}
	return problems, nil
}
