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

// wedgeDriver passes one worker's probes — those to a victim target —
// until a fixed number have gone through, then blocks every further
// SendBatch of them until release is closed: a deterministic model of a
// wedged packet layer (a NIC queue that stopped draining). Behind the
// worker's RingDriver it wedges that ring's pump, the ring fills, and the
// worker spins in ring backpressure: exactly the hang the stall
// watchdog exists to name. Other workers' rings pump past it.
type wedgeDriver struct {
	under   xmap.Driver
	victim  map[ipv6.Addr]bool
	accept  int64
	sent    atomic.Int64
	release chan struct{}
}

func (d *wedgeDriver) SendBatch(pkts [][]byte) (int, error) {
	// A ring pump's burst holds one worker's probes only.
	if len(pkts) == 0 || len(pkts[0]) < 40 || !d.victim[ipv6.AddrFromBytes(pkts[0][24:40])] {
		return d.under.SendBatch(pkts)
	}
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

// RunWatchdogScenario wedges one of two workers of a run mid-send and
// checks the stall watchdog produces a structured diagnosis naming the
// stalled worker, its stage, and the ring-stall span its trace stream
// recorded last — while the cleanly finished worker stays exempt. The
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

	// Worker 1 of a two-worker run probes slice 1 of 2: record that
	// slice's targets with a lone scan of it on an identical network.
	dry, err := BuildISPFixture(seed)
	if err != nil {
		return nil, err
	}
	rec := &recordingDriver{Driver: dry.Drv}
	s, err := xmap.New(xmap.Config{Window: f.Window, Seed: scanSeed(seed), Shards: 2, ShardIndex: 1}, rec)
	if err != nil {
		return nil, err
	}
	if _, err := s.Run(context.Background(), nil); err != nil {
		return nil, fmt.Errorf("recording slice 1: %w", err)
	}
	victim := map[ipv6.Addr]bool{}
	for _, a := range rec.dsts {
		victim[a] = true
	}

	// Both workers send through small rings; worker 1's pump wedges after
	// a few packets, and its goroutine ends up spinning on the full ring.
	// Worker 0 runs to completion: it must report StageDone and stay
	// exempt from every stall check, which start once it has finished.
	wedge := &wedgeDriver{under: f.Drv, victim: victim, accept: 8, release: make(chan struct{})}
	worker0Done := make(chan struct{})
	cfg := xmap.Config{
		Window:   f.Window,
		Seed:     scanSeed(seed),
		RingSize: 8,
		Tracer:   tracer,
		Watchdog: wd,
		OnCheckpoint: func(st xmap.ShardState) {
			if st.Shard == 0 && st.Done {
				close(worker0Done)
			}
		},
	}
	done := make(chan error, 1)
	go func() {
		_, err := xmap.ScanParallel(context.Background(), cfg, wedge, 2, nil)
		done <- err
	}()
	select {
	case <-worker0Done:
	case <-time.After(10 * time.Second):
		close(wedge.release)
		<-done
		return append(problems, "worker 0 never finished beside the wedged worker"), nil
	}

	// Tick the checker until the wedge is diagnosed. The checker clock
	// is our own loop counter — the watchdog only needs monotonicity.
	var diag *telemetry.StallDiagnosis
	deadline := time.Now().Add(10 * time.Second)
	for tick := uint64(1); diag == nil; tick++ {
		if time.Now().After(deadline) {
			problems = append(problems, "watchdog never diagnosed the wedged worker")
			break
		}
		for _, d := range wd.Check(tick) {
			if d.Shard == 0 {
				problems = append(problems, fmt.Sprintf("finished worker 0 diagnosed as stalled: %s", d))
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

	// Release the wedge: the scan must finish cleanly and the worker's
	// done stage must silence the watchdog again.
	close(wedge.release)
	if err := <-done; err != nil {
		problems = append(problems, fmt.Sprintf("released scan failed: %v", err))
	}
	if ds := wd.Check(1 << 62); len(ds) != 0 {
		problems = append(problems, fmt.Sprintf("watchdog still diagnoses after completion: %v", ds))
	}
	if tracer.SpansRecorded() == 0 {
		problems = append(problems, "tracer recorded no spans at full sampling")
	}
	return problems, nil
}
