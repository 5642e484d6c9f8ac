package xmap

import (
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/ipv6"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// pumpBurst is how many ring entries the transmission pump forwards to
// the underlying driver per SendBatch call.
const pumpBurst = 64

// RingDriver pipelines an underlying driver behind a lock-free SPSC
// ring: SendBatch copies each packet into a pooled buffer and pushes it
// onto the ring, returning as soon as the burst is queued, while a
// dedicated pump goroutine pops bursts off the ring and forwards them
// through the underlying driver's SendBatch. Probe generation and
// transmission therefore overlap instead of lock-stepping — the
// scanner-side analogue of a NIC TX ring.
//
// Ownership: the caller's packet slices are copied and never retained
// (the Driver contract); the copies live in RingDriver-owned buffers
// that cycle scanner→ring→pump→free-ring→scanner, so the steady state
// allocates nothing. A full ring is backpressure: SendBatch spins
// (yielding) until the pump frees a slot, which composes with the
// scanner's AIMD window — a stalled pump delays the window's flush,
// delaying its drain, exactly like a slow NIC.
//
// One RingDriver serves one scanner goroutine (single producer); a run
// with Config.RingSize set gives each worker its own.
type RingDriver struct {
	under Driver
	rel   Releaser // under's Releaser capability, if any
	ring  *SPSC[[]byte]
	free  *SPSC[[]byte]

	// pushed counts packets accepted into the ring; completed counts
	// packets the pump has handed to the underlying driver; failed
	// counts packets the pump gave up on after a hard driver error.
	// Flush waits for completed+failed to catch up with pushed.
	pushed    atomic.Uint64
	completed atomic.Uint64
	failed    atomic.Uint64

	// tracer, when set, records sampled ring-enqueue/ring-stall spans on
	// stream trStream; SendBatch runs on the owning scanner goroutine,
	// so the stream keeps its single writer.
	tracer   *telemetry.Tracer
	trStream int

	stop chan struct{}
	done chan struct{}
}

var _ Driver = (*RingDriver)(nil)
var _ Flusher = (*RingDriver)(nil)

// NewRingDriver inserts a ring of the given capacity (rounded up to a
// power of two) in front of under and starts the transmission pump.
// Call Close to stop the pump; packets still queued at Close time are
// flushed first.
func NewRingDriver(under Driver, size int) *RingDriver {
	if size < 2 {
		size = 2
	}
	d := &RingDriver{
		under: under,
		ring:  NewSPSC[[]byte](size),
		free:  NewSPSC[[]byte](size),
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	d.rel, _ = under.(Releaser)
	go d.pump()
	return d
}

// SendBatch implements Driver: each packet is copied into a pooled
// buffer and queued for the pump. It returns len(pkts) — acceptance
// into the ring is the send, as with a kernel TX queue; transmission
// failures surface through Failed and telemetry, not per call.
func (d *RingDriver) SendBatch(pkts [][]byte) (int, error) {
	for _, pkt := range pkts {
		var traced bool
		var dst [16]byte
		if d.tracer != nil && len(pkt) >= wire.HeaderLen && pkt[0]>>4 == 6 {
			copy(dst[:], pkt[24:40])
			traced = d.tracer.SampleAddr(dst)
		}
		var buf []byte
		if b, ok := d.free.Pop(); ok && cap(b) >= len(pkt) {
			buf = b[:len(pkt)]
		} else {
			buf = make([]byte, len(pkt), max(len(pkt), 128))
		}
		copy(buf, pkt)
		stalled := false
		for !d.ring.Push(buf) {
			// Full ring: the pump is behind. Yield until it catches up —
			// the scanner-side backpressure signal.
			if traced && !stalled {
				// One stall span per packet, however long the spin lasts.
				stalled = true
				d.tracer.Span(d.trStream, telemetry.SpanRingStall, d.pushed.Load(), dst, uint64(d.ring.Len()))
			}
			runtime.Gosched()
		}
		d.pushed.Add(1)
		if traced {
			d.tracer.Span(d.trStream, telemetry.SpanRingEnqueue, d.pushed.Load(), dst, 0)
		}
	}
	return len(pkts), nil
}

// SetTracer attaches the probe-lifecycle tracer: SendBatch then records
// a ring-enqueue span per sampled packet, and a ring-stall span when a
// sampled packet first meets a full ring. Call before the first
// SendBatch; stream is the owning shard's span stream.
func (d *RingDriver) SetTracer(tr *telemetry.Tracer, stream int) {
	d.tracer = tr
	d.trStream = stream
}

// RecvBatch implements Driver, draining the underlying driver directly:
// the receive side needs no ring, the simulator edge (and a real
// socket's kernel buffer) already decouple arrival from the drain.
func (d *RingDriver) RecvBatch(buf [][]byte) [][]byte { return d.under.RecvBatch(buf) }

// SourceAddr implements Driver.
func (d *RingDriver) SourceAddr() ipv6.Addr { return d.under.SourceAddr() }

// Release implements Releaser, forwarding to the underlying driver when
// it recycles buffers.
func (d *RingDriver) Release(pkts [][]byte) {
	if d.rel != nil {
		d.rel.Release(pkts)
	}
}

// Flush implements Flusher: it blocks until every packet accepted by
// SendBatch has been handed to the underlying driver (or failed there).
// The scanner calls it before each receive drain and before emitting a
// checkpoint, so ring contents are never silently in flight across a
// drain window or a resumable state.
func (d *RingDriver) Flush() {
	for d.completed.Load()+d.failed.Load() < d.pushed.Load() {
		runtime.Gosched()
	}
}

// Pending returns the packets accepted but not yet transmitted.
func (d *RingDriver) Pending() int {
	return int(d.pushed.Load() - d.completed.Load() - d.failed.Load())
}

// Failed returns packets dropped after a hard underlying-driver error.
func (d *RingDriver) Failed() uint64 { return d.failed.Load() }

// Close stops the pump after it drains the ring. The underlying driver
// is not closed.
func (d *RingDriver) Close() {
	close(d.stop)
	<-d.done
}

// pump is the consumer goroutine: pop a burst, forward it (retrying
// short writes), recycle the buffers.
func (d *RingDriver) pump() {
	defer close(d.done)
	batch := make([][]byte, pumpBurst)
	idle := 0
	for {
		n := d.ring.PopBatch(batch)
		if n == 0 {
			select {
			case <-d.stop:
				if d.ring.Len() == 0 {
					return
				}
				continue // stop requested mid-push: drain first
			default:
			}
			// Empty ring: yield, then back off to a sleep so an idle
			// pipeline does not burn the core the scanner needs.
			if idle++; idle > 256 {
				time.Sleep(50 * time.Microsecond)
			} else {
				runtime.Gosched()
			}
			continue
		}
		idle = 0
		d.forward(batch[:n])
		for i := range batch[:n] {
			// Return buffers for reuse; an overflowing free ring just
			// lets the garbage collector have them.
			if !d.free.Push(batch[i][:0]) {
				break
			}
			batch[i] = nil
		}
		clear(batch[:n])
	}
}

// forward hands one burst to the underlying driver, following the
// SendBatch contract: an errored packet is skipped and counted, a
// transient short write retries the tail.
func (d *RingDriver) forward(pkts [][]byte) {
	for len(pkts) > 0 {
		n, err := d.under.SendBatch(pkts)
		d.completed.Add(uint64(n))
		pkts = pkts[n:]
		if err != nil && len(pkts) > 0 {
			d.failed.Add(1)
			pkts = pkts[1:]
			continue
		}
		if len(pkts) > 0 {
			runtime.Gosched()
		}
	}
}
