package xmap

import (
	"sync"

	"repro/internal/ipv6"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// RingDriver pipelines an underlying driver behind a bounded transmit
// queue: SendBatch copies each packet into a recycled buffer and queues
// it, returning as soon as the burst is queued, while a dedicated pump
// goroutine takes everything queued and forwards it through the
// underlying driver's SendBatch. Probe generation and transmission
// therefore overlap instead of lock-stepping — the scanner-side analogue
// of a NIC TX ring.
//
// The queue is a mutex-guarded slice with one condition variable that
// every side blocks on: the pump while the queue is empty, SendBatch
// while capacity packets are in flight, Flush until none are. Nothing
// spins, so an idle or backpressured pipeline costs no CPU.
//
// Ownership: the caller's packet slices are copied and never retained
// (the Driver contract); the copies live in RingDriver-owned buffers
// that cycle scanner→queue→pump→free list→scanner, so the steady state
// allocates nothing. A full queue is backpressure, which composes with
// the scanner's AIMD window — a stalled pump delays the window's flush,
// delaying its drain, exactly like a slow NIC.
//
// One RingDriver serves one scanner goroutine (single producer); a run
// with Config.RingSize set gives each worker its own.
type RingDriver struct {
	under Driver
	rel   Releaser // under's Releaser capability, if any
	size  int      // capacity in packets

	mu   sync.Mutex
	cond sync.Cond // on mu; broadcast whenever queue or inflight changes
	// queue holds accepted packets the pump has not taken yet; free holds
	// buffers the pump has forwarded, for SendBatch to reuse.
	queue [][]byte
	free  [][]byte
	// inflight counts accepted packets the pump has not finished
	// forwarding: the queue plus the burst the pump is sending. Flush
	// waits for it to reach zero.
	inflight int
	// accepted counts packets SendBatch has queued (the span clock);
	// failed counts packets the underlying driver did not take.
	accepted uint64
	failed   uint64
	closing  bool

	// tracer, when set, records sampled ring-enqueue/ring-stall spans on
	// stream trStream; SendBatch runs on the owning scanner goroutine,
	// so the stream keeps its single writer.
	tracer   *telemetry.Tracer
	trStream int

	done chan struct{}
}

var _ Driver = (*RingDriver)(nil)
var _ Flusher = (*RingDriver)(nil)

// NewRingDriver inserts a queue of the given capacity in packets (at
// least 1) in front of under and starts the transmission pump. Call
// Close to stop the pump; packets still queued at Close time are
// forwarded first.
func NewRingDriver(under Driver, size int) *RingDriver {
	d := &RingDriver{
		under: under,
		size:  max(size, 1),
		done:  make(chan struct{}),
	}
	d.cond.L = &d.mu
	d.rel, _ = under.(Releaser)
	go d.pump()
	return d
}

// SendBatch implements Driver: each packet is copied into a recycled
// buffer and queued for the pump, waiting while the queue is full. It
// returns len(pkts) — acceptance into the queue is the send, as with a
// kernel TX queue; transmission failures surface through Failed and
// telemetry, not per call.
func (d *RingDriver) SendBatch(pkts [][]byte) (int, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, pkt := range pkts {
		var traced bool
		var dst [16]byte
		if d.tracer != nil && len(pkt) >= wire.HeaderLen && pkt[0]>>4 == 6 {
			copy(dst[:], pkt[24:40])
			traced = d.tracer.SampleAddr(dst)
		}
		if d.inflight == d.size {
			// Full queue: the pump is behind. Hand it what is queued and
			// wait — the scanner-side backpressure signal, recorded as one
			// stall span per packet however long the wait lasts.
			if traced {
				d.tracer.Span(d.trStream, telemetry.SpanRingStall, d.accepted, dst, uint64(len(d.queue)))
			}
			d.cond.Broadcast()
			for d.inflight == d.size {
				d.cond.Wait()
			}
		}
		var buf []byte
		if l := len(d.free); l > 0 {
			buf, d.free = d.free[l-1], d.free[:l-1]
		}
		d.queue = append(d.queue, append(buf[:0], pkt...))
		d.inflight++
		d.accepted++
		if traced {
			d.tracer.Span(d.trStream, telemetry.SpanRingEnqueue, d.accepted, dst, 0)
		}
	}
	d.cond.Broadcast()
	return len(pkts), nil
}

// SetTracer attaches the probe-lifecycle tracer: SendBatch then records
// a ring-enqueue span per sampled packet, and a ring-stall span when a
// sampled packet meets a full queue. Call before the first SendBatch;
// stream is the owning shard's span stream.
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
// SendBatch has been handed to the underlying driver (or failed there),
// including the burst whose SendBatch the pump is still inside. The
// scanner calls it before each receive drain and before emitting a
// checkpoint, so ring contents are never silently in flight across a
// drain window or a resumable state.
func (d *RingDriver) Flush() {
	d.mu.Lock()
	for d.inflight > 0 {
		d.cond.Wait()
	}
	d.mu.Unlock()
}

// Pending returns the packets accepted but not yet transmitted.
func (d *RingDriver) Pending() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.inflight
}

// Failed returns packets the underlying driver did not take: hard
// errors, and bursts abandoned at the short-write bound.
func (d *RingDriver) Failed() uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.failed
}

// Close forwards whatever is still queued, then stops the pump. The
// underlying driver is not closed.
func (d *RingDriver) Close() {
	d.mu.Lock()
	d.closing = true
	d.cond.Broadcast()
	d.mu.Unlock()
	<-d.done
}

// pump is the consumer goroutine: wait for packets, take the whole
// queue, forward it, then retire it from inflight and recycle its
// buffers. batch and queue trade backing arrays, so the loop allocates
// nothing once both have grown.
func (d *RingDriver) pump() {
	defer close(d.done)
	var batch [][]byte
	d.mu.Lock()
	defer d.mu.Unlock()
	for {
		for len(d.queue) == 0 && !d.closing {
			d.cond.Wait()
		}
		if len(d.queue) == 0 {
			return
		}
		batch, d.queue = d.queue, batch[:0]
		d.mu.Unlock()
		_, failed := sendAll(d.under, batch)
		d.mu.Lock()
		d.failed += failed
		d.inflight -= len(batch)
		d.free = append(d.free, batch...)
		clear(batch)
		d.cond.Broadcast()
	}
}
