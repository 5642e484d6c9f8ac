package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"sync/atomic"
	"time"

	"repro/internal/ipv6"
	"repro/internal/xmap"
)

// spanKind is a layer boundary the harness wraps from outside.
type spanKind uint8

const (
	spWorkload spanKind = iota
	spSetup
	spTopoBuild
	spXmapNew
	spScan
	spSend
	spRecv
	spRelease
	spOutput
	spCheckpoint
	spSubnet
	spZgrab
	spLoopscan
	nSpanKinds
)

var spanNames = [nSpanKinds]string{
	spWorkload:   "workload",
	spSetup:      "setup",
	spTopoBuild:  "topo.Build",
	spXmapNew:    "xmap.New",
	spScan:       "scan",
	spSend:       "netsim.SendBatch",
	spRecv:       "netsim.RecvBatch",
	spRelease:    "netsim.Release",
	spOutput:     "output.Write",
	spCheckpoint: "checkpoint.hook",
	spSubnet:     "subnet.Infer",
	spZgrab:      "zgrab.ProbeDevice",
	spLoopscan:   "loopscan.ScanWindows",
}

// scanChildren are the spans whose time is subtracted from the scan
// span to leave the scanner's self time.
var scanChildren = []spanKind{spSend, spRecv, spRelease, spOutput, spCheckpoint}

// span is one recorded interval; parent indexes the recorder's slice
// (-1 for the root).
type span struct {
	kind       spanKind
	rep        uint16
	parent     int32
	start, end int64 // ns since the recorder's origin
}

// maxSpans bounds the in-memory span slice (and the trace file). Totals
// are kept for every span; only the first maxSpans keep their interval.
const maxSpans = 1 << 17

// recorder collects spans into a slice allocated up front. Scanner
// goroutines and ring pumps record concurrently under scan_parallel, so
// slots are claimed with an atomic counter and totals are atomics. A nil
// *recorder is the untraced pass: open, now and child do nothing.
type recorder struct {
	origin  time.Time
	spans   []span
	claimed atomic.Int64
	sum     [nSpanKinds]atomic.Int64
	count   [nSpanKinds]atomic.Int64
	// lastEnd is when the most recent scan child span ended; the
	// checkpoint hook span starts there (see checkpointHook).
	lastEnd atomic.Int64
	parent  atomic.Int32 // span that caused the ones being recorded
	rep     atomic.Int32
}

func newRecorder() *recorder {
	r := &recorder{origin: time.Now(), spans: make([]span, maxSpans)}
	r.parent.Store(-1)
	return r
}

func (r *recorder) now() int64 {
	if r == nil {
		return 0
	}
	return int64(time.Since(r.origin))
}

// add records a finished span; when the slice is full only its duration
// is kept, in the totals.
func (r *recorder) add(kind spanKind, start, end int64) {
	r.sum[kind].Add(end - start)
	r.count[kind].Add(1)
	if i := r.claimed.Add(1) - 1; i < int64(len(r.spans)) {
		r.spans[i] = span{kind: kind, rep: uint16(r.rep.Load()), parent: r.parent.Load(), start: start, end: end}
	}
}

// open reserves a slot for a span whose children are about to be
// recorded, makes it their parent, and returns a func that closes it.
func (r *recorder) open(kind spanKind) (done func()) {
	if r == nil {
		return func() {}
	}
	start := r.now()
	prev := r.parent.Load()
	idx := int32(-1)
	if i := r.claimed.Add(1) - 1; i < int64(len(r.spans)) {
		idx = int32(i)
		r.spans[idx] = span{kind: kind, rep: uint16(r.rep.Load()), parent: prev, start: start}
		r.parent.Store(idx)
	}
	return func() {
		end := r.now()
		r.sum[kind].Add(end - start)
		r.count[kind].Add(1)
		if idx >= 0 {
			r.spans[idx].end = end
			r.parent.Store(prev)
		}
	}
}

// child times one call into a layer under the current scan span.
func (r *recorder) child(kind spanKind, start int64) {
	if r == nil {
		return
	}
	end := r.now()
	r.add(kind, start, end)
	r.lastEnd.Store(end)
}

func (r *recorder) recorded() []span {
	n := r.claimed.Load()
	if n > int64(len(r.spans)) {
		n = int64(len(r.spans))
	}
	return r.spans[:n]
}

// totals is a snapshot of per-kind sums and counts, so a rep's share can
// be taken as a difference.
type totals struct {
	sum, count [nSpanKinds]int64
}

func (r *recorder) totals() totals {
	var t totals
	for k := range t.sum {
		t.sum[k] = r.sum[k].Load()
		t.count[k] = r.count[k].Load()
	}
	return t
}

func (t totals) sub(o totals) totals {
	for k := range t.sum {
		t.sum[k] -= o.sum[k]
		t.count[k] -= o.count[k]
	}
	return t
}

// writeChromeTrace writes the recorded spans as Chrome-trace JSON
// (complete "X" events, microsecond timestamps), loadable in Perfetto.
// Each rep is a process row and each span kind a thread row, so
// overlapping spans of concurrent shards never share a track.
func (r *recorder) writeChromeTrace(path, workload string) error {
	fh, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(fh)
	fmt.Fprintf(w, `{"displayTimeUnit":"ns","otherData":{"workload":%q},"traceEvents":[`, workload)
	for i, s := range r.recorded() {
		if i > 0 {
			w.WriteByte(',')
		}
		fmt.Fprintf(w, "\n{\"name\":%q,\"ph\":\"X\",\"pid\":%d,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d}}",
			spanNames[s.kind], s.rep, s.kind, float64(s.start)/1e3, float64(s.end-s.start)/1e3, i, s.parent)
	}
	w.WriteString("\n]}\n")
	if err := w.Flush(); err != nil {
		fh.Close()
		return err
	}
	return fh.Close()
}

// tracedDriver wraps the batch driver the scanner already accepts and
// records a span around each call into the packet layer.
type tracedDriver struct {
	d   xmap.Driver
	rel xmap.Releaser
	rec *recorder
}

var (
	_ xmap.Driver   = (*tracedDriver)(nil)
	_ xmap.Releaser = (*tracedDriver)(nil)
)

func traceDriver(d xmap.Driver, rec *recorder) *tracedDriver {
	rel, _ := d.(xmap.Releaser)
	return &tracedDriver{d: d, rel: rel, rec: rec}
}

func (t *tracedDriver) SendBatch(pkts [][]byte) (int, error) {
	s := t.rec.now()
	n, err := t.d.SendBatch(pkts)
	t.rec.child(spSend, s)
	return n, err
}

func (t *tracedDriver) RecvBatch(buf [][]byte) [][]byte {
	s := t.rec.now()
	buf = t.d.RecvBatch(buf)
	t.rec.child(spRecv, s)
	return buf
}

func (t *tracedDriver) Release(pkts [][]byte) {
	if t.rel == nil {
		return
	}
	s := t.rec.now()
	t.rel.Release(pkts)
	t.rec.child(spRelease, s)
}

func (t *tracedDriver) SourceAddr() ipv6.Addr { return t.d.SourceAddr() }

// captureDriver copies the first probes and replies that cross it, so
// kernels run on packets the workload really produced.
type captureDriver struct {
	xmap.Driver
	probes, replies [][]byte
	limit           int
}

func (c *captureDriver) SendBatch(pkts [][]byte) (int, error) {
	for _, p := range pkts {
		if len(c.probes) < c.limit {
			c.probes = append(c.probes, append([]byte(nil), p...))
		}
	}
	return c.Driver.SendBatch(pkts)
}

func (c *captureDriver) RecvBatch(buf [][]byte) [][]byte {
	n := len(buf)
	buf = c.Driver.RecvBatch(buf)
	for _, p := range buf[n:] {
		if len(c.replies) < c.limit {
			c.replies = append(c.replies, append([]byte(nil), p...))
		}
	}
	return buf
}

// countingWriter counts the bytes the output module writes.
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// countingPacketDriver counts the packets the follow-up tools send and,
// when a recorder is attached, samples the time they spend inside the
// packet layer: one call in packetSample is timed and scaled up, totals
// only. Timing every one of a few hundred thousand microsecond-sized
// calls would cost more than a tenth of the workload.
type countingPacketDriver struct {
	d     xmap.PacketDriver
	rec   *recorder
	sent  uint64
	calls uint64
}

const packetSample = 16

func (c *countingPacketDriver) sampled() bool {
	c.calls++
	return c.rec != nil && c.calls%packetSample == 0
}

func (c *countingPacketDriver) Send(pkt []byte) error {
	c.sent++
	if !c.sampled() {
		return c.d.Send(pkt)
	}
	s := c.rec.now()
	err := c.d.Send(pkt)
	c.rec.sum[spSend].Add(packetSample * (c.rec.now() - s))
	c.rec.count[spSend].Add(packetSample)
	return err
}

func (c *countingPacketDriver) Recv() [][]byte {
	if !c.sampled() {
		return c.d.Recv()
	}
	s := c.rec.now()
	out := c.d.Recv()
	c.rec.sum[spRecv].Add(packetSample * (c.rec.now() - s))
	c.rec.count[spRecv].Add(packetSample)
	return out
}

func (c *countingPacketDriver) SourceAddr() ipv6.Addr { return c.d.SourceAddr() }
