package telemetry

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"sync"

	"repro/internal/ipv6"
)

// SpanKind labels one probe-lifecycle stage. Every stage already counted
// by a Counter has a span twin, so a sampled target's trace reads as the
// causal chain behind the aggregate numbers: sent → ring-enqueue → hop*
// → reply/icmp-error → dedup, with retry, rate-gate, AIMD and the
// defense verdicts interleaved where they fired.
type SpanKind uint8

const (
	SpanSent SpanKind = iota + 1
	SpanRingEnqueue
	SpanRingStall
	SpanHop
	SpanRateGate
	SpanReply
	SpanICMPError
	SpanDedup
	SpanRetry
	SpanAIMD
	SpanQuarantine
	SpanAliasCooldown
	SpanShed
	SpanCheckpoint
)

// spanKindNames is indexed by SpanKind; the zero kind is unused.
var spanKindNames = [...]string{
	SpanSent:          "sent",
	SpanRingEnqueue:   "ring-enqueue",
	SpanRingStall:     "ring-stall",
	SpanHop:           "hop",
	SpanRateGate:      "rate-gate",
	SpanReply:         "reply",
	SpanICMPError:     "icmp-error",
	SpanDedup:         "dedup",
	SpanRetry:         "retry",
	SpanAIMD:          "aimd-window",
	SpanQuarantine:    "quarantine",
	SpanAliasCooldown: "alias-cooldown",
	SpanShed:          "shed",
	SpanCheckpoint:    "checkpoint",
}

func (k SpanKind) String() string {
	if int(k) < len(spanKindNames) && spanKindNames[k] != "" {
		return spanKindNames[k]
	}
	return "unknown"
}

// Span is one fixed-size trace slot. Node and Iface are string headers
// over the simulator's interned interface names (set only for SpanHop),
// so recording a span never allocates.
type Span struct {
	Seq   uint64
	Clock uint64
	Addr  [16]byte
	Arg   uint64
	Node  string
	Iface string
	Kind  SpanKind
	Hop   uint8
	Drop  bool
}

// Sampler is the deterministic address-hash sampling decision: a keyed
// PRF over the 128-bit target address, admitting 1/2^shift of the
// space. Every layer (scanner, ring driver, simulator) holds the same
// seeded sampler and evaluates it independently, so one target's spans
// stitch across layers with no trace context passed between them — and
// the same seed reproduces the same traced set, making traces diffable
// artifacts rather than debugging noise.
type Sampler struct {
	key0, key1 uint64
	mask       uint64
}

// mix64 is the splitmix64 finalizer: a cheap full-avalanche permutation.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// NewSampler derives a sampler from the scan seed at a 1/2^shift rate
// (shift clamped to [0,63]; 0 samples every target).
func NewSampler(seed []byte, shift int) Sampler {
	if shift < 0 {
		shift = 0
	}
	if shift > 63 {
		shift = 63
	}
	h := uint64(0xcbf29ce484222325) // FNV-1a over the seed keys the PRF
	for _, b := range seed {
		h = (h ^ uint64(b)) * 0x100000001b3
	}
	return Sampler{
		key0: mix64(h),
		key1: mix64(h ^ 0x9e3779b97f4a7c15),
		mask: 1<<uint(shift) - 1,
	}
}

// Sample decides membership for an address given as two big-endian
// 64-bit limbs. Allocation-free and branch-predictable; safe to call on
// every packet of a hot path.
func (s Sampler) Sample(hi, lo uint64) bool {
	x := (hi ^ s.key0) * 0x9e3779b97f4a7c15
	x ^= lo ^ s.key1
	return mix64(x)&s.mask == 0
}

// SampleAddr is Sample over an address in wire representation.
func (s Sampler) SampleAddr(a [16]byte) bool {
	return s.Sample(binary.BigEndian.Uint64(a[0:8]), binary.BigEndian.Uint64(a[8:16]))
}

// SpanRing is a bounded span recorder: single-block, fixed power-of-two
// storage — recording a 2^40-probe scan holds exactly the same bytes as
// recording twenty — oldest entries overwritten, recording
// allocation-free behind one short mutex (each stream has one writer,
// so the lock only synchronizes with readers).
type SpanRing struct {
	mu  sync.Mutex
	buf []Span
	seq uint64
}

func newSpanRing(depth int) *SpanRing {
	if depth < 1 {
		depth = 1
	}
	cap := 1
	for cap < depth {
		cap <<= 1
	}
	return &SpanRing{buf: make([]Span, cap)}
}

// record appends one span; sp.Seq is assigned here.
func (r *SpanRing) record(sp Span) {
	r.mu.Lock()
	sp.Seq = r.seq
	r.buf[r.seq&uint64(len(r.buf)-1)] = sp
	r.seq++
	r.mu.Unlock()
}

// Recorded returns the lifetime span count (recorded, not retained).
func (r *SpanRing) Recorded() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.seq
}

// Len returns the spans currently retained.
func (r *SpanRing) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.lenLocked()
}

func (r *SpanRing) lenLocked() int {
	if r.seq < uint64(len(r.buf)) {
		return int(r.seq)
	}
	return len(r.buf)
}

// Cap returns the ring capacity.
func (r *SpanRing) Cap() int { return len(r.buf) }

// AppendSpans appends the retained spans, oldest first.
func (r *SpanRing) AppendSpans(dst []Span) []Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := r.lenLocked()
	start := r.seq - uint64(n)
	for i := 0; i < n; i++ {
		dst = append(dst, r.buf[(start+uint64(i))&uint64(len(r.buf)-1)])
	}
	return dst
}

// lastKind returns the kind of the most recent span (0 if empty).
func (r *SpanRing) lastKind() SpanKind {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.seq == 0 {
		return 0
	}
	return r.buf[(r.seq-1)&uint64(len(r.buf)-1)].Kind
}

// copyTail copies up to len(dst) most recent spans into dst, oldest
// first, returning the count — the exemplar capture primitive.
func (r *SpanRing) copyTail(dst []Span) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := r.lenLocked()
	if n > len(dst) {
		n = len(dst)
	}
	start := r.seq - uint64(n)
	for i := 0; i < n; i++ {
		dst[i] = r.buf[(start+uint64(i))&uint64(len(r.buf)-1)]
	}
	return n
}

// ExemplarSpans is the trace depth captured per anomaly exemplar.
const ExemplarSpans = 16

// AnomalyKind labels what fired an exemplar capture.
type AnomalyKind uint8

const (
	AnomalyQuarantine AnomalyKind = iota + 1
	AnomalyAlias
	AnomalyRetryExhausted
	AnomalyShed
)

var anomalyKindNames = [...]string{
	AnomalyQuarantine:     "quarantine",
	AnomalyAlias:          "alias-detected",
	AnomalyRetryExhausted: "retry-exhausted",
	AnomalyShed:           "shed",
}

func (k AnomalyKind) String() string {
	if int(k) < len(anomalyKindNames) && anomalyKindNames[k] != "" {
		return anomalyKindNames[k]
	}
	return "unknown"
}

// Exemplar is one automatically captured anomaly trace: the last
// ExemplarSpans spans of the stream the anomaly fired on, frozen at
// capture time. Slots are preallocated; capture copies fixed arrays.
type Exemplar struct {
	Kind   AnomalyKind
	Clock  uint64
	Addr   [16]byte
	Stream int
	N      int
	Spans  [ExemplarSpans]Span
}

// DefaultSpanDepth is the per-stream ring depth when TracerOptions
// leaves Depth zero.
const DefaultSpanDepth = 4096

// DefaultExemplars is the exemplar slot count when TracerOptions leaves
// Exemplars zero.
const DefaultExemplars = 8

// TracerOptions configures a Tracer.
type TracerOptions struct {
	// Seed keys the sampling PRF; pass the scan seed so traces are
	// per-seed deterministic.
	Seed []byte
	// SampleShift selects the 1/2^k sampling rate (0 = every target).
	SampleShift int
	// ScanStreams is one span stream per scanner shard; SimStreams one
	// per simulator engine shard. Separate single-writer-ordered streams
	// keep the exported trace byte-deterministic under concurrency.
	ScanStreams, SimStreams int
	// Depth is the per-stream ring depth (default DefaultSpanDepth).
	Depth int
	// Exemplars is the anomaly exemplar slot count (default
	// DefaultExemplars).
	Exemplars int
}

// Tracer records sampled probe-lifecycle spans across fixed per-shard
// streams plus first-N anomaly exemplars. All methods are safe on a nil
// receiver (the detached fast path), and recording never allocates.
type Tracer struct {
	sampler Sampler
	nScan   int
	streams []*SpanRing

	exMu    sync.Mutex
	ex      []Exemplar
	exN     int
	exTotal uint64 // anomalies fired, including past-capacity ones
}

// NewTracer builds a tracer; see TracerOptions.
func NewTracer(o TracerOptions) *Tracer {
	if o.ScanStreams < 1 {
		o.ScanStreams = 1
	}
	if o.SimStreams < 0 {
		o.SimStreams = 0
	}
	if o.Depth <= 0 {
		o.Depth = DefaultSpanDepth
	}
	if o.Exemplars <= 0 {
		o.Exemplars = DefaultExemplars
	}
	t := &Tracer{
		sampler: NewSampler(seedOrTrace(o.Seed), o.SampleShift),
		nScan:   o.ScanStreams,
		ex:      make([]Exemplar, o.Exemplars),
	}
	for i := 0; i < o.ScanStreams+o.SimStreams; i++ {
		t.streams = append(t.streams, newSpanRing(o.Depth))
	}
	return t
}

func seedOrTrace(seed []byte) []byte {
	if len(seed) == 0 {
		return []byte("telemetry-trace")
	}
	return seed
}

// Sample reports whether the address (big-endian limbs) is in the
// traced set. False on a nil tracer.
func (t *Tracer) Sample(hi, lo uint64) bool {
	if t == nil {
		return false
	}
	return t.sampler.Sample(hi, lo)
}

// SampleAddr is Sample over wire representation.
func (t *Tracer) SampleAddr(a [16]byte) bool {
	if t == nil {
		return false
	}
	return t.sampler.SampleAddr(a)
}

// SimStream maps an engine shard index to its tracer stream (engine
// streams follow the scanner streams).
func (t *Tracer) SimStream(i int) int {
	if t == nil {
		return 0
	}
	return t.nScan + i
}

// stream clamps an index into the stream table.
func (t *Tracer) stream(i int) *SpanRing {
	if i < 0 || i >= len(t.streams) {
		i = len(t.streams) - 1
	}
	return t.streams[i]
}

// scanStream keeps a scanner's index inside the scan streams, wrapping
// like Registry.Shard, so an index past ScanStreams never lands in a
// simulator stream.
func (t *Tracer) scanStream(i int) int {
	if i < 0 {
		return 0
	}
	return i % t.nScan
}

// Span records one non-hop lifecycle span on a scan stream. The caller
// has already made the sampling decision (or the kind is an
// always-recorded anomaly span).
func (t *Tracer) Span(stream int, kind SpanKind, clock uint64, addr [16]byte, arg uint64) {
	if t == nil {
		return
	}
	t.streams[t.scanStream(stream)].record(Span{Clock: clock, Addr: addr, Arg: arg, Kind: kind})
}

// Hop records one simulated link crossing of a traced flow. Clock is
// the stream's own sequence (the simulator has no probe clock); node
// and iface are interned simulator names, so this is allocation-free.
func (t *Tracer) Hop(stream int, hi, lo uint64, node, iface string, hop uint8, drop bool) {
	if t == nil {
		return
	}
	var a [16]byte
	binary.BigEndian.PutUint64(a[0:8], hi)
	binary.BigEndian.PutUint64(a[8:16], lo)
	r := t.stream(stream)
	r.mu.Lock()
	r.buf[r.seq&uint64(len(r.buf)-1)] = Span{
		Seq: r.seq, Clock: r.seq, Addr: a,
		Node: node, Iface: iface, Kind: SpanHop, Hop: hop, Drop: drop,
	}
	r.seq++
	r.mu.Unlock()
}

// Anomaly captures an exemplar: the firing scan stream's most recent
// spans, frozen into the next free slot (first-N; later anomalies only
// count).
func (t *Tracer) Anomaly(kind AnomalyKind, stream int, clock uint64, addr [16]byte) {
	if t == nil {
		return
	}
	stream = t.scanStream(stream)
	t.exMu.Lock()
	t.exTotal++
	if t.exN >= len(t.ex) {
		t.exMu.Unlock()
		return
	}
	e := &t.ex[t.exN]
	t.exN++
	e.Kind, e.Clock, e.Addr, e.Stream = kind, clock, addr, stream
	t.exMu.Unlock()
	// Copy outside exMu: the span ring has its own lock, and a
	// concurrent Anomaly call has already claimed a different slot.
	e.N = t.stream(stream).copyTail(e.Spans[:])
}

// SpansRecorded sums the lifetime span counts across all streams.
func (t *Tracer) SpansRecorded() uint64 {
	if t == nil {
		return 0
	}
	var n uint64
	for _, r := range t.streams {
		n += r.Recorded()
	}
	return n
}

// ExemplarCount returns the captured exemplar count.
func (t *Tracer) ExemplarCount() int {
	if t == nil {
		return 0
	}
	t.exMu.Lock()
	defer t.exMu.Unlock()
	return t.exN
}

// AnomalyCount returns every anomaly fired, including those past the
// exemplar capacity.
func (t *Tracer) AnomalyCount() uint64 {
	if t == nil {
		return 0
	}
	t.exMu.Lock()
	defer t.exMu.Unlock()
	return t.exTotal
}

// Exemplars returns a snapshot copy of the captured exemplars.
func (t *Tracer) Exemplars() []Exemplar {
	if t == nil {
		return nil
	}
	t.exMu.Lock()
	defer t.exMu.Unlock()
	out := make([]Exemplar, t.exN)
	copy(out, t.ex[:t.exN])
	return out
}

// LastKind returns the most recent span kind on a stream ("none" via
// SpanKind 0 when the stream is empty or the tracer nil).
func (t *Tracer) LastKind(stream int) SpanKind {
	if t == nil || len(t.streams) == 0 {
		return 0
	}
	return t.stream(stream).lastKind()
}

// AppendSpans appends one stream's retained spans, oldest first.
func (t *Tracer) AppendSpans(stream int, dst []Span) []Span {
	if t == nil {
		return dst
	}
	return t.stream(stream).AppendSpans(dst)
}

// Streams returns the stream count.
func (t *Tracer) Streams() int {
	if t == nil {
		return 0
	}
	return len(t.streams)
}

// spanJSON is the NDJSON line layout; field order is fixed by struct
// order, so identical spans serialize byte-identically.
type spanJSON struct {
	Stream int    `json:"stream"`
	Seq    uint64 `json:"seq"`
	Clock  uint64 `json:"clock"`
	Kind   string `json:"kind"`
	Addr   string `json:"addr,omitempty"`
	Node   string `json:"node,omitempty"`
	Iface  string `json:"iface,omitempty"`
	Hop    uint16 `json:"hop,omitempty"`
	Drop   bool   `json:"drop,omitempty"`
	Arg    uint64 `json:"arg,omitempty"`
}

func spanToJSON(stream int, sp Span) spanJSON {
	j := spanJSON{
		Stream: stream,
		Seq:    sp.Seq,
		Clock:  sp.Clock,
		Kind:   sp.Kind.String(),
		Node:   sp.Node,
		Iface:  sp.Iface,
		Drop:   sp.Drop,
		Arg:    sp.Arg,
	}
	if sp.Addr != ([16]byte{}) {
		j.Addr = ipv6.AddrFromBytes(sp.Addr[:]).String()
	}
	if sp.Kind == SpanHop {
		j.Hop = uint16(sp.Hop)
	}
	return j
}

// WriteNDJSON writes every retained span, one JSON object per line,
// stream by stream in index order and oldest-first within a stream.
// Each stream has a single ordered writer, so the output is
// byte-identical across runs of the same seeded scan.
func (t *Tracer) WriteNDJSON(w io.Writer) error {
	if t == nil {
		return nil
	}
	var scratch []Span
	enc := json.NewEncoder(w)
	for i, r := range t.streams {
		scratch = r.AppendSpans(scratch[:0])
		for _, sp := range scratch {
			if err := enc.Encode(spanToJSON(i, sp)); err != nil {
				return err
			}
		}
	}
	return nil
}

// WriteChromeTrace writes the retained spans as a Chrome-trace /
// Perfetto JSON document: one instant event per span, one track (tid)
// per stream, ts = span sequence so per-track order matches recording
// order. Load the file at ui.perfetto.dev or chrome://tracing.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	if t == nil {
		_, err := io.WriteString(w, `{"traceEvents":[]}`+"\n")
		return err
	}
	if _, err := io.WriteString(w, `{"traceEvents":[`); err != nil {
		return err
	}
	var scratch []Span
	first := true
	for i, r := range t.streams {
		scratch = r.AppendSpans(scratch[:0])
		for _, sp := range scratch {
			sep := ",\n"
			if first {
				sep, first = "\n", false
			}
			if _, err := io.WriteString(w, sep); err != nil {
				return err
			}
			if err := writeChromeEvent(w, i, sp); err != nil {
				return err
			}
		}
	}
	_, err := io.WriteString(w, "\n]}\n")
	return err
}

func writeChromeEvent(w io.Writer, stream int, sp Span) error {
	if _, err := fmt.Fprintf(w, `{"name":%q,"ph":"i","s":"t","pid":1,"tid":%d,"ts":%d,"args":{"clock":%d`,
		sp.Kind.String(), stream, sp.Seq, sp.Clock); err != nil {
		return err
	}
	if sp.Addr != ([16]byte{}) {
		if _, err := fmt.Fprintf(w, `,"addr":%q`, ipv6.AddrFromBytes(sp.Addr[:]).String()); err != nil {
			return err
		}
	}
	if sp.Kind == SpanHop {
		if _, err := fmt.Fprintf(w, `,"node":%q,"iface":%q,"hop":%d,"drop":%t`,
			sp.Node, sp.Iface, sp.Hop, sp.Drop); err != nil {
			return err
		}
	} else if sp.Arg != 0 {
		if _, err := fmt.Fprintf(w, `,"arg":%d`, sp.Arg); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "}}")
	return err
}

// traceDoc is the JSON shape of a trace dump.
type traceDoc struct {
	Spans     []streamTrace  `json:"spans"`
	Exemplars []exemplarJSON `json:"exemplars,omitempty"`
}

type streamTrace struct {
	Stream   int        `json:"stream"`
	Recorded uint64     `json:"recorded"`
	Spans    []spanJSON `json:"spans"`
}

type exemplarJSON struct {
	Kind   string     `json:"kind"`
	Clock  uint64     `json:"clock"`
	Addr   string     `json:"addr,omitempty"`
	Stream int        `json:"stream"`
	Spans  []spanJSON `json:"spans"`
}

// DumpTrace writes every stream's retained spans and the captured
// anomaly exemplars of the attached tracer as one indented JSON
// document — the /trace endpoint and the SIGQUIT dump. Without a tracer
// the document is empty.
func (r *Registry) DumpTrace(w io.Writer) error {
	doc := traceDoc{Spans: []streamTrace{}}
	if t := r.Tracer(); t != nil {
		var scratch []Span
		for i, ring := range t.streams {
			st := streamTrace{Stream: i, Recorded: ring.Recorded(), Spans: []spanJSON{}}
			scratch = ring.AppendSpans(scratch[:0])
			for _, sp := range scratch {
				st.Spans = append(st.Spans, spanToJSON(i, sp))
			}
			doc.Spans = append(doc.Spans, st)
		}
		for _, ex := range t.Exemplars() {
			ej := exemplarJSON{
				Kind: ex.Kind.String(), Clock: ex.Clock, Stream: ex.Stream,
				Spans: []spanJSON{},
			}
			if ex.Addr != ([16]byte{}) {
				ej.Addr = ipv6.AddrFromBytes(ex.Addr[:]).String()
			}
			for _, sp := range ex.Spans[:ex.N] {
				ej.Spans = append(ej.Spans, spanToJSON(ex.Stream, sp))
			}
			doc.Exemplars = append(doc.Exemplars, ej)
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}
