package xmap

import (
	"fmt"
	"io"
	"strconv"
	"sync"

	"repro/internal/filter"
)

// kindValues holds every named kind's text already boxed as a
// filter.Value, so a filter that reads "kind" allocates nothing.
var kindValues = func() (t [KindUDPData + 1]filter.Value) {
	for k := range t {
		t[k] = ResponseKind(k).String()
	}
	return t
}()

// Field implements filter.Record: it exposes a response to the
// output-filter expression language (Section IV-B's field-filter module),
// formatting only the field asked for.
func (r *Response) Field(name string) (filter.Value, bool) {
	switch name {
	case "responder":
		return r.Responder.String(), true
	case "probe_dst":
		return r.ProbeDst.String(), true
	case "kind":
		if k := r.Kind; k >= 0 && int(k) < len(kindValues) {
			return kindValues[k], true
		}
		return r.Kind.String(), true
	case "code":
		return int64(r.Code), true
	case "same_prefix64":
		return r.SamePrefix64(), true
	}
	return nil, false
}

var _ filter.Record = (*Response)(nil)

// OutputModule consumes scan results, mirroring ZMap's output modules.
type OutputModule interface {
	// Write records one responder.
	Write(r Response) error
	// Flush finalizes buffered output.
	Flush() error
}

const (
	// outputBufSize is each module's row buffer: rows reach the writer
	// in chunks of about this size, at Flush, and nowhere else.
	outputBufSize = 32 << 10
	// maxRowLen bounds one row of either format: two 39-byte addresses,
	// a kind of at most 26 bytes ("kind(" + a negative 64-bit int + ")"),
	// a three-digit code, "false", and under 70 bytes of keys and
	// punctuation.
	maxRowLen = 256
)

// rowBuffer is the one reused buffer behind an output module, and the
// module's Flush. Rows are appended to buf by the module, under mu, and
// written out whole — when the next row might not fit, and on Flush — so
// the writer never sees a torn row. The first write error sticks: every
// later room and Flush reports it.
type rowBuffer struct {
	mu  sync.Mutex
	w   io.Writer
	buf []byte
	err error
}

// room makes sure one more row fits in buf. The caller holds mu.
func (b *rowBuffer) room() error {
	if len(b.buf)+maxRowLen > cap(b.buf) {
		return b.flush()
	}
	return b.err
}

// flush writes the buffered rows out. The caller holds mu.
func (b *rowBuffer) flush() error {
	if b.err != nil || len(b.buf) == 0 {
		return b.err
	}
	n, err := b.w.Write(b.buf)
	if err == nil && n < len(b.buf) {
		err = io.ErrShortWrite
	}
	b.buf, b.err = b.buf[:0], err
	return err
}

// Flush implements OutputModule.
func (b *rowBuffer) Flush() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.flush()
}

// Every kind's text is plain ASCII without a comma, quote, backslash or
// control byte, and so is an address, so neither format below needs
// quoting or escaping.

// CSVOutput streams results as CSV rows:
// responder,probe_dst,kind,code,same_prefix64.
type CSVOutput struct{ rowBuffer }

var _ OutputModule = (*CSVOutput)(nil)

// NewCSVOutput buffers the header and returns the module; the error is
// always nil. A writer that cannot take the header fails the first Write
// or Flush that reaches it.
func NewCSVOutput(w io.Writer) (*CSVOutput, error) {
	o := &CSVOutput{rowBuffer{w: w, buf: make([]byte, 0, outputBufSize)}}
	o.buf = append(o.buf, "responder,probe_dst,kind,code,same_prefix64\n"...)
	return o, nil
}

// Write implements OutputModule.
func (o *CSVOutput) Write(r Response) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	if err := o.room(); err != nil {
		return err
	}
	b := r.Responder.AppendTo(o.buf)
	b = append(b, ',')
	b = r.ProbeDst.AppendTo(b)
	b = append(b, ',')
	b = append(b, r.Kind.String()...)
	b = append(b, ',')
	b = strconv.AppendUint(b, uint64(r.Code), 10)
	b = append(b, ',')
	b = strconv.AppendBool(b, r.SamePrefix64())
	o.buf = append(b, '\n')
	return nil
}

// JSONOutput streams results as one JSON object per line, keys in the
// CSV column order.
type JSONOutput struct{ rowBuffer }

var _ OutputModule = (*JSONOutput)(nil)

// NewJSONOutput returns an NDJSON writer.
func NewJSONOutput(w io.Writer) *JSONOutput {
	return &JSONOutput{rowBuffer{w: w, buf: make([]byte, 0, outputBufSize)}}
}

// Write implements OutputModule.
func (o *JSONOutput) Write(r Response) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	if err := o.room(); err != nil {
		return err
	}
	b := append(o.buf, `{"responder":"`...)
	b = r.Responder.AppendTo(b)
	b = append(b, `","probe_dst":"`...)
	b = r.ProbeDst.AppendTo(b)
	b = append(b, `","kind":"`...)
	b = append(b, r.Kind.String()...)
	b = append(b, `","code":`...)
	b = strconv.AppendUint(b, uint64(r.Code), 10)
	b = append(b, `,"same_prefix64":`...)
	b = strconv.AppendBool(b, r.SamePrefix64())
	o.buf = append(b, "}\n"...)
	return nil
}

// FilteredOutput gates an output module behind a filter expression.
type FilteredOutput struct {
	Expr *filter.Expr
	Next OutputModule

	mu  sync.Mutex
	rec Response // the response under evaluation; a field so Eval's interface argument does not allocate
}

var _ OutputModule = (*FilteredOutput)(nil)

// NewFilteredOutput compiles src and wraps next.
func NewFilteredOutput(src string, next OutputModule) (*FilteredOutput, error) {
	e, err := filter.Parse(src)
	if err != nil {
		return nil, err
	}
	return &FilteredOutput{Expr: e, Next: next}, nil
}

// Write implements OutputModule.
func (o *FilteredOutput) Write(r Response) error {
	o.mu.Lock()
	o.rec = r
	ok, err := o.Expr.Eval(&o.rec)
	o.mu.Unlock()
	if err != nil {
		return fmt.Errorf("xmap: filter %q: %w", o.Expr, err)
	}
	if !ok {
		return nil
	}
	return o.Next.Write(r)
}

// Flush implements OutputModule.
func (o *FilteredOutput) Flush() error { return o.Next.Flush() }
