package xmap

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/filter"
	"repro/internal/ipv6"
	"repro/internal/uint128"
)

// The reference encoders: the rows as encoding/csv and encoding/json
// wrote them before the append writers replaced both.

func refCSV(t *testing.T, rows []Response) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := csv.NewWriter(&buf)
	recs := [][]string{{"responder", "probe_dst", "kind", "code", "same_prefix64"}}
	for _, r := range rows {
		recs = append(recs, []string{
			r.Responder.String(), r.ProbeDst.String(), r.Kind.String(),
			fmt.Sprintf("%d", r.Code), fmt.Sprintf("%t", r.SamePrefix64()),
		})
	}
	if err := w.WriteAll(recs); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func refJSON(t *testing.T, rows []Response) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, r := range rows {
		err := enc.Encode(struct {
			Responder    string `json:"responder"`
			ProbeDst     string `json:"probe_dst"`
			Kind         string `json:"kind"`
			Code         uint8  `json:"code"`
			SamePrefix64 bool   `json:"same_prefix64"`
		}{r.Responder.String(), r.ProbeDst.String(), r.Kind.String(), r.Code, r.SamePrefix64()})
		if err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

func refRecord(r Response) filter.MapRecord {
	return filter.MapRecord{
		"responder":     r.Responder.String(),
		"probe_dst":     r.ProbeDst.String(),
		"kind":          r.Kind.String(),
		"code":          int64(r.Code),
		"same_prefix64": r.SamePrefix64(),
	}
}

// writeAll runs rows through a module over a fresh buffer.
func writeAll(t *testing.T, mk func(io.Writer) OutputModule, rows []Response) []byte {
	t.Helper()
	var buf bytes.Buffer
	out := mk(&buf)
	for _, r := range rows {
		if err := out.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := out.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func newCSV(w io.Writer) OutputModule {
	o, err := NewCSVOutput(w)
	if err != nil {
		panic(err)
	}
	return o
}

func newJSON(w io.Writer) OutputModule { return NewJSONOutput(w) }

var outputModules = []struct {
	name string
	mk   func(io.Writer) OutputModule
	ref  func(*testing.T, []Response) []byte
}{
	{"csv", newCSV, refCSV},
	{"json", newJSON, refJSON},
}

// gridRows is every kind (named, zero, past the last, negative) × the
// codes whose digit count changes × address pairs of every text shape,
// in both same_prefix64 states.
func gridRows() []Response {
	pairs := [][2]string{
		{"2001:db8::1", "2001:db8::2"},                                 // same /64
		{"2001:db8:0:1::1", "2001:db8:0:2::1"},                         // different /64
		{"::", "::1"},                                                  // same /64, shortest forms
		{"::ffff:1.2.3.4", "::ffff:255.255.255.255"},                   // v4-mapped
		{"1:0:0:2::", "1::"},                                           // trailing runs
		{"ffff:ffff:ffff:ffff:ffff:ffff:ffff:ffff", "1:2:3:0:5:6:7:8"}, // longest form, lone zero
	}
	var rows []Response
	for k := ResponseKind(-1); k <= KindUDPData+1; k++ {
		for _, code := range []uint8{0, 9, 10, 99, 100, 255} {
			for _, p := range pairs {
				rows = append(rows, Response{
					Responder: ipv6.MustParseAddr(p[0]), ProbeDst: ipv6.MustParseAddr(p[1]),
					Kind: k, Code: code,
				})
			}
		}
	}
	rows = append(rows, Response{Kind: 99}, Response{Kind: -1 << 63})
	return rows
}

func TestOutputMatchesReferenceEncoders(t *testing.T) {
	rows := gridRows()
	same := map[bool]int{}
	for _, r := range rows {
		same[r.SamePrefix64()]++
	}
	if same[true] == 0 || same[false] == 0 {
		t.Fatalf("grid covers same_prefix64 %v", same)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		r := Response{
			Responder: ipv6.AddrFrom128(uint128.New(rng.Uint64(), rng.Uint64())),
			Kind:      ResponseKind(rng.Intn(8)), Code: uint8(rng.Intn(256)),
		}
		r.ProbeDst = r.Responder.WithIID(rng.Uint64())
		if i%2 == 0 {
			r.ProbeDst = ipv6.AddrFrom128(uint128.New(rng.Uint64()&^0xffff, uint64(rng.Intn(1<<16))))
		}
		rows = append(rows, r)
	}
	for _, m := range outputModules {
		if got, want := writeAll(t, m.mk, rows), m.ref(t, rows); !bytes.Equal(got, want) {
			t.Errorf("%s: %d bytes differ from the reference encoder's %d", m.name, len(got), len(want))
			for i, r := range rows {
				if g, w := writeAll(t, m.mk, []Response{r}), m.ref(t, []Response{r}); !bytes.Equal(g, w) {
					t.Fatalf("%s row %d: got %q, want %q", m.name, i, g, w)
				}
			}
		}
	}
	// maxRowLen is the bound room() relies on: the longest row either
	// module can produce stays under it.
	longest := []Response{{
		Responder: ipv6.MustParseAddr("ffff:ffff:ffff:ffff:ffff:ffff:ffff:ffff"),
		ProbeDst:  ipv6.MustParseAddr("eeee:eeee:eeee:eeee:eeee:eeee:eeee:eeee"),
		Kind:      -1 << 63, Code: 255,
	}}
	for _, m := range outputModules {
		if n := len(m.ref(t, longest)) - len(m.ref(t, nil)); n > maxRowLen {
			t.Errorf("%s: longest row is %d bytes, over maxRowLen %d", m.name, n, maxRowLen)
		}
	}
}

// chunkWriter records each Write it is handed.
type chunkWriter struct{ chunks [][]byte }

func (w *chunkWriter) Write(p []byte) (int, error) {
	w.chunks = append(w.chunks, append([]byte(nil), p...))
	return len(p), nil
}

// TestOutputBufferBoundary pads the buffer so that a row ends one byte
// before, exactly at and one byte after the fill level past which the
// next row might not fit, and checks where the chunk boundary falls and
// that no byte is lost or torn around it.
func TestOutputBufferBoundary(t *testing.T) {
	const threshold = outputBufSize - maxRowLen // room() flushes once len(buf) exceeds this
	rows := gridRows()[:3]
	for _, m := range outputModules {
		hdr := len(m.ref(t, nil))
		row := func(i int) []byte { return m.ref(t, rows[i:i+1])[hdr:] }
		for _, delta := range []int{-1, 0, 1} {
			var w chunkWriter
			out := m.mk(&w)
			var rb *rowBuffer
			switch o := out.(type) {
			case *CSVOutput:
				rb = &o.rowBuffer
			case *JSONOutput:
				rb = &o.rowBuffer
			}
			pad := bytes.Repeat([]byte{'#'}, threshold+delta-len(row(0)))
			rb.buf = append(rb.buf[:0], pad...)
			for _, r := range rows {
				if err := out.Write(r); err != nil {
					t.Fatal(err)
				}
			}
			if err := out.Flush(); err != nil {
				t.Fatal(err)
			}
			// rows[0] ends at threshold+delta. At or below the threshold
			// rows[1] still fits behind it; one byte over, it does not.
			want := [][]byte{slices.Concat(pad, row(0), row(1)), row(2)}
			if delta > 0 {
				want = [][]byte{slices.Concat(pad, row(0)), slices.Concat(row(1), row(2))}
			}
			if len(w.chunks) != 2 || !bytes.Equal(w.chunks[0], want[0]) || !bytes.Equal(w.chunks[1], want[1]) {
				t.Errorf("%s delta %d: %d chunks; first ends %q, second is %q", m.name, delta,
					len(w.chunks), w.chunks[0][len(pad):], w.chunks[len(w.chunks)-1])
			}
			if len(w.chunks[0]) > outputBufSize {
				t.Errorf("%s delta %d: chunk of %d bytes outgrew the %d-byte buffer", m.name, delta, len(w.chunks[0]), outputBufSize)
			}
		}
	}
}

// limitWriter accepts limit bytes in all, then fails (err set) or
// short-writes (err nil).
type limitWriter struct {
	limit int
	err   error
	calls int
}

func (w *limitWriter) Write(p []byte) (int, error) {
	w.calls++
	n := len(p)
	if n > w.limit {
		n = w.limit
	}
	w.limit -= n
	if n < len(p) {
		return n, w.err
	}
	return n, nil
}

func TestOutputWriteErrors(t *testing.T) {
	errSink := errors.New("sink closed")
	r := Response{Responder: ipv6.MustParseAddr("2001:db8::1"), ProbeDst: ipv6.MustParseAddr("2001:db8::2"), Kind: KindEchoReply}
	for _, m := range outputModules {
		for _, tc := range []struct {
			name string
			sink error
			want error
		}{
			{"failing", errSink, errSink},
			{"short", nil, io.ErrShortWrite},
		} {
			// A sink that takes nothing: the CSV header alone already
			// fails the first Flush; NDJSON has nothing to write yet.
			w := &limitWriter{err: tc.sink}
			out := m.mk(w)
			if m.name == "csv" {
				if err := out.Flush(); !errors.Is(err, tc.want) {
					t.Errorf("%s/%s: Flush of the header = %v, want %v", m.name, tc.name, err, tc.want)
				}
			} else if err := out.Flush(); err != nil || w.calls != 0 {
				t.Errorf("%s/%s: empty Flush = %v after %d writes", m.name, tc.name, err, w.calls)
			}

			// A sink that dies mid-scan: the Write that has to make room
			// reports it, and so does everything after, without touching
			// the sink again.
			w = &limitWriter{limit: outputBufSize / 2, err: tc.sink}
			out = m.mk(w)
			var err error
			n := 0
			for ; err == nil && n < outputBufSize; n++ {
				err = out.Write(r)
			}
			if !errors.Is(err, tc.want) {
				t.Fatalf("%s/%s: Write %d = %v, want %v", m.name, tc.name, n, err, tc.want)
			}
			if w.calls != 1 {
				t.Errorf("%s/%s: %d sink writes before the error, want 1", m.name, tc.name, w.calls)
			}
			if err := out.Write(r); !errors.Is(err, tc.want) {
				t.Errorf("%s/%s: Write after the error = %v", m.name, tc.name, err)
			}
			if err := out.Flush(); !errors.Is(err, tc.want) {
				t.Errorf("%s/%s: Flush after the error = %v", m.name, tc.name, err)
			}
			if w.calls != 1 {
				t.Errorf("%s/%s: sink written %d times, want 1 (the error is sticky)", m.name, tc.name, w.calls)
			}
		}
	}
}

func TestFieldMatchesMapRecord(t *testing.T) {
	exprs := []string{
		`kind == "dest-unreach"`, `kind != "echo-reply" && code >= 10`, `kind contains "kind("`,
		`same_prefix64`, `!same_prefix64 || code == 255`, `responder contains "db8"`,
		`probe_dst == "::1"`, `responder < probe_dst`, `code == "x"`, `nonexistent == 1`,
	}
	for _, src := range exprs {
		e := filter.MustParse(src)
		for i, r := range gridRows() {
			got, gerr := e.Eval(&r)
			want, werr := e.Eval(refRecord(r))
			if got != want || (gerr == nil) != (werr == nil) || (gerr != nil && gerr.Error() != werr.Error()) {
				t.Fatalf("%s on row %d: (%v, %v), map record says (%v, %v)", src, i, got, gerr, want, werr)
			}
		}
	}
}

func TestOutputWriteAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	rows := []Response{
		{Responder: ipv6.MustParseAddr("2001:db8:1:2:3:4:5:6"), ProbeDst: ipv6.MustParseAddr("2001:db8:1:2::1"), Kind: KindDestUnreach, Code: 3},
		{Responder: ipv6.MustParseAddr("2001:db8::1"), ProbeDst: ipv6.MustParseAddr("2001:db9::1"), Kind: KindEchoReply, Code: 255},
	}
	filtered := func(w io.Writer) OutputModule {
		o, err := NewFilteredOutput(`kind == "dest-unreach" && code < 200 && !same_prefix64 || same_prefix64`, newCSV(w))
		if err != nil {
			t.Fatal(err)
		}
		return o
	}
	for _, m := range []struct {
		name string
		mk   func(io.Writer) OutputModule
	}{{"csv", newCSV}, {"json", newJSON}, {"filtered", filtered}} {
		out := m.mk(io.Discard)
		i := 0
		// Enough runs to cross the flush point many times.
		if n := testing.AllocsPerRun(5000, func() {
			if err := out.Write(rows[i&1]); err != nil {
				t.Fatal(err)
			}
			i++
		}); n != 0 {
			t.Errorf("%s: Write allocates %v times per row", m.name, n)
		}
	}
}
