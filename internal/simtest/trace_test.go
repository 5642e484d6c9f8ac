package simtest

import (
	"strings"
	"testing"

	"repro/internal/telemetry"
)

func traceSpans(n int) []telemetry.Span {
	ev := make([]telemetry.Span, n)
	for i := range ev {
		ev[i] = telemetry.Span{
			Seq: uint64(i), Clock: uint64(i * 2), Kind: telemetry.SpanSent,
			Addr: [16]byte{0x20, 0x01, 0x0d, 0xb8, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, byte(i)},
			Arg:  uint64(i),
		}
	}
	return ev
}

// TestAttachTraceTailsEvents: a failing problem list gains one entry
// holding the last k spans, newest-last.
func TestAttachTraceTailsEvents(t *testing.T) {
	problems := AttachTrace([]string{"stats diverged"}, traceSpans(40), 5)
	if len(problems) != 2 {
		t.Fatalf("got %d problems, want the original plus the trace", len(problems))
	}
	tail := problems[1]
	if !strings.Contains(tail, "trace (last 5 spans):") {
		t.Errorf("missing header: %q", tail)
	}
	if !strings.Contains(tail, "#35") || !strings.Contains(tail, "#39") {
		t.Errorf("tail does not cover spans 35..39: %q", tail)
	}
	if strings.Contains(tail, "#34") {
		t.Errorf("tail includes a span before the window: %q", tail)
	}
	if !strings.Contains(tail, " sent ") || !strings.Contains(tail, "addr=2001:db8::27") {
		t.Errorf("span line missing kind or address: %q", tail)
	}
}

// TestAttachTraceNoOps: clean runs and empty streams leave the
// problem list untouched; k<=0 defaults to 16.
func TestAttachTraceNoOps(t *testing.T) {
	if got := AttachTrace(nil, traceSpans(3), 5); got != nil {
		t.Errorf("clean run grew problems: %v", got)
	}
	if got := AttachTrace([]string{"p"}, nil, 5); len(got) != 1 {
		t.Errorf("empty stream changed problems: %v", got)
	}
	got := AttachTrace([]string{"p"}, traceSpans(40), 0)
	if !strings.Contains(got[1], "last 16 spans") {
		t.Errorf("default tail is not 16: %q", got[1])
	}
	// Fewer spans than k: take them all.
	got = AttachTrace([]string{"p"}, traceSpans(3), 16)
	if !strings.Contains(got[1], "last 3 spans") {
		t.Errorf("short stream not fully included: %q", got[1])
	}
}

// TestDiscoveryFailureCarriesTrace: when a discovery scenario reports a
// problem, the message set includes the run's packet-level tail — the
// acceptance property that failures are replayable AND readable. The
// run itself is clean, so the check injects a synthetic problem through
// the same AttachTrace path the scenario uses.
func TestDiscoveryFailureCarriesTrace(t *testing.T) {
	run, err := runLeg(env{seed: 3, p: profile{name: "none"}}, discoveryRef, nil)
	if err != nil {
		t.Fatal(err)
	}
	spans := run.cfg.Tracer.AppendSpans(0, nil)
	if len(spans) == 0 {
		t.Fatal("discovery run recorded no spans")
	}
	problems := AttachTrace([]string{"synthetic failure"}, spans, 16)
	if len(problems) != 2 {
		t.Fatalf("got %d problems, want 2", len(problems))
	}
	tail := problems[1]
	if !strings.Contains(tail, "trace (last 16 spans)") {
		t.Fatalf("failure message lacks the span tail: %q", tail)
	}
	// The tail of a scan ends in receive-side spans with real addresses.
	if !strings.Contains(tail, "addr=") {
		t.Errorf("span tail carries no addresses: %q", tail)
	}
	// The scenario's snapshot view covers all three layers of the stack.
	snap := run.cfg.Telemetry.Snapshot()
	if snap.Counters[telemetry.ScanSent.String()] != run.stats[0].Sent {
		t.Errorf("snapshot scan.sent = %d, stats say %d",
			snap.Counters[telemetry.ScanSent.String()], run.stats[0].Sent)
	}
	if snap.Counters[telemetry.InjectTransmissions.String()] == 0 {
		t.Error("inject.transmissions = 0: injector collector not registered")
	}
	if snap.Counters[telemetry.SimTransmissions.String()] == 0 {
		t.Error("sim.transmissions = 0: engine collector not registered")
	}
}
