package simtest

import (
	"fmt"
	"strings"

	"repro/internal/ipv6"
	"repro/internal/telemetry"
)

// AttachTrace appends the tail of a scan's span stream to a failing
// scenario's problem list, so a seed-replayable failure carries the
// packet-level moments leading up to it (what was probed, what
// answered, which retries fired) instead of just the final counts. A
// clean run (no problems) or an empty stream returns problems
// unchanged. k bounds the tail (<=0 means 16).
func AttachTrace(problems []string, spans []telemetry.Span, k int) []string {
	if len(problems) == 0 || len(spans) == 0 {
		return problems
	}
	if k <= 0 {
		k = 16
	}
	if len(spans) > k {
		spans = spans[len(spans)-k:]
	}
	var b strings.Builder
	fmt.Fprintf(&b, "trace (last %d spans):", len(spans))
	for _, e := range spans {
		fmt.Fprintf(&b, "\n  #%d clock=%d %s", e.Seq, e.Clock, e.Kind)
		if e.Addr != ([16]byte{}) {
			fmt.Fprintf(&b, " addr=%s", ipv6.AddrFromBytes(e.Addr[:]))
		}
		fmt.Fprintf(&b, " arg=%d", e.Arg)
	}
	return append(problems, b.String())
}
