package main

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

// TestWalkthrough runs the default seed end to end through the public
// resume API (ScanParallel + LoadCheckpoint + ResumeFrom) and pins the
// two lines that state the crash-safety contract.
func TestWalkthrough(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
	const consistent = "consistency:     0 missing, 0 invented, 0 double-reported\n"
	if !strings.Contains(out.String(), consistent) {
		t.Errorf("output lacks %q:\n%s", consistent, out.String())
	}
	i := strings.Index(out.String(), "crash cost:")
	if i < 0 {
		t.Fatalf("no crash-cost line:\n%s", out.String())
	}
	var resent, bound int
	if _, err := fmt.Sscanf(out.String()[i:], "crash cost: %d probes re-sent (bound: %d", &resent, &bound); err != nil {
		t.Fatalf("crash-cost line unreadable: %v\n%s", err, out.String())
	}
	if bound != shards*checkpointEvery || resent < 0 || resent > bound {
		t.Errorf("crash re-sent %d probes, bound %d (want %d)", resent, bound, shards*checkpointEvery)
	}
}

// TestSameSeedSameOutput runs the default seed twice: the output,
// crashed leg included, must be identical — the crash lands at the same
// target of each shard every run.
func TestSameSeedSameOutput(t *testing.T) {
	var first, second bytes.Buffer
	if err := run(&first); err != nil {
		t.Fatalf("%v\n%s", err, first.String())
	}
	if err := run(&second); err != nil {
		t.Fatalf("%v\n%s", err, second.String())
	}
	if first.String() != second.String() {
		t.Errorf("same seed, different output:\n%s\n---\n%s", first.String(), second.String())
	}
	crashed := fmt.Sprintf("crashed leg:      %d probes,", shards*killAfter)
	if !strings.Contains(first.String(), crashed) {
		t.Errorf("output lacks %q:\n%s", crashed, first.String())
	}
}
