package main

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

// TestWalkthrough runs the default seed end to end through the public
// resume API (ScanParallel + LoadCheckpoint + ResumeFrom) and pins the
// two lines that state the contract of a clean stop.
func TestWalkthrough(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
	checkResume(t, out.String())
}

// checkResume requires the consistency line and a clean stop that
// re-sent nothing.
func checkResume(t *testing.T, out string) {
	t.Helper()
	const consistent = "consistency:     0 missing, 0 invented, 0 double-reported\n"
	if !strings.Contains(out, consistent) {
		t.Errorf("output lacks %q:\n%s", consistent, out)
	}
	i := strings.Index(out, "clean stop:")
	if i < 0 {
		t.Fatalf("no clean-stop line:\n%s", out)
	}
	var resent int
	if _, err := fmt.Sscanf(out[i:], "clean stop: %d probes re-sent", &resent); err != nil {
		t.Fatalf("clean-stop line unreadable: %v\n%s", err, out)
	}
	if resent != 0 {
		t.Errorf("a clean stop re-sent %d probes, want 0", resent)
	}
}

// TestSameSeedSameOutput runs the default seed twice: the output,
// stopped leg included, must be identical — the stop lands at the same
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
	stopped := fmt.Sprintf("stopped leg:      %d probes,", shards*stopAfter)
	if !strings.Contains(first.String(), stopped) {
		t.Errorf("output lacks %q:\n%s", stopped, first.String())
	}
	checkResume(t, first.String())
}
