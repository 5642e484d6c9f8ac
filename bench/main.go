// Command bench is the repository's whole-scan benchmark: six named
// workloads driven through the same public calls cmd/xmap makes, eight
// end-to-end metrics from an untraced pass, and a per-layer ledger from
// a traced pass that times every layer from outside. See README.md.
//
// The driver's form runs one workload in this process:
//
//	bench --workload scan_cold --seed 1 --seconds 10 --trace 0
//
// Without --workload, every workload runs in a fresh child process, one
// at a time, and the results are printed one metric per line followed by
// a JSON document.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
)

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 10

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

type options struct {
	workload  string
	seed      int64
	seconds   float64
	trace     bool
	reps      int
	tiny      bool
	outDir    string
	selfcheck bool
	verify    bool
	update    bool
	manifest  bool
}

// run executes one invocation, writing results to stdout; the smoke test
// calls it the way the driver does.
// size is the input size the options select.
func (o options) size() size {
	if o.tiny {
		return tinySize
	}
	return fullSize
}

func run(args []string, stdout io.Writer) error {
	var o options
	var trace int
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "run this one workload in-process and end with the driver's result line")
	fs.Int64Var(&o.seed, "seed", 1, "topology seed, scan seed and fault-injector seed")
	fs.Float64Var(&o.seconds, "seconds", defaultSeconds, "timed work per workload run")
	fs.IntVar(&trace, "trace", 0, "0: untraced pass, end-to-end metrics; 1: traced pass, per-layer metrics")
	traced := fs.Bool("traced", false, "same as -trace 1")
	fs.IntVar(&o.reps, "reps", 0, "run exactly this many reps instead of filling -seconds")
	fs.BoolVar(&o.tiny, "tiny", false, "smoke-test input sizes (not comparable with BENCHMARK.json numbers)")
	fs.StringVar(&o.outDir, "out", "out", "directory for scan outputs, checkpoints and trace files")
	fs.BoolVar(&o.selfcheck, "selfcheck", false, "run two untraced sets and compare every metric against its bound")
	fs.BoolVar(&o.verify, "verify", false, "check scan_cold's CSV is byte-identical to cmd/xmap's")
	fs.BoolVar(&o.update, "update-golden", false, "rewrite golden.json from a default-seed run of every workload")
	fs.BoolVar(&o.manifest, "manifest", false, "print BENCHMARK.json as the metric and workload tables define it")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	o.trace = *traced || trace != 0
	if o.manifest {
		fmt.Fprintln(stdout, manifest())
		return nil
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return err
	}
	// Two cores at most: load comes from this one process, with no more
	// goroutines than cores.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))

	switch {
	case o.verify:
		return cliParity(o.seed, o.size(), o.outDir, stdout)
	case o.update:
		return updateGolden(o)
	case o.selfcheck:
		return selfcheck(o, stdout)
	case o.workload != "":
		rep, err := runWorkload(o)
		if err != nil {
			return err
		}
		rep.print(stdout)
		fmt.Fprintln(stdout, rep.result.line())
		if !rep.result.Correct {
			return fmt.Errorf("%s: output check failed: %s", o.workload, rep.why)
		}
		return nil
	}
	doc, err := runAll(o, stdout)
	if err != nil {
		return err
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(out))
	return nil
}

// runAll runs every workload in its own child process and returns the
// result lines by workload name; the children's metric lines go to echo.
func runAll(o options, echo io.Writer) (map[string]result, error) {
	doc := map[string]result{}
	for _, w := range workloads {
		r, err := runChild(o, w.name, echo)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		doc[w.name] = r
	}
	return doc, nil
}

// runChild re-executes this binary for one workload, so each starts
// from a clean heap and its VmHWM is its own. It waits for the child to
// end and returns the parsed result line.
func runChild(o options, name string, echo io.Writer) (result, error) {
	var r result
	self, err := os.Executable()
	if err != nil {
		return r, err
	}
	args := []string{
		"--workload", name,
		"--seed", strconv.FormatInt(o.seed, 10),
		"--seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64),
		"--reps", strconv.Itoa(o.reps),
		"--out", o.outDir,
	}
	if o.trace {
		args = append(args, "--trace", "1")
	}
	if o.tiny {
		args = append(args, "--tiny")
	}
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	lines := strings.Split(strings.TrimRight(string(out), "\n"), "\n")
	for _, l := range lines[:len(lines)-1] {
		fmt.Fprintln(echo, l)
	}
	if err != nil {
		return r, err
	}
	dec := json.NewDecoder(bytes.NewReader([]byte(lines[len(lines)-1])))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&r); err != nil {
		return r, fmt.Errorf("parsing result line: %w", err)
	}
	return r, nil
}

// selfcheck runs two untraced sets of the same build and reports, per
// workload and metric, the relative difference beside its bound. This is
// the repeatability evidence, and the tool a later change uses to say
// "unresolved" rather than "unchanged".
func selfcheck(o options, stdout io.Writer) error {
	o.trace = false
	a, err := runAll(o, io.Discard)
	if err != nil {
		return err
	}
	b, err := runAll(o, io.Discard)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(stdout)
	defer w.Flush()
	excess := 0
	fmt.Fprintf(w, "%-15s %-18s %14s %14s %9s %7s\n", "workload", "metric", "first", "second", "diff", "bound")
	for _, wl := range workloads {
		for _, m := range endToEnd {
			x, y := a[wl.name].Metrics[m.Name].Value, b[wl.name].Metrics[m.Name].Value
			diff := 0.0
			if x != y {
				diff = (y - x) / x
				if diff < 0 {
					diff = -diff
				}
			}
			mark := ""
			if diff > m.Bound {
				mark = "  EXCEEDS"
				excess++
			}
			fmt.Fprintf(w, "%-15s %-18s %14.6g %14.6g %8.2f%% %6.1f%%%s\n", wl.name, m.Name, x, y, 100*diff, 100*m.Bound, mark)
		}
	}
	if excess > 0 {
		w.Flush()
		return fmt.Errorf("%d metric(s) differ between two runs of the same build by more than their bound", excess)
	}
	return nil
}

// manifest renders BENCHMARK.json from the tables this program reports
// from, so the file and the program cannot name different things.
func manifest() string {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string    `json:"command"`
		Paths      []string    `json:"paths"`
		RunSeconds int         `json:"run_seconds"`
		Workloads  []wl        `json:"workloads"`
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []layer     `json:"per_layer"`
	}{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: defaultSeconds,
		EndToEnd:   endToEnd,
	}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, wl{w.name, w.why})
	}
	for _, m := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{m.Name, m.Unit, m.Better})
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		panic(err) // plain structs always marshal
	}
	return string(out)
}
