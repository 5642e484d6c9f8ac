package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metricDef names one reported number. The tables below are the single
// source for what the program prints; BENCHMARK.json repeats them for
// the driver and the smoke test holds the two equal.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// endToEnd is what a user of the scanner sees. Every workload reports
// all eight. completed_share is 1 - failed_share: the driver's contract
// wants metrics that are never zero, and the failed count itself rides
// in the result line's "failed" field.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"wall_ns_per_op", "ns", "lower", 0.25},
	{"cpu_ns_per_op", "ns", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
	{"probes_per_op", "ratio", "lower", 0.02},
	{"recall", "ratio", "higher", 0.05},
	{"output_precision", "ratio", "higher", 0.01},
	{"completed_share", "ratio", "higher", 0.001},
}

// perLayer is the traced pass's ledger; layer = package name. A metric
// whose layer a workload does not use reads 0 there.
var perLayer = []metricDef{
	{Name: "topo.build_s", Unit: "s", Better: "lower"},
	{Name: "topo.heap_mb", Unit: "MB", Better: "lower"},
	{Name: "perm.cycle_new_us", Unit: "us", Better: "lower"},
	{Name: "perm.next_ns", Unit: "ns", Better: "lower"},
	{Name: "xmap.new_s", Unit: "s", Better: "lower"},
	{Name: "xmap.self_ns_per_op", Unit: "ns", Better: "lower"},
	{Name: "xmap.target_for_ns", Unit: "ns", Better: "lower"},
	{Name: "xmap.validation_ns", Unit: "ns", Better: "lower"},
	{Name: "xmap.probe_build_ns", Unit: "ns", Better: "lower"},
	{Name: "xmap.classify_ns", Unit: "ns", Better: "lower"},
	{Name: "xmap.allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "xmap.bytes_per_op", Unit: "B", Better: "lower"},
	{Name: "xmap.dup_reply_share", Unit: "ratio", Better: "lower"},
	{Name: "xmap.drain_calls_per_kop", Unit: "count", Better: "lower"},
	{Name: "netsim.send_ns_per_op", Unit: "ns", Better: "lower"},
	{Name: "netsim.send_batch_p50_ns", Unit: "ns", Better: "lower"},
	{Name: "netsim.send_batch_p99_ns", Unit: "ns", Better: "lower"},
	{Name: "netsim.recv_ns_per_op", Unit: "ns", Better: "lower"},
	{Name: "netsim.release_ns_per_op", Unit: "ns", Better: "lower"},
	{Name: "netsim.inject_cold_ns", Unit: "ns", Better: "lower"},
	{Name: "netsim.inject_warm_ns", Unit: "ns", Better: "lower"},
	{Name: "netsim.inject_interp_ns", Unit: "ns", Better: "lower"},
	{Name: "netsim.events_per_op", Unit: "count", Better: "lower"},
	{Name: "netsim.transmissions_per_op", Unit: "count", Better: "lower"},
	{Name: "netsim.fastpath_hit_share", Unit: "ratio", Better: "higher"},
	{Name: "netsim.fastpath_invalidations", Unit: "count", Better: "lower"},
	{Name: "netsim.dropped_share", Unit: "ratio", Better: "lower"},
	{Name: "output.ns_per_hit", Unit: "ns", Better: "lower"},
	{Name: "output.bytes_per_hit", Unit: "B", Better: "lower"},
	{Name: "output.hits", Unit: "count", Better: "higher"},
	{Name: "checkpoint.writes", Unit: "count", Better: "lower"},
	{Name: "checkpoint.bytes", Unit: "B", Better: "lower"},
	{Name: "checkpoint.hook_ns_per_op", Unit: "ns", Better: "lower"},
	{Name: "checkpoint.write_ms", Unit: "ms", Better: "lower"},
	{Name: "checkpoint.load_ms", Unit: "ms", Better: "lower"},
	{Name: "checkpoint.est_share", Unit: "ratio", Better: "lower"},
	{Name: "ring.handoff_ns_per_pkt", Unit: "ns", Better: "lower"},
	{Name: "parallel.efficiency", Unit: "ratio", Better: "higher"},
	{Name: "retry.retried_per_op", Unit: "ratio", Better: "lower"},
	{Name: "retry.exhausted_share", Unit: "ratio", Better: "lower"},
	{Name: "aimd.rate_down", Unit: "count", Better: "lower"},
	{Name: "alias.detected", Unit: "count", Better: "higher"},
	{Name: "alias.block_precision", Unit: "ratio", Better: "higher"},
	{Name: "alias.region_recall", Unit: "ratio", Better: "higher"},
	{Name: "defend.quarantined", Unit: "count", Better: "higher"},
	{Name: "defend.shed", Unit: "count", Better: "lower"},
	{Name: "telemetry.instrumented_overhead_pct", Unit: "%", Better: "lower"},
	{Name: "telemetry.traced_overhead_pct", Unit: "%", Better: "lower"},
	{Name: "subnet.us_per_block", Unit: "us", Better: "lower"},
	{Name: "subnet.exact_share", Unit: "ratio", Better: "higher"},
	{Name: "zgrab.us_per_device", Unit: "us", Better: "lower"},
	{Name: "zgrab.alive_share", Unit: "ratio", Better: "higher"},
	{Name: "loopscan.us_per_target", Unit: "us", Better: "lower"},
	{Name: "loopscan.vuln_recall", Unit: "ratio", Better: "higher"},
	{Name: "bench.trace_overhead_pct", Unit: "%", Better: "lower"},
	{Name: "bench.kernel_residual_pct", Unit: "%", Better: "lower"},
}

// value is one metric as it appears in the result line.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a child's standard output: the driver's
// contract, plus nothing else.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted uint64           `json:"attempted"`
	Failed    uint64           `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// build fills a result's metrics from vals in defs order. A name vals
// lacks reads 0 (a layer the workload does not use); a non-finite value
// is a harness bug and fails the run.
func (r *result) build(defs []metricDef, vals map[string]float64) error {
	r.Metrics = make(map[string]value, len(defs))
	for _, d := range defs {
		v := vals[d.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is not finite", d.Name)
		}
		r.Metrics[d.Name] = value{Value: v, Unit: d.Unit}
	}
	for name := range vals {
		if _, ok := r.Metrics[name]; !ok {
			return fmt.Errorf("metric %s is not declared", name)
		}
	}
	return nil
}

func (r *result) line() string {
	b, err := json.Marshal(r)
	if err != nil {
		panic(err) // plain structs of finite floats always marshal
	}
	return string(b)
}

// dist summarizes repeated timings: median with the range and the count
// behind it.
type dist struct {
	Median, Min, Max float64
	N                int
}

func summarize(xs []float64) dist {
	if len(xs) == 0 {
		return dist{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return dist{Median: medianSorted(s), Min: s[0], Max: s[len(s)-1], N: len(s)}
}

func median(xs []float64) float64 { return summarize(xs).Median }

func medianSorted(s []float64) float64 {
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the p-quantile (nearest rank) of sorted durations.
func percentile(sorted []int64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return float64(sorted[i])
}

// cpuTime is this process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// heapInuseMB forces a collection and reports the live heap.
func heapInuseMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapInuse) / (1 << 20)
}
