#!/usr/bin/env bash
# bench.sh — run the repository benchmark suite and capture the results
# as a JSON snapshot (BENCH_<date>.json by default), so the performance
# trajectory is tracked repo-side.
#
# Usage:
#   scripts/bench.sh                   # full run, writes BENCH_<date>.json
#   scripts/bench.sh -short            # one iteration per benchmark (CI smoke:
#                                      # validates the harness, numbers are noise)
#   scripts/bench.sh [-short] out.json
#   scripts/bench.sh -check [baseline.json]
#                                      # regression gate: rerun the suite and
#                                      # fail if any benchmark regresses >15%
#                                      # in ns/op, grows bytes/op >15%+8B, or
#                                      # allocates more per op than the
#                                      # baseline snapshot. Default baseline:
#                                      # the newest *previous* BENCH_*.json —
#                                      # today's own snapshot is skipped
#                                      # unless it is the only one, so a
#                                      # same-day "snapshot then check" cycle
#                                      # still compares against history
#                                      # instead of trivially against itself.
#
# Each entry records name, ns/op, B/op, allocs/op, probes/sec (derived
# as 1e9/ns_per_op for benchmarks that report a "probes" metric) and
# events_per_probe (the simulator's pumped-events-per-probe ratio, the
# quantity the forwarding fast path compresses). A benchmark the
# baseline does not list is reported and skipped. The -check gate also
# fails if events_per_probe rises >10% over the baseline — unlike the
# timing and bytes gates this is a deterministic count, so it holds in
# -short runs too. Snapshots take the per-benchmark minimum of three timed runs (the
# least-noise estimate on a shared machine), so they are stable enough
# to gate against. The snapshot also embeds the growth-seed baseline so
# before/after is visible in one file.
set -euo pipefail
cd "$(dirname "$0")/.."

benchtime=2s
short=0
check=0
while [ $# -gt 0 ]; do
    case "$1" in
    -short)
        short=1
        benchtime=1x
        shift
        ;;
    -check)
        check=1
        shift
        ;;
    *)
        break
        ;;
    esac
done

# BenchmarkTopoBuild is deliberately not matched: -short -check runs every
# matched benchmark 10000 times, and one deployment build takes ~0.15 s
# (about 25 minutes of builds). Run it by hand with -benchmem.
pattern='ScannerThroughput|ScannerTraced|EnginePump|EngineInjectColdSparse|FlowCacheLookupGap|CSVOutputWrite|JSONOutputWrite|AddrAppendTo'

run_suite() {
    go test -run '^$' -bench "$pattern" -benchtime "$benchtime" -count "${1:-1}" -benchmem ./... 2>/dev/null |
        grep '^Benchmark' || true
}

if [ "$check" = 1 ]; then
    baseline="${1:-}"
    if [ -z "$baseline" ]; then
        # Newest snapshot that is not today's: a fresh same-day snapshot
        # would make the gate compare the code against itself and pass
        # vacuously. Fall back to today's only when nothing older exists.
        today="BENCH_$(date +%F).json"
        baseline=$(ls -1 BENCH_*.json 2>/dev/null | grep -Fvx "$today" | sort | tail -1 || true)
        if [ -z "$baseline" ]; then
            baseline=$(ls -1 BENCH_*.json 2>/dev/null | sort | tail -1 || true)
        fi
    fi
    if [ -z "$baseline" ] || [ ! -f "$baseline" ]; then
        echo "bench.sh: no baseline snapshot found (run scripts/bench.sh first)" >&2
        exit 1
    fi
    # A -short baseline records one-iteration timings — pure noise — so
    # only the allocation comparison is meaningful against it.
    base_short=$(grep -o '"short": *[a-z]*' "$baseline" | head -1 | grep -o 'true\|false')
    # In -check -short mode (CI smoke) the fresh numbers are noise too.
    timing_ok=1
    if [ "$base_short" = "true" ] || [ "$short" = 1 ]; then
        timing_ok=0
    fi
    echo "bench.sh: regression check against $baseline (timing gate: $([ $timing_ok = 1 ] && echo on || echo 'off — short run'))"
    # Three runs per benchmark, compared on the per-benchmark minimum:
    # the minimum is the least-noise estimate of the code's true cost on
    # a shared machine, and the 15% budget is meant for real regressions,
    # not scheduler jitter. The -short smoke still needs enough
    # iterations to amortize per-scan setup out of allocs/op (1x would
    # blame scanner construction on the steady state), so it runs 10000
    # iterations once instead of wall-clock-timed thrice.
    runs=3
    if [ "$short" = 1 ]; then
        runs=1
        benchtime=10000x
    fi
    raw=$(run_suite "$runs")
    if [ -z "$raw" ]; then
        echo "bench.sh: no benchmark output" >&2
        exit 1
    fi
    printf '%s\n' "$raw" | awk -v baseline="$baseline" -v timing_ok="$timing_ok" '
        BEGIN {
            # Parse the machine-written snapshot: one benchmark object per
            # line inside the "benchmarks" array (the "baseline" array at
            # the end lists historic commits and is skipped).
            inbench = 0
            while ((getline line < baseline) > 0) {
                if (line ~ /"benchmarks": \[/) { inbench = 1; continue }
                if (inbench && line ~ /\]/) { inbench = 0 }
                if (!inbench) continue
                if (match(line, /"name": "[^"]*"/)) {
                    name = substr(line, RSTART + 9, RLENGTH - 10)
                    ns = field(line, "ns_per_op")
                    allocs = field(line, "allocs_per_op")
                    ev = field(line, "events_per_probe")
                    bytes = field(line, "bytes_per_op")
                    base_ns[name] = ns
                    base_allocs[name] = allocs
                    base_ev[name] = ev
                    base_bytes[name] = bytes
                }
            }
            close(baseline)
        }
        function field(line, key,    rest) {
            if (!match(line, "\"" key "\": [0-9.]+")) return ""
            rest = substr(line, RSTART, RLENGTH)
            sub(/.*: /, "", rest)
            return rest
        }
        {
            name = $1; sub(/-[0-9]+$/, "", name)
            ns = ""; a = ""; ev = ""; b = ""
            for (i = 2; i < NF; i++) {
                if ($(i+1) == "ns/op") ns = $i
                if ($(i+1) == "allocs/op") a = $i
                if ($(i+1) == "events/probe") ev = $i
                if ($(i+1) == "B/op") b = $i
            }
            if (ns == "") next
            if (!(name in base_ns)) {
                # A benchmark added since the baseline was taken has
                # nothing to regress against yet.
                if (!(name in warned)) printf "  %-45s not in %s: skipped\n", name, baseline
                warned[name] = 1
                next
            }
            if (!(name in best_ns) || ns + 0 < best_ns[name] + 0) best_ns[name] = ns
            if (a != "" && (!(name in best_allocs) || a + 0 < best_allocs[name] + 0)) best_allocs[name] = a
            if (ev != "" && (!(name in best_ev) || ev + 0 < best_ev[name] + 0)) best_ev[name] = ev
            if (b != "" && (!(name in best_b) || b + 0 < best_b[name] + 0)) best_b[name] = b
            if (!(name in seen)) { order[++n] = name; seen[name] = 1 }
        }
        END {
            for (i = 1; i <= n; i++) {
                name = order[i]
                ns = best_ns[name]; a = (name in best_allocs) ? best_allocs[name] : ""
                compared++
                status = "ok"
                if (timing_ok && base_ns[name] + 0 > 0 && ns + 0 > base_ns[name] * 1.15) {
                    status = sprintf("THROUGHPUT REGRESSION (>15%%: %.0f -> %.0f ns/op)", base_ns[name], ns)
                    failed++
                }
                if (a != "" && base_allocs[name] != "" && a + 0 > base_allocs[name] + 0) {
                    status = sprintf("ALLOC REGRESSION (%s -> %s allocs/op)", base_allocs[name], a)
                    failed++
                }
                # bytes/op is amortized pool/GC traffic; allow 15% plus a
                # flat 8-byte slack so near-zero baselines do not flag on
                # a one-byte wiggle. Like the timing gate it only holds in
                # full runs: -short iteration counts do not amortize
                # per-scan setup (dedup filter allocation) out of B/op.
                if (timing_ok && name in best_b && base_bytes[name] != "" && best_b[name] + 0 > base_bytes[name] * 1.15 + 8) {
                    status = sprintf("BYTES REGRESSION (>15%%+8B: %s -> %s B/op)", base_bytes[name], best_b[name])
                    failed++
                }
                if (name in best_ev && base_ev[name] != "" && best_ev[name] + 0 > base_ev[name] * 1.10) {
                    status = sprintf("EVENTS REGRESSION (>10%%: %s -> %s events/probe)", base_ev[name], best_ev[name])
                    failed++
                }
                printf "  %-45s ns/op %10s (base %10s)  allocs %3s (base %3s)  %s\n", \
                    name, ns, base_ns[name], a, base_allocs[name], status
            }
            if (compared == 0) {
                print "bench.sh: no benchmarks matched the baseline" > "/dev/stderr"
                exit 1
            }
            if (failed > 0) {
                printf "bench.sh: %d regression(s) against %s\n", failed, baseline > "/dev/stderr"
                exit 1
            }
            printf "bench.sh: %d benchmark(s) within budget\n", compared
        }
    '
    exit $?
fi

out="${1:-BENCH_$(date +%F).json}"
# Full snapshots take the minimum of three timed runs per benchmark so
# the recorded numbers are stable enough to serve as -check baselines;
# -short keeps a single pass (its numbers are noise by design).
snap_runs=3
if [ "$short" = 1 ]; then
    snap_runs=1
fi
raw=$(run_suite "$snap_runs")
if [ -z "$raw" ]; then
    echo "bench.sh: no benchmark output" >&2
    exit 1
fi

commit=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)
gover=$(go env GOVERSION)

{
    printf '{\n'
    printf '  "date": "%s",\n' "$(date +%F)"
    printf '  "commit": "%s",\n' "$commit"
    printf '  "go": "%s",\n' "$gover"
    printf '  "short": %s,\n' "$([ "$short" = 1 ] && echo true || echo false)"
    printf '  "benchmarks": [\n'
    printf '%s\n' "$raw" | awk '
        {
            name = $1; sub(/-[0-9]+$/, "", name)
            ns = ""; b = ""; a = ""; ev = ""
            for (i = 2; i < NF; i++) {
                if ($(i+1) == "ns/op") ns = $i
                if ($(i+1) == "B/op") b = $i
                if ($(i+1) == "allocs/op") a = $i
                if ($(i+1) == "probes") has_probes[name] = 1
                if ($(i+1) == "events/probe") ev = $i
            }
            if (ns == "") next
            # Per-benchmark minimum across the repeated runs.
            if (!(name in best_ns) || ns + 0 < best_ns[name] + 0) best_ns[name] = ns
            if (b != "" && (!(name in best_b) || b + 0 < best_b[name] + 0)) best_b[name] = b
            if (a != "" && (!(name in best_a) || a + 0 < best_a[name] + 0)) best_a[name] = a
            if (ev != "" && (!(name in best_ev) || ev + 0 < best_ev[name] + 0)) best_ev[name] = ev
            if (!(name in seen)) { order[++n] = name; seen[name] = 1 }
        }
        END {
            for (i = 1; i <= n; i++) {
                name = order[i]
                ns = best_ns[name]
                out = sprintf("    {\"name\": \"%s\", \"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s", \
                    name, ns, (name in best_b) ? best_b[name] : "null", (name in best_a) ? best_a[name] : "null")
                if ((name in has_probes) && ns + 0 > 0)
                    out = out sprintf(", \"probes_per_sec\": %d", 1e9 / ns)
                if (name in best_ev)
                    out = out sprintf(", \"events_per_probe\": %s", best_ev[name])
                out = out "}"
                printf "%s%s\n", out, (i < n) ? "," : ""
            }
        }
    '
    printf '  ],\n'
    # Growth-seed numbers (commit 3e0df98) and the pre-telemetry scanner
    # (commit 6e4dfca), for before/after comparison.
    printf '  "baseline": [\n'
    printf '    {"name": "BenchmarkScannerThroughput", "commit": "3e0df98", "ns_per_op": 6135, "bytes_per_op": 2699, "allocs_per_op": 49, "probes_per_sec": 163000},\n'
    printf '    {"name": "BenchmarkScannerThroughput", "commit": "6e4dfca", "ns_per_op": 2208, "bytes_per_op": 57, "allocs_per_op": 0, "probes_per_sec": 452898}\n'
    printf '  ]\n'
    printf '}\n'
} >"$out"

echo "wrote $out"
