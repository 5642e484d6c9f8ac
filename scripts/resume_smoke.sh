#!/usr/bin/env bash
# resume_smoke.sh — kill-and-resume smoke test against the real CLI.
#
# Runs the same deterministic simulated scan as
#   reference  one uninterrupted scan of the window
# and then, once with a single shard and once with -parallel 2,
#   leg 1      the scan with -checkpoint, stopped halfway by -max-targets
#              (the checkpoint file is flushed on exit, like SIGINT)
#   leg 2      a fresh process with -resume finishing the window
#
# and asserts the responder set of leg1 ∪ leg2 is byte-identical to the
# reference, that leg 2 re-reports nothing, and that the checkpoint file
# after leg 1 is no larger than 16 bytes per responder reported so far
# plus 4 KiB: it is a responder list and per-shard cursors, with no
# per-window state. Everything is seeded, so any diff is a real
# regression in the checkpoint/resume path, never flake.
#
# The distributed leg runs the same pair for each slice of a -shards 2
# scan (-shard 0, then -shard 1, each with its own checkpoint file): the
# four legs together must find the reference set, and a slice's file
# must refuse to resume the other slice (config digest mismatch). The
# dedup Bloom filter's false positives depend on which responders share
# a filter, so a whole-window filter and two slice filters can drop
# different peripheries: at seed 3 the slices find one responder the
# reference drops, and this leg fails until the filter goes (DESIGN.md,
# Checkpoint/resume; ROADMAP item 3).
#
# A last pair of legs is a real kill: the -parallel 2 scan, slowed by
# -rate, gets kill -9 as soon as its checkpoint file lists a responder,
# and is resumed from whatever file that left. Nothing flushes on the way
# out, so leg1 ∪ leg2 equals the reference only if every responder the
# file lists had its row written out before the file was (rows are
# flushed ahead of each checkpoint write). Responders seen after the last
# checkpoint are re-probed and may appear in both legs.
#
# Usage: scripts/resume_smoke.sh [seed]
set -euo pipefail
cd "$(dirname "$0")/.."

seed="${1:-7}"
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

go build -o "$work/xmap" ./cmd/xmap

common=(-seed "$seed" -quiet -output csv)
responders() { tail -n +2 "$1" | grep -v '^responder,' | cut -d, -f1 | sort -u; }

"$work/xmap" "${common[@]}" >"$work/reference.csv"
responders "$work/reference.csv" >"$work/want"
total=$(wc -l <"$work/want")

# kill_and_resume <parallel> <max-targets per shard>: half the 4096-target
# window, then the rest.
kill_and_resume() {
    local par="$1" half="$2" ckpt="$work/scan-$1.ckpt"
    local mode="-parallel $par, seed $seed"
    "$work/xmap" "${common[@]}" -parallel "$par" -checkpoint "$ckpt" -checkpoint-every 256 \
        -max-targets "$half" >"$work/leg1.csv"

    local sofar size
    sofar=$(responders "$work/leg1.csv" | wc -l)
    size=$(stat -c %s "$ckpt")
    if [ "$size" -gt $((16 * sofar + 4096)) ]; then
        echo "resume_smoke: checkpoint is $size bytes for $sofar responders; per-window state is back in the file ($mode)" >&2
        exit 1
    fi

    "$work/xmap" "${common[@]}" -parallel "$par" -checkpoint "$ckpt" -resume >"$work/leg2.csv"
    cat "$work/leg1.csv" "$work/leg2.csv" >"$work/both.csv"
    if ! diff -u "$work/want" <(responders "$work/both.csv"); then
        echo "resume_smoke: killed+resumed responder set diverged from the uninterrupted scan ($mode)" >&2
        exit 1
    fi
    # The resumed leg must not re-report responders leg 1 already emitted.
    if [ -n "$(comm -12 <(responders "$work/leg1.csv") <(responders "$work/leg2.csv"))" ]; then
        echo "resume_smoke: resume re-reported responders from before the kill ($mode)" >&2
        exit 1
    fi
}

kill_and_resume 1 2048
kill_and_resume 2 1024

# distributed: each -shards 2 slice is 2048 targets; stop at half, resume.
distributed() {
    local mode="-shards 2, seed $seed" k
    : >"$work/slices.csv"
    for k in 0 1; do
        "$work/xmap" "${common[@]}" -shards 2 -shard "$k" -checkpoint "$work/slice-$k.ckpt" \
            -checkpoint-every 256 -max-targets 1024 >>"$work/slices.csv"
        "$work/xmap" "${common[@]}" -shards 2 -shard "$k" -checkpoint "$work/slice-$k.ckpt" \
            -resume >>"$work/slices.csv"
    done
    if ! diff -u "$work/want" <(responders "$work/slices.csv"); then
        echo "resume_smoke: the killed+resumed slices diverged from the uninterrupted scan ($mode)" >&2
        exit 1
    fi
    if "$work/xmap" "${common[@]}" -shards 2 -shard 1 -checkpoint "$work/slice-0.ckpt" -resume \
        >/dev/null 2>"$work/cross.err" || ! grep -q 'digest mismatch' "$work/cross.err"; then
        echo "resume_smoke: slice 1 resumed from slice 0's checkpoint: $(cat "$work/cross.err") ($mode)" >&2
        exit 1
    fi
}

distributed

# listed <checkpoint>: how many responders the file lists. After the
# 40-byte header (magic, digest, shard count) come records framed as
# big-endian length, CRC and payload, whose first four bytes count the
# responders new in it: sum them over the complete records. A torn last
# record lists nothing.
listed() {
    od -An -v -tu1 -j40 "$1" 2>/dev/null | awk '
        { for (i = 1; i <= NF; i++) b[n++] = $i }
        END {
            sum = 0
            for (p = 0; p + 12 <= n; p += 8 + len) {
                len = ((b[p] * 256 + b[p + 1]) * 256 + b[p + 2]) * 256 + b[p + 3]
                if (p + 8 + len > n) break
                sum += ((b[p + 8] * 256 + b[p + 9]) * 256 + b[p + 10]) * 256 + b[p + 11]
            }
            print sum
        }'
}

hard_kill_and_resume() {
    local ckpt="$work/scan-kill.ckpt" pid n
    local mode="kill -9, -parallel 2, seed $seed"
    # 500 pps per shard: the 4096-target window takes about four seconds.
    "$work/xmap" "${common[@]}" -parallel 2 -checkpoint "$ckpt" -checkpoint-every 256 \
        -rate 500 >"$work/leg1.csv" &
    pid=$!
    while n=$(listed "$ckpt"); [ "${n:-0}" -lt 1 ]; do
        if ! kill -0 "$pid" 2>/dev/null; then
            echo "resume_smoke: the scan ended before its checkpoint listed a responder ($mode)" >&2
            exit 1
        fi
        sleep 0.05
    done
    kill -9 "$pid"
    wait "$pid" 2>/dev/null || true
    if [ "$(listed "$ckpt")" -ge "$total" ]; then
        echo "resume_smoke: the scan was complete before the kill; lower -rate ($mode)" >&2
        exit 1
    fi

    "$work/xmap" "${common[@]}" -parallel 2 -checkpoint "$ckpt" -resume >"$work/leg2.csv"
    cat "$work/leg1.csv" "$work/leg2.csv" >"$work/both.csv"
    if ! diff -u "$work/want" <(responders "$work/both.csv"); then
        echo "resume_smoke: rows lost across kill -9: the checkpoint listed responders whose rows were still buffered ($mode)" >&2
        exit 1
    fi
}

hard_kill_and_resume

echo "resume_smoke: OK — $total responders identical across kill+resume, one shard, two, two slices, and two under kill -9 (seed $seed)"
