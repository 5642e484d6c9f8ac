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

echo "resume_smoke: OK — $total responders identical across kill+resume, one shard and two (seed $seed)"
