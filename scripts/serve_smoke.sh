#!/usr/bin/env bash
# Kill-and-resume smoke test for the streaming scheduler daemon.
#
# Runs the same workload twice: once uninterrupted (the reference), once
# SIGKILLed mid-run and then resumed from its last on-disk checkpoint.
# The kill lands at half the reference run's wall time, so it stays
# mid-run however fast the host or the daemon is; a victim that exits
# before the kill lands fails the smoke.  The resumed run must reproduce
# the reference bit for bit: the metric / admission / progress report
# lines, every journal segment, and the final checkpoint file.
#
# Usage: scripts/serve_smoke.sh [CLI_BINARY] [OUT_DIR]
#
# Without OUT_DIR the run works in a mktemp directory that is removed on
# exit; pass an explicit OUT_DIR (CI does, to upload artifacts) to keep
# the outputs.
#
# Env:   GRIPPS_SMOKE_JOBS        workload size        (default 1000000)
set -euo pipefail

CLI="${1:-_build/default/bin/gripps_cli.exe}"
if [ $# -ge 2 ]; then
  OUT="$2"
  rm -rf "$OUT"
else
  OUT="$(mktemp -d "${TMPDIR:-/tmp}/serve-smoke.XXXXXX")"
  trap 'rm -rf "$OUT"' EXIT
fi
JOBS="${GRIPPS_SMOKE_JOBS:-1000000}"

ARGS=(--seed 7 --n-jobs "$JOBS" --rate 1 --scheduler SWRPT --policy drop
      --max-live 256 --queue-cap 64 --checkpoint-every 5000)

mkdir -p "$OUT/ref/journal" "$OUT/killed/journal"

echo "serve-smoke: reference (uninterrupted) run..."
t0=$(date +%s%N)
"$CLI" serve "${ARGS[@]}" --checkpoint "$OUT/ref/ck.bin" \
  --journal-dir "$OUT/ref/journal" > "$OUT/ref/report.txt"
ref_ms=$(( ($(date +%s%N) - t0) / 1000000 ))
kill_ms=$(( ref_ms / 2 ))
kill_after=$(printf '%d.%03d' $(( kill_ms / 1000 )) $(( kill_ms % 1000 )))

echo "serve-smoke: reference took ${ref_ms} ms;" \
     "victim run (SIGKILL after ${kill_after}s)..."
"$CLI" serve "${ARGS[@]}" --checkpoint "$OUT/killed/ck.bin" \
  --journal-dir "$OUT/killed/journal" > "$OUT/killed/first-attempt.txt" &
pid=$!
sleep "$kill_after"
kill -9 "$pid" 2>/dev/null || true
# The exit status tells a kill (128 + 9) from a victim that drained
# first, which would leave nothing mid-run to resume.
status=0
wait "$pid" 2>/dev/null || status=$?
if [ "$status" -ne 137 ]; then
  echo "serve-smoke: FAIL: the victim exited with status $status before" \
       "the SIGKILL landed" >&2
  exit 1
fi
echo "serve-smoke: delivered SIGKILL to pid $pid"

if [ ! -f "$OUT/killed/ck.bin" ]; then
  echo "serve-smoke: FAIL: no checkpoint on disk after the kill" >&2
  exit 1
fi

echo "serve-smoke: resuming from the checkpoint..."
"$CLI" serve "${ARGS[@]}" --checkpoint "$OUT/killed/ck.bin" \
  --journal-dir "$OUT/killed/journal" --resume > "$OUT/killed/report.txt"

# 1. Deterministic report lines (outcome, metrics, admission counters,
#    event/checkpoint/cursor progress) must match exactly.  The latency
#    line is wall-clock and excluded by construction.
grep -E '^(outcome|metrics|admission|progress)' "$OUT/ref/report.txt" \
  > "$OUT/ref/cmp.txt"
grep -E '^(outcome|metrics|admission|progress)' "$OUT/killed/report.txt" \
  > "$OUT/killed/cmp.txt"
if ! diff -u "$OUT/ref/cmp.txt" "$OUT/killed/cmp.txt"; then
  echo "serve-smoke: FAIL: resumed run diverged from the reference" >&2
  exit 1
fi

# 2. The journal segments must be byte-identical.
if ! diff <(cat "$OUT/ref/journal/"*.jsonl) \
          <(cat "$OUT/killed/journal/"*.jsonl) > /dev/null; then
  echo "serve-smoke: FAIL: journal segments diverged" >&2
  exit 1
fi

# 3. So must the final checkpoints.
if ! cmp -s "$OUT/ref/ck.bin" "$OUT/killed/ck.bin"; then
  echo "serve-smoke: FAIL: final checkpoints differ" >&2
  exit 1
fi

echo "serve-smoke: PASS — resumed run is bit-identical to the reference"
