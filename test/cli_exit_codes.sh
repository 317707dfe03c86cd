#!/usr/bin/env bash
# Exit-code contract of gripps_cli (see the table at the bottom of
# bin/gripps_cli.ml):
#   0 success; 1 verification mismatch; 2 usage/configuration error;
#   3 data or guardrail error (malformed stream, corrupt checkpoint,
#     solver budget exhausted).
# Run by the dune runtest alias with the CLI binary as $1.
set -u

CLI="$1"
TMP="$(mktemp -d "${TMPDIR:-/tmp}/gripps_cli_exit.XXXXXX")"
trap 'rm -rf "$TMP"' EXIT

fails=0

expect() {
  local want="$1"; shift
  local desc="$1"; shift
  "$@" >/dev/null 2>&1
  local got=$?
  if [ "$got" -ne "$want" ]; then
    echo "FAIL: $desc: expected exit $want, got $got ($*)" >&2
    fails=$((fails + 1))
  else
    echo "ok: $desc (exit $got)"
  fi
}

# Positive controls.
expect 0 "optimal on a tiny instance" \
  "$CLI" optimal --seed 1 --sites 2 --databases 2 --horizon 5
expect 0 "serve drains a small poisson stream" \
  "$CLI" serve --seed 1 --n-jobs 20 --rate 4 --max-live 4 --queue-cap 2

expect 0 "federate a tiny instance over 2 shards" \
  "$CLI" federate --shards 2 --sites 4 --databases 2 --horizon 20 --seed 3

expect 0 "lp stretch table on a tiny sweep" \
  "$CLI" table lp --seed 1 --instances 1 --horizon 4

# Guardrail: a starved solver budget exits 3.
expect 3 "optimal with an exhausted budget" \
  "$CLI" optimal --seed 1 --sites 2 --databases 2 --horizon 5 --budget-iters 1

# Guardrail: an over-tight simulation guard leaves jobs pending, which
# surfaces as Metrics.Incomplete rather than a bogus table.
expect 3 "table with an over-tight abort guard" \
  "$CLI" table 1 --instances 1 --guard 0.001

# Usage/configuration errors exit 2.
expect 2 "negative workload density" "$CLI" run --density=-1
expect 2 "unknown trace scenario" "$CLI" trace no-such-scenario
expect 2 "unknown serve rule" "$CLI" serve --scheduler BOGUS
expect 2 "unknown federate routing policy" "$CLI" federate --route bogus
expect 2 "zero federate shards" \
  "$CLI" federate --shards 0 --sites 2 --databases 2 --horizon 5
expect 2 "unknown federate local scheduler" "$CLI" federate --scheduler BOGUS
expect 2 "serve on a missing source file" \
  "$CLI" serve --source "$TMP/absent.jobs"
expect 2 "resume without a checkpoint" "$CLI" serve --resume
expect 2 "scale with a rule outside the panel" \
  "$CLI" scale -n 100 --schedulers BOGUS

# Parameters no run could finish on (a NaN or infinite rate, window or
# density, an unbounded fault window, fewer than one job) are refused
# up front: exit 2 with "invalid argument" on stderr.  The exit code
# alone is not enough, because an uncaught Out_of_memory also exits 2;
# the memory and time limits turn a regression into a failed check.
refused() {
  local desc="$1"; shift
  ( ulimit -d 2000000; timeout 20 "$@" ) >/dev/null 2>"$TMP/refused.err"
  local got=$?
  if [ "$got" -ne 2 ] || ! grep -q 'invalid argument' "$TMP/refused.err"; then
    echo "FAIL: $desc: expected exit 2 and 'invalid argument', got $got ($*)" >&2
    fails=$((fails + 1))
  else
    echo "ok: $desc (refused)"
  fi
}
refused "scale at n = 0" "$CLI" scale -n 0 --schedulers SPT
refused "scale at a negative n" "$CLI" scale -n 100,-5
refused "run over a NaN horizon" "$CLI" run --horizon nan
refused "run over an infinite horizon" "$CLI" run --horizon inf
refused "run at a NaN density" "$CLI" run --density nan
refused "run at an infinite density" "$CLI" run --density inf
refused "run at a NaN availability" "$CLI" run --availability nan
refused "serve at a NaN rate" "$CLI" serve --rate nan
refused "serve with a NaN mtbf" "$CLI" serve --mtbf nan
refused "serve with faults over an unbounded window (rate 0)" \
  "$CLI" serve --rate 0 --mtbf 10
refused "serve with faults up to an infinite horizon" \
  "$CLI" serve --horizon inf --mtbf 10
# Finite parameters that expect astronomically many draws: failures
# (machines x window / mtbf) or jobs (the window's expected arrivals).
refused "serve expecting too many failures" \
  "$CLI" serve --n-jobs 10 --mtbf 1e-300 --mttr 1e-300
refused "faults expecting too many failures" \
  "$CLI" faults --mtbf 1e-6 --mttr 1e-6 --instances 1 --horizon 5
refused "run expecting too many jobs" "$CLI" run --density 1e12

# Malformed data exits 3.
printf '0.0 10.0 0\nbogus line\n' > "$TMP/bad.jobs"
expect 3 "malformed source stream" "$CLI" serve --source "$TMP/bad.jobs"
# A job of infinite size is refused as it is read, like size 0 (a
# checkpoint holding one could not be resumed).
printf '0.0 10.0 0\n0.5 inf 0\n' > "$TMP/inf.jobs"
expect 3 "a job of infinite size" "$CLI" serve --source "$TMP/inf.jobs"

# A corrupt checkpoint exits 3.
"$CLI" serve --seed 1 --n-jobs 40 --rate 4 --max-live 4 --queue-cap 2 \
  --checkpoint "$TMP/ck.bin" --checkpoint-every 3 --stop-after-events 10 \
  >/dev/null 2>&1
printf 'garbage' >> "$TMP/ck.bin"
expect 3 "resume from a corrupt checkpoint" \
  "$CLI" serve --seed 1 --n-jobs 40 --rate 4 --max-live 4 --queue-cap 2 \
  --checkpoint "$TMP/ck.bin" --checkpoint-every 3 --resume

# A resealed checkpoint (valid length and checksum) whose free-slot
# stack lists one slot twice exits 3 at restore, before any event runs.
fnv64() {  # FNV-1a 64 of a file, printed like Fsio.fnv64
  local h=$((0xcbf29ce484222325)) b
  for b in $(od -An -v -tu1 "$1"); do
    h=$(( (h ^ b) * 0x100000001b3 ))  # bash arithmetic wraps mod 2^64
  done
  printf '%016x' "$h"
}
reseal() {  # reseal CHECKPOINT SED-SCRIPT: edit the payload, redo the seal
  local magic version fp
  tail -n +2 "$1" | sed "$2" > "$TMP/payload"
  read -r magic version fp _ < "$1"
  { printf '%s %s %s %d %s\n' "$magic" "$version" "$fp" \
      "$(wc -c < "$TMP/payload")" "$(fnv64 "$TMP/payload")"
    cat "$TMP/payload"; } > "$1"
}
rm -f "$TMP/ck.bin"
"$CLI" serve --seed 1 --n-jobs 40 --rate 1 --max-live 4 --queue-cap 2 \
  --checkpoint "$TMP/ck.bin" --checkpoint-every 1 --stop-after-events 2 \
  >/dev/null 2>&1
reseal "$TMP/ck.bin" 's/^free 3 3 2 1$/free 3 3 2 2/'
expect 3 "resume from a resealed checkpoint listing a free slot twice" \
  "$CLI" serve --seed 1 --n-jobs 40 --rate 1 --max-live 4 --queue-cap 2 \
  --checkpoint "$TMP/ck.bin" --checkpoint-every 1 --resume

# Resealed fields outside their domain exit 3 too: a fault edge on a
# machine the platform lacks, a source cursor before the stream's start
# or past its 40 jobs, and a live job of size 0.  --mtbf puts fault
# edges in the checkpoint.
faulted=(serve --seed 1 --n-jobs 40 --rate 1 --max-live 4 --queue-cap 2
  --mtbf 5 --checkpoint "$TMP/ck.bin" --checkpoint-every 1)
for edit in 's/^\(fault [^ ]*\) [0-9]* /\1 7 /:a fault edge on machine 7' \
  's/^source [0-9]* /source -1 /:source cursor -1' \
  's/^source [0-9]* /source 99 /:source cursor 99 of 40' \
  's/^\(slot [^ ]* [^ ]* [^ ]*\) [^ ]* /\1 0 /:a slot of size 0'; do
  rm -f "$TMP/ck.bin"
  "$CLI" "${faulted[@]}" --stop-after-events 2 >/dev/null 2>&1
  reseal "$TMP/ck.bin" "${edit%%:*}"
  expect 3 "resume from a resealed checkpoint with ${edit#*:}" \
    "$CLI" "${faulted[@]}" --resume
done

# A job naming an unknown databank fails the run even when the daemon
# would drop it (one slot and one queue cell, both taken).
printf '0.0 100.0 0\n0.0 1.0 0\n0.0 1.0 99\n' > "$TMP/baddb.jobs"
expect 3 "a dropped job naming an unknown databank" \
  "$CLI" serve --source "$TMP/baddb.jobs" --max-live 1 --queue-cap 1 \
  --sites 2 --databases 2

# The kill-and-resume flow itself succeeds end to end.
rm -f "$TMP/ck.bin"
"$CLI" serve --seed 1 --n-jobs 40 --rate 4 --max-live 4 --queue-cap 2 \
  --checkpoint "$TMP/ck.bin" --checkpoint-every 3 --stop-after-events 10 \
  >/dev/null 2>&1
expect 0 "resume a killed run to drain" \
  "$CLI" serve --seed 1 --n-jobs 40 --rate 4 --max-live 4 --queue-cap 2 \
  --checkpoint "$TMP/ck.bin" --checkpoint-every 3 --resume

if [ "$fails" -ne 0 ]; then
  echo "$fails exit-code check(s) failed" >&2
  exit 1
fi
echo "all exit-code checks passed"
