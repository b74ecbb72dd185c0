#!/usr/bin/env bash
# End-to-end smoke test of the critter-serve HTTP service, run by CI:
#
#   1. build and boot critter-serve (durable store on) on a kernel-chosen
#      port,
#   2. submit a quick-scale candmc job matching the golden-envelope
#      parameters (seed 42, noise 0.05, eps 0.5+0.125, exhaustive,
#      default policies, cold),
#   3. follow the SSE event stream until the terminal `event: done`,
#   4. fetch the result envelope and diff its grid byte-for-byte against
#      the committed golden grid with cmd/envelopediff,
#   5. check the accumulated profile endpoint serves a decodable profile,
#   6. resubmit the identical body and require a memoized (dedupOf) answer,
#      then assert the observability surface: the job's span trace,
#      /v1/metrics (JSON) naming the counter families, and /metrics
#      (Prometheus text) reporting jobs_completed_total >= 1,
#      memo_hits_total >= 1, and kernels_memoized_total >= 1 (the
#      profilers' decision caches replayed skips during the job),
#   7. shut the server down gracefully (SIGTERM) and require a clean exit,
#   8. RESTART against the same store directory and require the finished
#      job, its envelope (golden-diffed again), and the persisted profile
#      (persistedAt set; every other line as served before the restart) to
#      have survived,
#   9. shut the restarted server down gracefully too.
#
# Usage: scripts/service-smoke.sh  (from the repository root)
set -euo pipefail

workdir=$(mktemp -d)
server_pid=""
cleanup() {
  if [[ -n "$server_pid" ]] && kill -0 "$server_pid" 2>/dev/null; then
    kill -9 "$server_pid" 2>/dev/null || true
  fi
  rm -rf "$workdir"
}
trap cleanup EXIT

# boot_server LOGFILE [extra args...]: start critter-serve and scrape the
# announced base URL into $base.
boot_server() {
  local logfile=$1; shift
  "$workdir/critter-serve" -addr 127.0.0.1:0 -store "$workdir/store" "$@" >"$logfile" 2>&1 &
  server_pid=$!
  base=""
  for _ in $(seq 1 100); do
    base=$(sed -n 's/^critter-serve: listening on \(http:\/\/.*\)$/\1/p' "$logfile" | head -n 1)
    [[ -n "$base" ]] && break
    kill -0 "$server_pid" 2>/dev/null || { echo "server died:"; cat "$logfile"; exit 1; }
    sleep 0.1
  done
  [[ -n "$base" ]] || { echo "server never announced its address:"; cat "$logfile"; exit 1; }
  echo "server at $base"
}

# stop_server LOGFILE: SIGTERM the server and require a clean, logged exit.
stop_server() {
  local logfile=$1
  kill -TERM "$server_pid"
  for _ in $(seq 1 100); do
    kill -0 "$server_pid" 2>/dev/null || break
    sleep 0.1
  done
  if kill -0 "$server_pid" 2>/dev/null; then
    echo "server ignored SIGTERM"; exit 1
  fi
  wait "$server_pid" 2>/dev/null || true
  server_pid=""
  grep -q 'shutting down' "$logfile"
}

echo "=== build"
go build -o "$workdir/critter-serve" ./cmd/critter-serve

echo "=== boot (durable store at $workdir/store)"
boot_server "$workdir/serve.log"

echo "=== catalog"
curl -fsS "$base/v1/workloads" | tee "$workdir/workloads.json" | grep -q '"candmc"'

echo "=== submit (quick-scale candmc, golden parameters)"
curl -fsS -X POST "$base/v1/jobs" -H 'Content-Type: application/json' -d '{
  "workload": "candmc", "scale": "quick",
  "eps": [0.5, 0.125], "seed": 42, "noiseSigma": 0.05,
  "strategy": "exhaustive", "warmStart": false
}' | tee "$workdir/submit.json"
echo
job=$(sed -n 's/.*"id": *"\([^"]*\)".*/\1/p' "$workdir/submit.json" | head -n 1)
[[ -n "$job" ]] || { echo "no job id in submit response"; exit 1; }
echo "submitted $job"

echo "=== follow SSE to completion"
# The stream ends by itself after the terminal event; --max-time bounds a
# hang, and the last event must be `done` (not failed/canceled).
curl -fsSN --max-time 600 "$base/v1/jobs/$job/events" | tee "$workdir/events.sse"
grep -q '^event: sweep$' "$workdir/events.sse"
last_event=$(grep '^event: ' "$workdir/events.sse" | tail -n 1)
[[ "$last_event" == "event: done" ]] || { echo "stream ended with '$last_event', want 'event: done'"; exit 1; }

echo "=== diff the served envelope against the committed golden grid"
curl -fsS "$base/v1/jobs/$job/result" >"$workdir/result.json"
go run ./cmd/envelopediff \
  -golden internal/autotune/testdata/envelope_candmc_exhaustive.golden.json \
  "$workdir/result.json"

echo "=== accumulated profile is served and non-trivial"
curl -fsS "$base/v1/profiles/candmc" >"$workdir/profile.json"
grep -q '"schemaVersion"' "$workdir/profile.json"
grep -q '"kernels"' "$workdir/profile.json"
grep -q '"persistedAt"' "$workdir/profile.json"

echo "=== resubmission of the identical body is memoized"
curl -fsS -X POST "$base/v1/jobs" -H 'Content-Type: application/json' -d '{
  "workload": "candmc", "scale": "quick",
  "eps": [0.5, 0.125], "seed": 42, "noiseSigma": 0.05,
  "strategy": "exhaustive", "warmStart": false
}' | tee "$workdir/submit2.json" | grep -q "\"dedupOf\": *\"$job\""
echo

echo "=== span trace of the finished job"
curl -fsS "$base/v1/jobs/$job/trace" >"$workdir/trace.json"
grep -q '"traceSchemaVersion"' "$workdir/trace.json"
grep -q '"kind": *"sweep"' "$workdir/trace.json"
grep -q '"kind": *"round"' "$workdir/trace.json"

echo "=== metrics: JSON snapshot names the counter families"
curl -fsS "$base/v1/metrics" >"$workdir/metrics.json"
for fam in jobs_completed_total memo_hits_total memo_entry_hits kernels_executed_total kernels_memoized_total; do
  grep -q "\"$fam\"" "$workdir/metrics.json" || { echo "/v1/metrics is missing $fam"; exit 1; }
done

echo "=== metrics: Prometheus text reports the run"
curl -fsS "$base/metrics" >"$workdir/metrics.prom"
grep -q '^# TYPE jobs_completed_total counter$' "$workdir/metrics.prom"
completed=$(awk '$1 == "jobs_completed_total" {print $2}' "$workdir/metrics.prom")
[[ -n "$completed" && "$completed" -ge 1 ]] || { echo "jobs_completed_total = '$completed', want >= 1"; exit 1; }
memo_hits=$(awk '$1 == "memo_hits_total" {print $2}' "$workdir/metrics.prom")
[[ -n "$memo_hits" && "$memo_hits" -ge 1 ]] || { echo "memo_hits_total = '$memo_hits', want >= 1"; exit 1; }
executed=$(awk -F' ' '/^kernels_executed_total{workload="candmc"}/ {print $2}' "$workdir/metrics.prom")
[[ -n "$executed" && "$executed" -ge 1 ]] || { echo "kernels_executed_total = '$executed', want >= 1"; exit 1; }
# The profilers' per-kernel decision caches must have replayed skip decisions
# during the job.
memoized=$(awk -F' ' '/^kernels_memoized_total{workload="candmc"}/ {print $2}' "$workdir/metrics.prom")
[[ -n "$memoized" && "$memoized" -ge 1 ]] || { echo "kernels_memoized_total = '$memoized', want >= 1"; exit 1; }

echo "=== graceful shutdown"
stop_server "$workdir/serve.log"

echo "=== restart against the same store"
boot_server "$workdir/serve2.log"
grep -q 'durable store at' "$workdir/serve2.log"

echo "=== finished job survived the restart"
curl -fsS "$base/v1/jobs/$job" | tee "$workdir/replayed.json" | grep -q '"state": *"done"'

echo "=== replayed envelope still matches the golden grid byte-for-byte"
curl -fsS "$base/v1/jobs/$job/result" >"$workdir/result2.json"
go run ./cmd/envelopediff \
  -golden internal/autotune/testdata/envelope_candmc_exhaustive.golden.json \
  "$workdir/result2.json"

echo "=== persisted profile survived the restart, byte for byte"
curl -fsS "$base/v1/profiles/candmc" >"$workdir/profile2.json"
grep -q '"persistedAt"' "$workdir/profile2.json"
diff <(grep -v '"persistedAt"' "$workdir/profile.json") <(grep -v '"persistedAt"' "$workdir/profile2.json")

echo "=== graceful shutdown (restarted server)"
stop_server "$workdir/serve2.log"

echo "service smoke test passed"
