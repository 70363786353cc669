#!/usr/bin/env bash
# Benchmark snapshot of the experiments layer and the RL hot paths: runs
# the parallel-runner benchmark (workers=1 vs 4) plus the planner/learner
# micro-benchmarks and records the numbers in BENCH_experiments.json,
# together with the host CPU budget that bounds any parallel speedup.
# Also benchmarks the CKPT checkpoint codec against its JSON baseline
# (BENCH_store.json) and soaks the multi-tenant fleet runtime across a
# GOMAXPROCS x shards matrix, recording per-row throughput in
# BENCH_fleet.json.
set -euo pipefail
cd "$(dirname "$0")/.."

# bench_rows turns `go test -bench -benchmem` output on stdin into the
# JSON rows of a BENCH_*.json "benchmarks" array, one object per
# Benchmark line, comma-separated.
bench_rows() {
    awk '
        /^Benchmark/ {
            name = $1; sub(/-[0-9]+$/, "", name)
            nsop = ""; bop = ""; allocs = ""
            for (i = 2; i < NF; i++) {
                if ($(i+1) == "ns/op") nsop = $i
                if ($(i+1) == "B/op") bop = $i
                if ($(i+1) == "allocs/op") allocs = $i
            }
            lines[n++] = sprintf("    {\"name\": \"%s\", \"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s}", name, nsop, bop, allocs)
        }
        END { for (i = 0; i < n; i++) printf "%s%s\n", lines[i], (i < n-1 ? "," : "") }
    '
}

out=BENCH_experiments.json
pattern='BenchmarkAblationsParallel|BenchmarkQLambdaObserve|BenchmarkPlannerTrainEpisode|BenchmarkPlannerPredict'

raw=$(go test -run '^$' -bench "$pattern" -benchmem -count 1 .)
echo "$raw"

# Timer core: the virtual clock's schedule/fire/re-arm/cancel cycles.
# Every row must stay at 0 allocs/op (TestSchedulerAllocBudgets in the
# no-race pass of scripts/check.sh locks the budgets; this records the
# time).
simraw=$(go test -run '^$' -bench 'BenchmarkSchedulerAt|BenchmarkSchedulerReschedule|BenchmarkSchedulerCancelChurn' -benchmem -count 1 ./internal/sim/)
echo "$simraw"
raw="$raw
$simraw"

{
    echo '{'
    echo "  \"go\": \"$(go env GOVERSION)\","
    echo "  \"cpus\": $(getconf _NPROCESSORS_ONLN),"
    echo '  "note": "Parallel speedup is bounded by the cpus figure above: on a single-CPU host workers=4 measures pool overhead rather than speedup. Experiment output is byte-identical at every worker count.",'
    echo '  "benchmarks": ['
    echo "$raw" | bench_rows
    echo '  ]'
    echo '}'
} > "$out"

echo "wrote $out"

# Wire codec: the zero-allocation serving fast paths (append-based
# encode, union decode, pooled writer, resyncing reader).
wout=BENCH_wire.json
wpattern='BenchmarkEncode|BenchmarkDecode|BenchmarkWritePacket|BenchmarkReadPacket'
wraw=$(go test -run '^$' -bench "$wpattern" -benchmem -count 1 ./internal/wire/)
echo "$wraw"

{
    echo '{'
    echo "  \"go\": \"$(go env GOVERSION)\","
    echo "  \"cpus\": $(getconf _NPROCESSORS_ONLN),"
    echo '  "note": "Serving-path codec fast paths. allocs_per_op must stay 0 (enforced by TestServingFastPathsZeroAlloc in the no-race pass of scripts/check.sh).",'
    echo '  "benchmarks": ['
    echo "$wraw" | bench_rows
    echo '  ]'
    echo '}'
} > "$wout"

echo "wrote $wout"

# Checkpoint codec: the binary CKPT encode/decode fast paths next to
# their JSON baselines. The binary rows must stay well ahead of the JSON
# ones and at 0 allocs/op (enforced by the store alloc budgets in the
# no-race pass of scripts/check.sh).
sout=BENCH_store.json
spattern='BenchmarkCheckpointEncode|BenchmarkCheckpointDecode'
sraw=$(go test -run '^$' -bench "$spattern" -benchmem -count 1 ./internal/store/)
echo "$sraw"

{
    echo '{'
    echo "  \"go\": \"$(go env GOVERSION)\","
    echo "  \"cpus\": $(getconf _NPROCESSORS_ONLN),"
    echo '  "note": "CKPT checkpoint codec vs the legacy JSON encoding, one fleet-scale tenant blob per op. The binary rows are the serving default; allocs_per_op must stay 0 on them (TestCheckpointCodecAllocBudget, TestMultiSaverAllocBudget).",'
    echo '  "benchmarks": ['
    echo "$sraw" | bench_rows
    echo '  ]'
    echo '}'
} > "$sout"

echo "wrote $sout"

# Control plane: the work queue's drain throughput (dispatch + permits
# + Done callbacks over a worker pool) and the event bus's publish fan-
# out. Neither sits on the per-event serving path — jobs and events are
# per checkpoint wave — so these bound how fine-grained control work
# can get before the queue itself shows up in a drain.
qout=BENCH_queue.json
qpattern='BenchmarkQueueThroughput|BenchmarkBusPublish'
qraw=$(go test -run '^$' -bench "$qpattern" -benchmem -count 1 ./internal/queue/ ./internal/notify/)
echo "$qraw"

{
    echo '{'
    echo "  \"go\": \"$(go env GOVERSION)\","
    echo "  \"cpus\": $(getconf _NPROCESSORS_ONLN),"
    echo '  "note": "Control-plane fabric: one trivial job enqueued+drained per op at the fleet worker count (queue), and one event published per op with a single drained listener (bus). Dispatch order and digests are identical at every worker count; only wall-clock throughput moves.",'
    echo '  "benchmarks": ['
    echo "$qraw" | bench_rows
    echo '  ]'
    echo '}'
} > "$qout"

echo "wrote $qout"

# Fleet throughput matrix: 1000 households through the sharded runtime
# at GOMAXPROCS×shards = 1/2/4/8. Each row records the parallelism it
# actually ran with (cpus = GOMAXPROCS, which may exceed host_cpus on
# small hosts — the digest is identical either way, only the wall-clock
# numbers move). The deterministic soak outcome goes to stdout; the
# wall-clock numbers land in the JSON rows. A final row re-runs the
# 8-shard soak with the control queue disabled (inline writes): the
# queue row's throughput staying at or above it is the no-regression
# evidence for the control-plane refactor.
fout=BENCH_fleet.json
rows=()
for n in 1 2 4 8; do
    row="/tmp/coreda-bench-fleet-$n.json"
    GOMAXPROCS=$n go run ./cmd/coreda-bench -households 1000 -fleet-shards "$n" -fleet-json "$row" fleet
    rows+=("$row")
done
row="/tmp/coreda-bench-fleet-inline.json"
GOMAXPROCS=8 go run ./cmd/coreda-bench -households 1000 -fleet-shards 8 -fleet-control inline -fleet-json "$row" fleet
rows+=("$row")

# Idle-advance rows: the clock-pump cost over a 10k-household population
# with 1% mid-session, under the due-time index and the pre-index sweep.
# The indexed row's ticks_per_sec must dwarf the sweep row's — that gap
# is the tentpole number (BenchmarkAdvanceIdle measures the same path at
# the shard level with exact allocs/op).
idle_rows=()
for mode in indexed sweep; do
    row="/tmp/coreda-bench-fleetidle-$mode.json"
    go run ./cmd/coreda-bench -households 10000 -idle-active 100 -idle-ticks 2000 -fleet-shards 1 -fleet-advance "$mode" -fleet-json "$row" fleetidle
    idle_rows+=("$row")
done

# The same comparison at the shard level (no fleet goroutines), where
# allocs/op is exact: BenchmarkAdvanceIdle must report 0 allocs/op.
araw=$(go test -run '^$' -bench 'BenchmarkAdvanceIdle' -benchmem -count 1 ./internal/fleet/)
echo "$araw"

{
    echo '{'
    echo "  \"go\": \"$(go env GOVERSION)\","
    echo "  \"host_cpus\": $(getconf _NPROCESSORS_ONLN),"
    echo '  "note": "GOMAXPROCS x shards matrix over the same 1000-household soak, plus an inline-control row at 8 shards. Digest and stats are identical on every row; only elapsed_sec/events_per_sec (and the control/job_retries bookkeeping) may differ. idle_rows measure the clock pump over a mostly-idle 10k-household population: indexed (due-time tenant index) vs sweep (pre-index full walk); their deterministic stdout is identical, only ticks_per_sec differs.",'
    echo '  "rows": ['
    for i in "${!rows[@]}"; do
        sep=","
        [[ $i -eq $((${#rows[@]} - 1)) ]] && sep=""
        sed "\$s/\$/$sep/" "${rows[$i]}"
    done
    echo '  ],'
    echo '  "idle_rows": ['
    for i in "${!idle_rows[@]}"; do
        sep=","
        [[ $i -eq $((${#idle_rows[@]} - 1)) ]] && sep=""
        sed "\$s/\$/$sep/" "${idle_rows[$i]}"
    done
    echo '  ],'
    echo '  "idle_benchmarks": ['
    echo "$araw" | bench_rows
    echo '  ]'
    echo '}'
} > "$fout"
rm -f /tmp/coreda-bench-fleet-{1,2,4,8}.json /tmp/coreda-bench-fleet-inline.json /tmp/coreda-bench-fleetidle-{indexed,sweep}.json

echo "wrote $fout"

# Cluster throughput: the same soak executed by 1, 2 and 3 cooperating
# worker processes (checkpoint replication at K=2). Every row's digest
# is gated against the single-process baseline inside the bench itself;
# the events_per_sec column is what distribution buys (or costs — the
# replication barrier is per-round) on this host.
cout=BENCH_cluster.json
go run ./cmd/coreda-bench -cluster-households 64 -cluster-sessions 6 -cluster-json "$cout" cluster
echo "wrote $cout"
