#!/usr/bin/env bash
# Benchmark snapshots, one BENCH_<section>.json per section:
#
#   experiments  the parallel-runner benchmark (workers=1 vs 4), the
#                planner/learner micro-benchmarks, the timer core and the
#                random streams, with the host CPU budget that bounds any
#                parallel speedup
#   wire         the wire codec's serving fast paths
#   store        the CKPT checkpoint codec
#   notify       the control-plane bus
#   fleet        the multi-tenant runtime across a GOMAXPROCS x shards
#                matrix, the idle clock pump and admission
#   cluster      the soak across 1, 2 and 3 cooperating processes
#
# Usage: scripts/bench.sh [section...]
# With no section named, all six run, in the order above. Naming
# sections re-records only those snapshots, so each one's rows come from
# the change that last touched its layer.
set -euo pipefail
cd "$(dirname "$0")/.."

sections=(experiments wire store notify fleet cluster)
if [[ $# -eq 0 ]]; then
    set -- "${sections[@]}"
fi
for want in "$@"; do
    if [[ " ${sections[*]} " != *" $want "* ]]; then
        echo "bench.sh: unknown section \"$want\" (want: ${sections[*]})" >&2
        exit 2
    fi
done

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

bench_experiments() {
    out=BENCH_experiments.json
    pattern='BenchmarkAblationsParallel|BenchmarkQLambdaObserve|BenchmarkPlannerTrainEpisode|BenchmarkPlannerPredict'

    raw=$(go test -run '^$' -bench "$pattern" -benchmem -count 1 .)
    echo "$raw"

    # Timer core: the virtual clock's schedule/fire/re-arm/cancel cycles.
    # Every row must stay at 0 allocs/op (TestSchedulerAllocBudgets in the
    # no-race pass of scripts/check.sh locks the budgets; this records the
    # time). Random streams: building one and drawing once (closed form, 2
    # allocs) and building one and drawing 274 times (the last draw builds
    # the generator state, 1 more alloc); TestRNGAllocBudget locks the
    # counts.
    simraw=$(go test -run '^$' -bench 'BenchmarkSchedulerAt|BenchmarkSchedulerReschedule|BenchmarkSchedulerCancelChurn|BenchmarkRNGFirstDraw|BenchmarkRNGMaterialize' -benchmem -count 1 ./internal/sim/)
    echo "$simraw"
    raw+=$'\n'"$simraw"

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
}

bench_wire() {
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
}

bench_store() {
    # Checkpoint codec: the CKPT encode/decode fast paths. Both rows must
    # stay at 0 allocs/op (enforced by the store alloc budgets in the
    # no-race pass of scripts/check.sh).
    sout=BENCH_store.json
    spattern='BenchmarkCheckpointEncode|BenchmarkCheckpointDecode'
    sraw=$(go test -run '^$' -bench "$spattern" -benchmem -count 1 ./internal/store/)
    echo "$sraw"

    {
        echo '{'
        echo "  \"go\": \"$(go env GOVERSION)\","
        echo "  \"cpus\": $(getconf _NPROCESSORS_ONLN),"
        echo '  "note": "CKPT checkpoint codec, one fleet-scale tenant blob per op: encode and decode. CKPT is the only checkpoint format. allocs_per_op must stay 0 (TestCheckpointCodecAllocBudget, TestMultiSaverAllocBudget).",'
        echo '  "benchmarks": ['
        echo "$sraw" | bench_rows
        echo '  ]'
        echo '}'
    } > "$sout"

    echo "wrote $sout"
}

bench_notify() {
    # Control plane: the event bus's publish fan-out. It does not sit on
    # the per-event serving path — events are per checkpoint wave — so this
    # bounds how fine-grained control announcements can get before the bus
    # itself shows up in a wave.
    nout=BENCH_notify.json
    nraw=$(go test -run '^$' -bench 'BenchmarkBusPublish' -benchmem -count 1 ./internal/notify/)
    echo "$nraw"

    {
        echo '{'
        echo "  \"go\": \"$(go env GOVERSION)\","
        echo "  \"cpus\": $(getconf _NPROCESSORS_ONLN),"
        echo '  "note": "Control-plane bus: one event published per op with a single drained listener. Publish never blocks, so a slow listener costs dropped events, never shard-loop throughput.",'
        echo '  "benchmarks": ['
        echo "$nraw" | bench_rows
        echo '  ]'
        echo '}'
    } > "$nout"

    echo "wrote $nout"
}

bench_fleet() {
    # Fleet throughput matrix: 1000 households through the sharded runtime
    # at GOMAXPROCS×shards = 1/2/4/8. Each row records the parallelism it
    # actually ran with (cpus = GOMAXPROCS, which may exceed host_cpus on
    # small hosts — the digest is identical either way, only the wall-clock
    # numbers move). The deterministic soak outcome goes to stdout; the
    # wall-clock numbers land in the JSON rows.
    fout=BENCH_fleet.json
    tmp=$(mktemp -d)
    trap 'rm -rf "$tmp"' EXIT
    rows=()
    for n in 1 2 4 8; do
        row="$tmp/fleet-$n.json"
        GOMAXPROCS=$n go run ./cmd/coreda-bench -households 1000 -fleet-shards "$n" -fleet-json "$row" fleet
        rows+=("$row")
    done

    # Idle-advance row: the clock-pump cost over a 10k-household population
    # with 1% mid-session under the due-time index.
    idle_rows=()
    row="$tmp/fleetidle.json"
    go run ./cmd/coreda-bench -households 10000 -idle-active 100 -idle-ticks 2000 -fleet-shards 1 -fleet-json "$row" fleetidle
    idle_rows+=("$row")

    # The same pump at the shard level (no fleet goroutines), where allocs/op
    # is exact, next to the exhaustive sweep reference the index is tested
    # against (internal/fleet/advance_test.go): BenchmarkAdvanceIdle must
    # report 0 allocs/op, and the gap between the two rows is what the index
    # buys.
    araw=$(go test -run '^$' -bench 'BenchmarkAdvanceIdle' -benchmem -count 1 ./internal/fleet/)
    echo "$araw"

    # Admission: one checkpointed household admitted from a MemBackend and
    # evicted again per op, on an unstarted shard, at GOMAXPROCS=1. B/op
    # counts all one admission allocates, the eviction's checkpoint write
    # included; the live heap an admitted household keeps is gated by
    # TestAdmitHeapAllocBudget in the no-race pass of scripts/check.sh.
    mraw=$(go test -run '^$' -bench 'BenchmarkAdmitFromCheckpoint' -benchmem -count 1 -cpu 1 ./internal/fleet/)
    echo "$mraw"

    {
        echo '{'
        echo "  \"go\": \"$(go env GOVERSION)\","
        echo "  \"host_cpus\": $(getconf _NPROCESSORS_ONLN),"
        echo '  "note": "GOMAXPROCS x shards matrix over the same 1000-household soak. Digest and stats are identical on every row; only elapsed_sec/events_per_sec (and the job_retries bookkeeping) may differ. idle_rows measure the clock pump over a mostly-idle 10k-household population under the due-time tenant index. idle_benchmarks time the same pump at the shard level next to the exhaustive sweep reference of internal/fleet/advance_test.go. admit_benchmarks admit one checkpointed household from a MemBackend and evict it per op, at GOMAXPROCS=1 (go test -cpu 1).",'
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
        echo '  ],'
        echo '  "admit_benchmarks": ['
        echo "$mraw" | bench_rows
        echo '  ]'
        echo '}'
    } > "$fout"

    echo "wrote $fout"
}

bench_cluster() {
    # Cluster throughput: the same soak executed by 1, 2 and 3 cooperating
    # worker processes (checkpoint replication at K=2). Every row's digest
    # is gated against the single-process baseline inside the bench itself;
    # the events_per_sec column is what distribution buys (or costs — the
    # replication barrier is per-round) on this host.
    cout=BENCH_cluster.json
    go run ./cmd/coreda-bench -cluster-households 64 -cluster-sessions 6 -cluster-json "$cout" cluster
    echo "wrote $cout"
}

for section in "$@"; do
    "bench_$section"
done
