#!/usr/bin/env bash
# Single CI entrypoint: formatting gate, stock vet, CoReDA's own static
# analyzers, then the full test suite under the race detector. Mirrors
# `make check` (plus the gofmt gate, which make leaves to editors).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== gofmt"
unformatted=$(gofmt -l .)
if [[ -n "$unformatted" ]]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet"
go vet ./...

# hotalloc is excluded here and run in the no-race phase below: it
# shells out to `go build -gcflags=-m=2`, and escape analysis must be
# judged on the same build mode the alloc budgets run under.
echo "== coreda-vet"
go run ./cmd/coreda-vet -skip hotalloc ./...

echo "== go build"
go build ./...

echo "== go test -race"
go test -race ./...

# The zero-allocation budgets on the serving path skip themselves under
# the race detector (its instrumentation allocates), so they are
# enforced by an explicit no-race pass over the serving packages:
# the wire codec, the timer core and lazily seeded random streams, the
# shard ingest + clock-pump loops, the live heap and the allocations of
# an admitted household (activity comparison and validation included),
# the node client's report path, and the CKPT checkpoint codec. The
# hotalloc analyzer rides in the same phase — it names the escaping
# expression when a //coreda:hotpath function regresses, which an
# AllocsPerRun count never does.
echo "== alloc budgets (no race)"
go test -run 'Alloc' ./internal/adl/ ./internal/wire/ ./internal/sim/ ./internal/fleet/ ./internal/rtbridge/ ./internal/store/
go run ./cmd/coreda-vet -only hotalloc ./...

# Advance parity gate: the due-time tenant index must be observationally
# equivalent to an exhaustive per-tick sweep — the test-only reference
# in internal/fleet/advance_test.go: identical digests at 1/4/8 shards
# (TestAdvanceParity) and identical late-event clamping via the lazy
# tick floor (TestLateEventAfterTickParity). The differential test pins
# the scheduler itself against a naive reference implementation.
echo "== advance parity (indexed vs sweep reference, race-enabled)"
go test -race -count 1 -run 'TestAdvanceParity|TestLateEventAfterTickParity|TestDueHeap' ./internal/fleet/
go test -race -count 1 -run 'TestSchedulerMatchesNaiveReference' ./internal/sim/

# The soak gates below run one race-enabled coreda-bench, built once into
# a private temp dir that also holds every soak's output, so concurrent
# check runs cannot clobber each other's files and a failing diff leaves
# nothing behind.
echo "== build coreda-bench (race-enabled)"
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
bench="$tmp/coreda-bench"
go build -race -o "$bench" ./cmd/coreda-bench

echo "== chaos soak (workers 1 vs 4 must match)"
"$bench" -workers 1 chaos > "$tmp/chaos-w1.txt"
"$bench" -workers 4 chaos > "$tmp/chaos-w4.txt"
diff "$tmp/chaos-w1.txt" "$tmp/chaos-w4.txt"

# Golden gates: each soak's stdout (stats + policy digest) must be
# byte-identical to a golden committed under scripts/golden/. Diffing
# against committed output, not a sibling run, also catches a change
# that shifts every digest the same way. Stdout deliberately omits the
# shard count and the job-failure rate, so the 1000-household fleet soak
# is held to one golden whether its tenants share one shard event loop
# or are spread across eight, and with a fifth of its control-queue jobs
# failing injected attempts (the retry budget must absorb them). A
# change meant to alter what households learn regenerates the goldens
# with `make golden` and says why.
golden=scripts/golden
echo "== fleet soak (shards 1/4/8 and jobfail 0.2 vs golden, race-enabled)"
for n in 1 4 8; do
    "$bench" -households 1000 -fleet-shards "$n" fleet > "$tmp/fleet-s$n.txt"
    diff "$golden/fleet.txt" "$tmp/fleet-s$n.txt"
done
"$bench" -households 1000 -fleet-jobfail 0.2 fleet > "$tmp/fleet-jobfail.txt"
diff "$golden/fleet.txt" "$tmp/fleet-jobfail.txt"

echo "== fleet idle advance (10k households vs golden, race-enabled)"
"$bench" -households 10000 -idle-active 100 -idle-ticks 2000 -fleet-shards 1 fleetidle > "$tmp/fleetidle.txt"
diff "$golden/fleetidle.txt" "$tmp/fleetidle.txt"

# Cluster kill-recovery gate: the same soak split across 3 worker
# processes — one of which is SIGKILLed mid-run, after applying a round
# locally but before its replication barrier — must still produce a
# policy digest byte-identical to the fault-free single-process run.
# Survivors adopt the victim's households from their replica blobs and
# the driver replays the killed round. The bench "cluster" mode then
# re-checks fault-free digest parity at 1, 2 and 3 processes, exits
# non-zero on any divergence, and its stdout must match the golden.
echo "== cluster soak (3 procs, SIGKILL one peer, digest parity vs golden, race-enabled)"
go test -race -count 1 -run 'TestClusterSoakMatchesSingleProcess|TestClusterSoakSurvivesSigkill' ./internal/cluster/
"$bench" -cluster-households 24 -cluster-sessions 4 cluster > "$tmp/cluster.txt"
diff "$golden/cluster.txt" "$tmp/cluster.txt"

echo "ok"
