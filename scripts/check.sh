#!/usr/bin/env bash
# Single CI entrypoint: formatting gate, stock vet, CoReDA's own static
# analyzers, then the full test suite under the race detector. Mirrors
# `make check` (plus the gofmt gate, which make leaves to editors).
set -euo pipefail
cd "$(dirname "$0")/.."

# One private temp dir holds every gate's output (test logs, the
# race-enabled coreda-bench and its soak outputs), so concurrent check
# runs cannot clobber each other's files and nothing is left behind.
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
golden=scripts/golden

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

# The race run also measures per-package statement coverage, gated
# against the committed golden: deleting code must never delete
# coverage. A package may not fall more than 0.5 points below its
# golden figure, nor vanish from the report; a change that means to
# move coverage regenerates the golden with `make golden` and says why.
echo "== go test -race -cover (coverage vs golden)"
go test -race -cover ./... | tee "$tmp/test.txt"
awk -f scripts/coverage.awk "$tmp/test.txt" > "$tmp/coverage.txt"
# Figures are printed to one decimal, so they are compared in tenths.
awk 'NR == FNR { want[$1] = $2; next } { got[$1] = $2 }
END {
	bad = 0
	for (p in want) {
		if (!(p in got)) {
			printf "coverage: %s missing (golden %.1f%%)\n", p, want[p]; bad = 1
		} else if (int(want[p] * 10 + 0.5) - int(got[p] * 10 + 0.5) > 5) {
			printf "coverage: %s fell from %.1f%% to %.1f%%\n", p, want[p], got[p]; bad = 1
		}
	}
	exit bad
}' "$golden/coverage.txt" "$tmp/coverage.txt"

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
# the private temp dir.
echo "== build coreda-bench (race-enabled)"
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
