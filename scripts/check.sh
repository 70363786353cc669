#!/usr/bin/env bash
# Single CI entrypoint and the one definition of the full gate (`make
# check` runs this script): formatting gate, stock vet, CoReDA's own
# static analyzers, the build, the perfbench module, the full test suite
# under the race detector with its coverage gate, the no-race alloc
# budgets, the parity gates and the soak goldens.
set -euo pipefail
cd "$(dirname "$0")/.."

# One private temp dir holds every gate's output (test logs, the
# race-enabled coreda-bench and its soak outputs), so concurrent check
# runs cannot clobber each other's files and nothing is left behind.
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
golden=scripts/golden

# run_named PKG TEST...: runs the named tests of PKG (and their
# subtests) race-enabled, failing first when `go test -list` no longer
# finds one of them: a renamed test would otherwise leave its gate
# passing as "no tests to run".
run_named() {
    local pkg=$1 name listed
    shift
    listed=$(go test -list . "$pkg")
    for name in "$@"; do
        if ! grep -qx "$name" <<<"$listed"; then
            echo "check.sh: $pkg has no test $name" >&2
            exit 1
        fi
    done
    local IFS='|'
    go test -race -count 1 -run "^($*)\$" "$pkg"
}

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

# The benchmark is a module of its own (perfbench/go.mod), so ./...
# above does not reach it: build, vet and test it against this tree's
# internal packages, so an API change that breaks it fails here rather
# than when the benchmark next runs.
echo "== perfbench module (build, vet, test)"
go build -C perfbench -o "$tmp/" ./...
go vet -C perfbench ./...
go test -C perfbench ./...

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
# the node client's report path, the CKPT checkpoint codec, the
# Q-table and eligibility traces the planner learns through, and a
# supervised node's frame. The hotalloc analyzer rides in the same
# phase — it names the escaping expression when a //coreda:hotpath
# function regresses, which an AllocsPerRun count never does.
echo "== alloc budgets (no race)"
go test -run 'Alloc' ./internal/adl/ ./internal/wire/ ./internal/sim/ ./internal/fleet/ ./internal/rtbridge/ ./internal/store/ ./internal/rl/ ./internal/sensornet/
go run ./cmd/coreda-vet -only hotalloc ./...

# Advance parity gate: the due-time tenant index must be observationally
# equivalent to an exhaustive per-tick sweep — the test-only reference
# in internal/fleet/advance_test.go: identical digests at 1/4/8 shards
# (TestAdvanceParity) and identical late-event clamping via the lazy
# tick floor (TestLateEventAfterTickParity). The differential test pins
# the scheduler itself against a naive reference implementation.
echo "== advance parity (indexed vs sweep reference, race-enabled)"
run_named ./internal/fleet/ TestAdvanceParity TestLateEventAfterTickParity TestDueHeap
run_named ./internal/sim/ TestSchedulerMatchesNaiveReference

# The soak gates below run one race-enabled coreda-bench, built once into
# the private temp dir.
echo "== build coreda-bench (race-enabled)"
bench="$tmp/coreda-bench"
go build -race -o "$bench" ./cmd/coreda-bench

# Both worker counts are held to the committed golden, not only to each
# other, so a change that shifts every offline/online count alike fails.
echo "== chaos soak (workers 1 and 4 vs golden, race-enabled)"
for w in 1 4; do
    "$bench" -workers "$w" chaos > "$tmp/chaos-w$w.txt"
    diff "$golden/chaos.txt" "$tmp/chaos-w$w.txt"
done

# Golden gates: each soak's stdout (stats + policy digest) must be
# byte-identical to a golden committed under scripts/golden/. Diffing
# against committed output, not a sibling run, also catches a change
# that shifts every digest the same way. Stdout deliberately omits the
# shard count and the job-failure rate, so the 1000-household fleet soak
# is held to one golden whether its tenants share one shard event loop
# or are spread across eight, and with a fifth of its checkpoint writes
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
# TestClusterReplicateAndAdopt pins adoption itself: survivors restore
# an adopted household's learning from its replica blob on its next
# event, with no call into the fleet.
echo "== cluster soak (3 procs, SIGKILL one peer, digest parity vs golden, race-enabled)"
run_named ./internal/cluster/ TestClusterSoakMatchesSingleProcess TestClusterSoakSurvivesSigkill TestClusterReplicateAndAdopt
"$bench" -cluster-households 24 -cluster-sessions 4 cluster > "$tmp/cluster.txt"
diff "$golden/cluster.txt" "$tmp/cluster.txt"

echo "ok"
