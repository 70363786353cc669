# CoReDA build and evaluation targets.

GO ?= go

.PHONY: all build test race vet vet-json lint check bench experiments golden examples fuzz clean

all: check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# lint = the stock vet plus CoReDA's own invariant analyzers
# (determinism, reward constants, single-threaded discipline, dropped
# errors, map-iteration order, shard affinity, locks held across
# blocking calls, hot-path escapes, ignore-directive hygiene); see
# internal/analysis.
lint: vet
	$(GO) run ./cmd/coreda-vet ./...

# vet-json emits the full suite's diagnostics as vet-report.json for
# editor and CI consumption. The target fails when there are findings;
# the report is written either way.
vet-json:
	$(GO) run ./cmd/coreda-vet -json ./... > vet-report.json

# check is the full local gate, same set scripts/check.sh runs in CI.
check: build test lint race

bench:
	$(GO) test -bench=. -benchmem ./...

# Regenerate every table and figure of the paper (EXPERIMENTS.md).
experiments:
	$(GO) run ./cmd/coreda-bench

# Regenerate the goldens scripts/check.sh diffs against: the
# 1000-household fleet soak, the cluster soak, the idle-advance probe,
# and per-package statement coverage of the race-enabled test run. Only
# for a change meant to alter what households learn or what the tests
# cover; the diff of scripts/golden/ is then part of the change.
golden:
	$(GO) run ./cmd/coreda-bench -households 1000 fleet > scripts/golden/fleet.txt
	$(GO) run ./cmd/coreda-bench -cluster-households 24 -cluster-sessions 4 cluster > scripts/golden/cluster.txt
	$(GO) run ./cmd/coreda-bench -households 10000 -idle-active 100 -idle-ticks 2000 -fleet-shards 1 fleetidle > scripts/golden/fleetidle.txt
	out=$$($(GO) test -race -cover ./...) && echo "$$out" | awk -f scripts/coverage.awk > scripts/golden/coverage.txt

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/teamaking
	$(GO) run ./examples/personalization
	$(GO) run ./examples/newadl
	$(GO) run ./examples/multiroutine
	$(GO) run ./examples/caregiver
	$(GO) run ./examples/baselines

fuzz:
	$(GO) test ./internal/wire -fuzz FuzzDecode -fuzztime 30s

# clean removes the command binaries `go build ./cmd/<name>` leaves at
# the repo root, one per directory under cmd/.
clean:
	$(GO) clean -testcache
	rm -f $(notdir $(wildcard cmd/*)) vet-report.json
