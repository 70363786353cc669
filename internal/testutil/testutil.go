// Package testutil holds small helpers shared by the repo's tests.
//
// RaceEnabled (set by build tag) lets allocation-count tests skip under
// the race detector: its instrumentation adds bookkeeping allocations
// that testing.AllocsPerRun would misattribute to the code under test.
// scripts/check.sh therefore runs the test suite both with -race (for
// the data-race coverage) and without (so the alloc budgets are actually
// enforced).
//
//coreda:vet-ignore testonly a test harness by design: only _test.go files import it
package testutil
