package sim

import (
	"math/rand"
	"runtime"
	"testing"
	"time"
	"unsafe"

	"coreda/internal/testutil"
)

// TestSchedulerAllocBudgets locks the timer-core hot paths to zero
// allocations at steady state with testing.AllocsPerRun: once the free
// list and heap are warm, At/After + Step cycles, Reschedule re-arms and
// Cancel + re-schedule churn must not touch the heap at all. This is the
// allocation contract the fleet's idle-tenant budget is built on; it is
// enforced by the no-race alloc pass in scripts/check.sh.
func TestSchedulerAllocBudgets(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("race instrumentation allocates; alloc budgets are enforced by the no-race pass (scripts/check.sh)")
	}
	s := New()
	fn := func() {}
	// Warm up: grow the heap, the free list and their backing arrays.
	for i := 0; i < 128; i++ {
		s.After(time.Duration(i)*time.Millisecond, fn)
	}
	s.Run()

	if got := testing.AllocsPerRun(1000, func() {
		s.After(time.Millisecond, fn)
		s.Step()
	}); got != 0 {
		t.Errorf("After+Step allocates %.1f/op at steady state, want 0", got)
	}

	if got := testing.AllocsPerRun(1000, func() {
		s.At(s.Now()+time.Millisecond, fn)
		s.Step()
	}); got != 0 {
		t.Errorf("At+Step allocates %.1f/op at steady state, want 0", got)
	}

	pending := s.After(time.Hour, fn)
	if got := testing.AllocsPerRun(1000, func() {
		if !s.Reschedule(pending, s.Now()+time.Hour) {
			t.Fatal("Reschedule of a pending timer failed")
		}
	}); got != 0 {
		t.Errorf("Reschedule allocates %.1f/op, want 0", got)
	}
	pending.Cancel()

	// Cancel-heavy churn: arm-and-disarm (the idle-watchdog pattern) must
	// recycle records through the free list, not allocate fresh ones —
	// including across lazy-deletion collection.
	if got := testing.AllocsPerRun(1000, func() {
		tm := s.After(time.Minute, fn)
		tm.Cancel()
		s.After(time.Millisecond, fn)
		s.Step()
	}); got != 0 {
		t.Errorf("cancel churn allocates %.1f/op at steady state, want 0", got)
	}
}

// TestPendingAllocFreeAndO1 pins the O(1) Pending contract: the count is
// a maintained counter, correct under cancel-heavy churn, double
// cancels, compaction sweeps and collection, and reading it never
// allocates or perturbs the queue.
func TestPendingAllocFreeAndO1(t *testing.T) {
	s := New()
	fired := 0
	var timers []Timer
	const n = 1000
	for i := 0; i < n; i++ {
		timers = append(timers, s.After(time.Duration(i+1)*time.Millisecond, func() { fired++ }))
	}
	if got := s.Pending(); got != n {
		t.Fatalf("Pending = %d, want %d", got, n)
	}
	// Cancel 90% — far past the compaction threshold, so the lazy
	// deletions are swept mid-loop and the counter must survive it.
	for i := 0; i < n*9/10; i++ {
		timers[i].Cancel()
	}
	if got := s.Pending(); got != n/10 {
		t.Fatalf("Pending after cancels = %d, want %d", got, n/10)
	}
	// Double cancels (and cancels through stale handles) must not
	// decrement the counter again.
	for i := 0; i < n/2; i++ {
		timers[i].Cancel()
	}
	if got := s.Pending(); got != n/10 {
		t.Fatalf("Pending after double cancels = %d, want %d", got, n/10)
	}
	if !testutil.RaceEnabled {
		if got := testing.AllocsPerRun(100, func() { _ = s.Pending() }); got != 0 {
			t.Errorf("Pending allocates %.1f/op, want 0", got)
		}
	}
	s.Run()
	if fired != n/10 {
		t.Errorf("fired %d events, want %d (cancelled ones must not fire)", fired, n/10)
	}
	if got := s.Pending(); got != 0 {
		t.Errorf("Pending after Run = %d, want 0", got)
	}
}

// rngSink keeps RNG results on the heap, as every real consumer keeps
// them, so the allocation tests below measure what a caller pays.
var rngSink *rand.Rand

// TestRNGAllocBudget pins what a stream costs: building one is a
// couple of small objects, its first alfgTap draws allocate nothing,
// draw alfgTap+1 builds the generator state as exactly one object, and
// later draws allocate nothing again.
func TestRNGAllocBudget(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("race instrumentation allocates; alloc budgets are enforced by the no-race pass (scripts/check.sh)")
	}
	if size := unsafe.Sizeof(lazySource{}); size > 24 {
		t.Errorf("lazySource is %d B, budget 24 B: every resident stream carries it", size)
	}
	const n = 1000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		rngSink = RNG(int64(i), "planner")
	}
	runtime.ReadMemStats(&after)
	allocs := float64(after.Mallocs-before.Mallocs) / n
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / n
	t.Logf("RNG: %.2f allocs, %.0f B per stream", allocs, bytes)
	if allocs > 3 || bytes >= 128 {
		t.Errorf("RNG costs %.2f allocs and %.0f B per stream, budget 3 allocs and < 128 B", allocs, bytes)
	}

	// drawn builds a stream and draws from it k times; AllocsPerRun
	// reports what the draws add to the build.
	drawn := func(k int) float64 {
		return testing.AllocsPerRun(100, func() {
			rngSink = RNG(1, "planner")
			for i := 0; i < k; i++ {
				rngSink.Uint64()
			}
		})
	}
	build := drawn(0)
	if got := drawn(alfgTap) - build; got != 0 {
		t.Errorf("draws 1-%d allocate %.1f objects, want 0", alfgTap, got)
	}
	if got := drawn(alfgTap+1) - build; got != 1 {
		t.Errorf("draw %d allocates %.1f objects, want 1 (the generator state)", alfgTap+1, got)
	}
	if got := testing.AllocsPerRun(n, func() { rngSink.Int63() }); got != 0 {
		t.Errorf("later draws allocate %.1f/op, want 0", got)
	}

	l := &lazySource{x0: lehmerSeed(1)}
	r := rand.New(l)
	for i := 0; i < alfgTap; i++ {
		r.Int63()
	}
	if l.src != nil {
		t.Fatalf("%d draws built the generator", alfgTap)
	}
	r.Float64()
	src := l.src
	if src == nil {
		t.Fatalf("draw %d did not build the generator", alfgTap+1)
	}
	r.Uint64()
	r.Intn(10)
	if l.src != src {
		t.Error("a later draw rebuilt the generator")
	}
}
