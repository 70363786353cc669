package sim

import (
	"math/rand"
	"testing"
	"time"
)

// BenchmarkSchedulerAt measures the steady-state schedule-and-fire
// cycle: one At through the free list, one Step recycling the record.
// This is the timer core's hot loop — 0 allocs/op once warm (the
// AllocsPerRun gate in alloc_test.go locks it; this reports the time).
func BenchmarkSchedulerAt(b *testing.B) {
	s := New()
	fn := func() {}
	for i := 0; i < 128; i++ {
		s.After(time.Duration(i)*time.Millisecond, fn)
	}
	s.Run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.At(s.Now()+time.Millisecond, fn)
		s.Step()
	}
}

// BenchmarkSchedulerReschedule measures re-arming a pending timer in
// place — the idle-watchdog pattern, and the reason Reschedule exists
// instead of cancel + fresh After.
func BenchmarkSchedulerReschedule(b *testing.B) {
	s := New()
	fn := func() {}
	tm := s.After(time.Hour, fn)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Reschedule(tm, s.Now()+time.Hour)
	}
}

// BenchmarkSchedulerCancelChurn measures the arm-and-disarm cycle under
// lazy deletion: schedule, cancel, schedule, fire — the pattern that
// exercises cancellation collection and the free list together.
func BenchmarkSchedulerCancelChurn(b *testing.B) {
	s := New()
	fn := func() {}
	for i := 0; i < 128; i++ {
		s.After(time.Duration(i)*time.Millisecond, fn)
	}
	s.Run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tm := s.After(time.Minute, fn)
		tm.Cancel()
		s.After(time.Millisecond, fn)
		s.Step()
	}
}

// benchRNG keeps each benchmark's stream reachable, as a household
// keeps its planner's stream.
var benchRNG *rand.Rand

// BenchmarkRNGFirstDraw measures building a stream and drawing once:
// what a household that explores once after admission pays. The draw
// comes from the seed's closed form, so no generator state is built.
func BenchmarkRNGFirstDraw(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchRNG = RNG(int64(i), "planner")
		benchRNG.Int63()
	}
}

// BenchmarkRNGMaterialize measures building a stream and drawing
// alfgTap+1 times: the closed-form draws, then the one that builds the
// 4.9 kB generator state.
func BenchmarkRNGMaterialize(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchRNG = RNG(int64(i), "planner")
		for k := 0; k <= alfgTap; k++ {
			benchRNG.Int63()
		}
	}
}
