package queue

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"coreda/internal/retry"
)

// TestDrainOrderFIFO pins the determinism contract: dispatch is enqueue
// order, and Done callbacks fire in the same order on the drain caller.
func TestDrainOrderFIFO(t *testing.T) {
	t.Parallel()
	q := New(Config{Workers: 1})
	var ran, done []string
	for i := 0; i < 6; i++ {
		label := fmt.Sprintf("#%d", i)
		q.Enqueue(Job{
			Run:  func() error { ran = append(ran, label); return nil },
			Done: func(error) { done = append(done, label) },
		})
	}
	if err := q.Drain(); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	want := []string{"#0", "#1", "#2", "#3", "#4", "#5"}
	for i, w := range want {
		if ran[i] != w {
			t.Fatalf("run order %v, want %v", ran, want)
		}
		if done[i] != w {
			t.Fatalf("done order %v, want %v", done, want)
		}
	}
	if st := q.Stats(); st.Retried != 0 {
		t.Fatalf("stats %+v", st)
	}
}

// TestDrainOrderStableAcrossWorkerCounts proves dispatch order (observed
// via Done) is identical at any worker count — the digest-parity
// property the fleet relies on.
func TestDrainOrderStableAcrossWorkerCounts(t *testing.T) {
	t.Parallel()
	var orders [][]string
	for _, workers := range []int{1, 4, 8} {
		q := New(Config{Workers: workers})
		var done []string
		for i := 0; i < 64; i++ {
			label := fmt.Sprintf("job-%02d", i)
			q.Enqueue(Job{
				Run:  func() error { return nil },
				Done: func(error) { done = append(done, label) },
			})
		}
		if err := q.Drain(); err != nil {
			t.Fatalf("workers=%d Drain: %v", workers, err)
		}
		orders = append(orders, done)
	}
	for i := 1; i < len(orders); i++ {
		for k := range orders[0] {
			if orders[i][k] != orders[0][k] {
				t.Fatalf("Done order diverges between worker counts: %v vs %v", orders[0], orders[i])
			}
		}
	}
}

// TestRetryInjection: injected faults consume attempts but never the
// last one, so every job still succeeds and only the retry counter
// moves.
func TestRetryInjection(t *testing.T) {
	t.Parallel()
	q := New(Config{
		Workers: 4,
		Retry:   retry.Policy{Attempts: 3, Sleep: func(time.Duration) {}},
		// Ask for more failures than the budget allows: the cap at
		// attempts-1 must keep every job succeeding.
		Inject: func() int { return 5 },
	})
	var ok, failed atomic.Int32
	for i := 0; i < 10; i++ {
		q.Enqueue(Job{
			Run: func() error { ok.Add(1); return nil },
			Done: func(err error) {
				if err != nil {
					failed.Add(1)
				}
			},
		})
	}
	if err := q.Drain(); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if ok.Load() != 10 || failed.Load() != 0 {
		t.Fatalf("injection changed outcomes: ran=%d failed=%d", ok.Load(), failed.Load())
	}
	if st := q.Stats(); st.Retried != 20 {
		t.Fatalf("want 2 injected attempts per job, got %+v", st)
	}
}

// TestRetryRealFailure: a job that always fails exhausts its attempts;
// Drain returns the first failure in dispatch order and Done receives
// each job's own error.
func TestRetryRealFailure(t *testing.T) {
	t.Parallel()
	errA := errors.New("a broke")
	errB := errors.New("b broke")
	q := New(Config{Workers: 2, Retry: retry.Policy{Attempts: 3, Sleep: func(time.Duration) {}}})
	var got []error
	q.Enqueue(Job{Run: func() error { return errA },
		Done: func(err error) { got = append(got, err) }})
	q.Enqueue(Job{Run: func() error { return errB },
		Done: func(err error) { got = append(got, err) }})
	err := q.Drain()
	if !errors.Is(err, errA) {
		t.Fatalf("Drain error = %v, want first dispatch-order failure %v", err, errA)
	}
	if len(got) != 2 || !errors.Is(got[0], errA) || !errors.Is(got[1], errB) {
		t.Fatalf("Done errors = %v", got)
	}
	if st := q.Stats(); st.Retried != 4 {
		t.Fatalf("stats %+v", st)
	}
}

// TestDoneEnqueueLandsInNextDrain: a Done callback may enqueue; the new
// job waits for the next drain rather than extending the current one.
func TestDoneEnqueueLandsInNextDrain(t *testing.T) {
	t.Parallel()
	q := New(Config{})
	ran := 0
	q.Enqueue(Job{Run: func() error { ran++; return nil }, Done: func(error) {
		q.Enqueue(Job{Run: func() error { ran++; return nil }})
	}})
	if err := q.Drain(); err != nil {
		t.Fatal(err)
	}
	if ran != 1 || q.Depth() != 1 {
		t.Fatalf("ran=%d depth=%d, want 1 and 1", ran, q.Depth())
	}
	if err := q.Drain(); err != nil {
		t.Fatal(err)
	}
	if ran != 2 || q.Depth() != 0 {
		t.Fatalf("ran=%d depth=%d, want 2 and 0", ran, q.Depth())
	}
	// An empty drain runs nothing and reports nothing.
	if err := q.Drain(); err != nil || ran != 2 {
		t.Fatalf("empty drain: ran=%d err=%v", ran, err)
	}
}

// TestDepthHighWater: Depth counts the jobs waiting for the next
// drain — its high-water mark is reached just before the drain, which
// empties it.
func TestDepthHighWater(t *testing.T) {
	t.Parallel()
	q := New(Config{})
	for i := 0; i < 7; i++ {
		q.Enqueue(Job{Run: func() error { return nil }})
	}
	if d := q.Depth(); d != 7 {
		t.Fatalf("Depth = %d, want 7", d)
	}
	if err := q.Drain(); err != nil {
		t.Fatal(err)
	}
	if d := q.Depth(); d != 0 {
		t.Fatalf("Depth after drain = %d, want 0", d)
	}
}

// TestConcurrentStatsDuringDrain exercises the counters' locking under
// the race detector: Stats/Depth snapshots race a live drain.
func TestConcurrentStatsDuringDrain(t *testing.T) {
	t.Parallel()
	q := New(Config{Workers: 4, Retry: retry.Policy{Attempts: 2, Sleep: func(time.Duration) {}}, Inject: func() int { return 1 }})
	for i := 0; i < 200; i++ {
		q.Enqueue(Job{Run: func() error { return nil }})
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = q.Stats()
				_ = q.Depth()
			}
		}
	}()
	if err := q.Drain(); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()
	if st := q.Stats(); st.Retried != 200 {
		t.Fatalf("stats %+v", st)
	}
}

// BenchmarkQueueThroughput measures enqueue+drain cost per trivial job
// at the fleet's worker count — the overhead the control plane pays to
// route a checkpoint write through the queue.
func BenchmarkQueueThroughput(b *testing.B) {
	q := New(Config{Workers: 8})
	const batch = 128
	job := Job{Run: func() error { return nil }}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n += batch {
		for i := 0; i < batch; i++ {
			q.Enqueue(job)
		}
		if err := q.Drain(); err != nil {
			b.Fatal(err)
		}
	}
}

// Depth reports how many jobs are waiting for the next drain.
func (q *Queue) Depth() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.pending)
}
