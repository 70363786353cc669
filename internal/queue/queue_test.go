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

// TestDrainOrderPriorityFIFO pins the determinism contract: dispatch is
// stable priority order with FIFO tie-break, and Done callbacks fire in
// the same order on the drain caller.
func TestDrainOrderPriorityFIFO(t *testing.T) {
	t.Parallel()
	q := New(Config{Workers: 1})
	var ran, done []string
	for i, pri := range []int{1, 0, 1, 0, 2, 0} {
		i, pri := i, pri
		label := fmt.Sprintf("p%d-#%d", pri, i)
		q.Enqueue(Job{
			Priority: pri,
			Label:    label,
			Run:      func() error { ran = append(ran, label); return nil },
			Done:     func(error) { done = append(done, label) },
		})
	}
	if err := q.Drain(); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	want := []string{"p0-#1", "p0-#3", "p0-#5", "p1-#0", "p1-#2", "p2-#4"}
	for i, w := range want {
		if ran[i] != w {
			t.Fatalf("run order %v, want %v", ran, want)
		}
		if done[i] != w {
			t.Fatalf("done order %v, want %v", done, want)
		}
	}
	st := q.Stats()
	if st.Enqueued != 6 || st.Completed != 6 || st.Failed != 0 || st.Drains != 1 {
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
				Priority: i % 3,
				Label:    label,
				Run:      func() error { return nil },
				Done:     func(error) { done = append(done, label) },
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

// TestPermitExhaustion floods one class past its permit: the drain must
// complete (no deadlock) while the class's in-flight count never
// exceeds the permit, and other classes keep flowing.
func TestPermitExhaustion(t *testing.T) {
	t.Parallel()
	q := New(Config{
		Workers: 8,
		Permits: map[Class]int{"narrow": 2},
	})
	var inflight, peak atomic.Int32
	for i := 0; i < 24; i++ {
		class := Class("narrow")
		if i%3 == 0 {
			class = "wide"
		}
		cl := class
		q.Enqueue(Job{Class: cl, Run: func() error {
			if cl == "narrow" {
				n := inflight.Add(1)
				for {
					p := peak.Load()
					if n <= p || peak.CompareAndSwap(p, n) {
						break
					}
				}
				time.Sleep(time.Millisecond)
				inflight.Add(-1)
			}
			return nil
		}})
	}
	doneCh := make(chan error, 1)
	go func() { doneCh <- q.Drain() }()
	select {
	case err := <-doneCh:
		if err != nil {
			t.Fatalf("Drain: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Drain deadlocked under permit exhaustion")
	}
	if p := peak.Load(); p > 2 {
		t.Fatalf("narrow class ran %d-wide, permit is 2", p)
	}
	if st := q.Stats(); st.Completed != 24 {
		t.Fatalf("stats %+v", st)
	}
}

// TestRetryInjection: injected faults consume attempts but never the
// last one, so every job still succeeds and only the retry counters
// move.
func TestRetryInjection(t *testing.T) {
	t.Parallel()
	q := New(Config{
		Workers: 4,
		Retry:   retry.Policy{Attempts: 3, Sleep: func(time.Duration) {}},
		// Ask for more failures than the budget allows: the cap at
		// attempts-1 must keep every job succeeding.
		Inject: func(Class, string) int { return 5 },
	})
	var ok atomic.Int32
	for i := 0; i < 10; i++ {
		q.Enqueue(Job{Run: func() error { ok.Add(1); return nil }})
	}
	if err := q.Drain(); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	st := q.Stats()
	if ok.Load() != 10 || st.Completed != 10 || st.Failed != 0 {
		t.Fatalf("injection changed outcomes: ran=%d stats=%+v", ok.Load(), st)
	}
	if st.Injected != 20 || st.Retried != 20 {
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
	// b enqueued first but a has the better priority: dispatch order is
	// a then b, so Drain must report errA.
	q.Enqueue(Job{Priority: 1, Label: "b", Run: func() error { return errB },
		Done: func(err error) { got = append(got, err) }})
	q.Enqueue(Job{Priority: 0, Label: "a", Run: func() error { return errA },
		Done: func(err error) { got = append(got, err) }})
	err := q.Drain()
	if !errors.Is(err, errA) {
		t.Fatalf("Drain error = %v, want first dispatch-order failure %v", err, errA)
	}
	if len(got) != 2 || !errors.Is(got[0], errA) || !errors.Is(got[1], errB) {
		t.Fatalf("Done errors = %v", got)
	}
	st := q.Stats()
	if st.Failed != 2 || st.Completed != 0 || st.Retried != 4 {
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
}

// TestDrainLatencyClock: latency accounting uses only the injected
// clock.
func TestDrainLatencyClock(t *testing.T) {
	t.Parallel()
	var now time.Duration
	q := New(Config{Clock: func() time.Duration {
		now += 5 * time.Millisecond
		return now
	}})
	q.Enqueue(Job{Run: func() error { return nil }})
	if err := q.Drain(); err != nil {
		t.Fatal(err)
	}
	st := q.Stats()
	if st.DrainTime != 5*time.Millisecond || st.Drains != 1 {
		t.Fatalf("stats %+v", st)
	}
	// An empty drain is free and uncounted.
	if err := q.Drain(); err != nil {
		t.Fatal(err)
	}
	if st := q.Stats(); st.Drains != 1 {
		t.Fatalf("empty drain counted: %+v", st)
	}
}

// TestDepthHighWater tracks queue depth and its high-water mark.
func TestDepthHighWater(t *testing.T) {
	t.Parallel()
	q := New(Config{})
	for i := 0; i < 7; i++ {
		q.Enqueue(Job{Run: func() error { return nil }})
	}
	if d := q.Depth(); d != 7 {
		t.Fatalf("Depth = %d", d)
	}
	if err := q.Drain(); err != nil {
		t.Fatal(err)
	}
	st := q.Stats()
	if st.Depth != 0 || st.MaxDepth != 7 {
		t.Fatalf("stats %+v", st)
	}
}

// TestConcurrentStatsDuringDrain exercises the counters' locking under
// the race detector: Stats/Depth snapshots race a live drain.
func TestConcurrentStatsDuringDrain(t *testing.T) {
	t.Parallel()
	q := New(Config{Workers: 4})
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
	if st := q.Stats(); st.Completed != 200 {
		t.Fatalf("stats %+v", st)
	}
}

// BenchmarkQueueThroughput measures enqueue+drain cost per trivial job
// at the fleet's worker count — the overhead the control plane pays to
// route a checkpoint write through the queue.
func BenchmarkQueueThroughput(b *testing.B) {
	q := New(Config{Workers: 8})
	const batch = 128
	job := Job{Class: "bench", Run: func() error { return nil }}
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
