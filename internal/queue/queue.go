// Package queue is CoReDA's control-plane work queue: the blocking jobs
// the shard event loops used to run inline — eviction writebacks,
// checkpoint waves, replica pushes. A producer enqueues jobs between
// batches and then drains the queue at a control boundary; the drain
// fans the jobs out over a bounded worker pool.
//
// Determinism contract (the property the fleet digest gates rely on):
// dispatch order is enqueue (FIFO) order, and every Done callback runs
// on the *draining* goroutine, in that order, after all jobs finish.
// Concurrency therefore only perturbs the wall-clock interleaving of Run
// bodies, which the producer must keep order-independent (the fleet's
// jobs write distinct files whose bytes are a pure function of tenant
// state; a replication job owns one peer link). Failure handling is
// deterministic too: retries come from internal/retry with a bounded
// attempt budget, and injected faults (chaos soaks) are drawn on the
// enqueueing goroutine so the draw sequence matches the enqueue
// sequence; an injected fault consumes attempts but never the last one,
// so injection can never change a job's outcome — only its retry count.
//
// The package is part of the shard-scoped concurrency surface:
// coreda-vet checks it for shard affinity (the drain's worker dispatch
// is the one sanctioned spawner), lock discipline (Drain itself is a
// registered blocking call — callers must not hold a mutex across a
// drain boundary) and nondeterminism (no wall clock).
package queue

import (
	"errors"
	"math/rand"
	"strconv"
	"sync"

	"coreda/internal/retry"
	"coreda/internal/sim"
)

// InjectFunc is the chaos hook: called once per Enqueue, on the
// enqueueing goroutine, it returns how many of the job's initial
// attempts fail with ErrInjected. The queue caps the result at
// attempts-1, so injection exercises the retry path without ever
// changing a job's outcome. See chaos.Plan.JobInjector.
type InjectFunc func() int

// ErrInjected is the error injected attempts fail with.
var ErrInjected = errors.New("queue: injected fault")

// Job is one unit of control-plane work.
type Job struct {
	// Run does the work, possibly several times (retries). It executes
	// on a worker goroutine and must not touch producer-owned state;
	// everything it needs is captured by value or owned by the job.
	Run func() error
	// Done, if non-nil, receives the job's final error (nil on
	// success). It runs on the goroutine that called Drain, in dispatch
	// order, after every job of the drain finished — the sanctioned
	// place to update producer-owned state (maps, counters, tenants).
	Done func(error)
}

// Config parameterizes a Queue. The zero value is a serial queue: one
// worker, single-attempt jobs.
type Config struct {
	// Workers bounds how many jobs run concurrently during a drain.
	// Zero or negative means 1 (serial, inline on the drain caller).
	Workers int
	// Retry is the per-job retry schedule (internal/retry). The zero
	// policy makes exactly one attempt.
	Retry retry.Policy
	// Seed and Stream name the sim.RNG streams the retry jitter is
	// drawn from (one independent stream per worker:
	// "<Stream>/worker/<i>", Stream defaulting to "queue"). Jitter only
	// shapes backoff sleeps, never outcomes or dispatch order.
	Seed   int64
	Stream string
	// Inject is the chaos hook (nil injects nothing).
	Inject InjectFunc
}

// Stats counts queue activity. Snapshot via Queue.Stats.
type Stats struct {
	// Retried counts extra attempts beyond each job's first (both real
	// failures and injected ones).
	Retried int
}

// job is the internal representation: the Job plus its injection
// budget and outcome.
type job struct {
	Job
	failN    int // initial attempts to fail (injection), already capped
	err      error
	attempts int
}

// Queue is a control-plane work queue. Enqueue and Drain may be called
// from any goroutine, but the intended shape is one producer that owns
// the queue and alternates enqueue phases with drain boundaries (a
// shard loop, a Sync barrier). Create with New.
type Queue struct {
	cfg      Config
	attempts int // normalized retry budget

	mu      sync.Mutex
	pending []*job
	stats   Stats
	rngs    []*rand.Rand // lazily built per-worker jitter streams
}

// New builds a queue; the config is normalized, never rejected.
func New(cfg Config) *Queue {
	if cfg.Workers < 1 {
		cfg.Workers = 1
	}
	if cfg.Stream == "" {
		cfg.Stream = "queue"
	}
	attempts := cfg.Retry.Attempts
	if attempts < 1 {
		attempts = 1
	}
	return &Queue{cfg: cfg, attempts: attempts}
}

// Enqueue accepts one job for the next drain. The injection hook (if
// any) is consulted here, on the caller's goroutine, so the draw
// sequence is the enqueue sequence.
func (q *Queue) Enqueue(j Job) {
	if j.Run == nil {
		return
	}
	failN := 0
	if q.cfg.Inject != nil {
		failN = min(max(q.cfg.Inject(), 0), q.attempts-1)
	}
	q.mu.Lock()
	q.pending = append(q.pending, &job{Job: j, failN: failN})
	q.mu.Unlock()
}

// Stats snapshots the counters.
func (q *Queue) Stats() Stats {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.stats
}

// Drain runs every pending job and returns the first error in dispatch
// order (nil if all succeeded). Jobs are dispatched in enqueue order
// over at most Workers goroutines; when the effective worker count is
// one the jobs run inline on the caller with no goroutines at all. Done
// callbacks then run on the caller, in dispatch order. Drain returns
// when every job and callback has finished — it is a synchronization
// point, and the only place the queue spawns. A job enqueued by a Done
// callback lands in the next drain.
func (q *Queue) Drain() error {
	q.mu.Lock()
	jobs := q.pending
	q.pending = nil
	q.mu.Unlock()
	if len(jobs) == 0 {
		return nil
	}

	workers := min(q.cfg.Workers, len(jobs))
	if workers <= 1 {
		rng := q.workerRNG(0)
		for _, j := range jobs {
			q.runJob(j, rng)
		}
	} else {
		q.dispatch(jobs, workers)
	}

	retried := 0
	for _, j := range jobs {
		retried += j.attempts - 1
	}
	q.mu.Lock()
	q.stats.Retried += retried
	q.mu.Unlock()

	var first error
	for _, j := range jobs {
		if first == nil && j.err != nil {
			first = j.err
		}
		if j.Done != nil {
			j.Done(j.err)
		}
	}
	return first
}

// dispatch feeds the jobs, in order, to a pool of workers and waits for
// the pool to finish.
func (q *Queue) dispatch(jobs []*job, workers int) {
	work := make(chan *job)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		rng := q.workerRNG(w)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range work {
				q.runJob(j, rng)
			}
		}()
	}
	for _, j := range jobs {
		work <- j
	}
	close(work)
	wg.Wait()
}

// runJob executes one job under the retry policy, failing the injected
// initial attempts before calling Run. rng feeds the backoff jitter.
func (q *Queue) runJob(j *job, rng *rand.Rand) {
	j.err = q.cfg.Retry.Do(rng, func(attempt int) error {
		j.attempts = attempt
		if attempt <= j.failN {
			return ErrInjected
		}
		return j.Run()
	})
}

// workerRNG returns worker w's jitter stream, creating streams on
// demand (the streams are named, so the set of workers ever used does
// not perturb any one worker's draws).
func (q *Queue) workerRNG(w int) *rand.Rand {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.rngs) <= w {
		i := len(q.rngs)
		q.rngs = append(q.rngs, sim.RNG(q.cfg.Seed, q.cfg.Stream+"/worker/"+strconv.Itoa(i)))
	}
	return q.rngs[w]
}
