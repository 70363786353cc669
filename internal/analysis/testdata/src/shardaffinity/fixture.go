// Fixture for the shardaffinity analyzer, type-checked as
// coreda/internal/fleet: tenants belong to their shard loop, goroutines
// belong to the two sanctioned spawners, and the only off-loop tenant
// use is the direct save call inside a parrun.Map worker or a
// queue.Job Run closure.
package fleet

import (
	"coreda/internal/parrun"
	"coreda/internal/queue"
)

// Tenant mirrors the fleet tenant: the analyzer matches the type by
// name and defining package.
type Tenant struct {
	ID        string
	lastEvent int
}

// Saver stands in for the checkpoint writer handed to save.
type Saver struct{}

func (t *Tenant) save(sv *Saver, fsync bool) error { return nil }

func (t *Tenant) work() {}

type shard struct {
	evictq []*Tenant
	dirty  map[string]*Tenant
	in     chan *Tenant
}

func (s *shard) run() {}

type Fleet struct{ shards []*shard }

// Start is a sanctioned spawner: the shard-loop launch is allowed.
func (f *Fleet) Start() {
	for _, s := range f.shards {
		s := s
		go s.run()
	}
}

type Listener struct{}

type Server struct{}

func (srv *Server) handle() {}

// Serve is the other sanctioned spawner.
func (srv *Server) Serve(l *Listener) {
	go srv.handle()
}

// drainGood is the sanctioned batched-checkpoint pattern: each worker
// touches its tenant only through a direct save call.
func (s *shard) drainGood(sv *Saver, fsync bool) {
	errs, _ := parrun.Map(len(s.evictq), 4, func(i int) (error, error) {
		return s.evictq[i].save(sv, fsync), nil
	})
	_ = errs
}

// drainBad binds a tenant inside the worker and touches its state — the
// handoff the ownership model cannot see.
func (s *shard) drainBad(fsync bool) {
	_, _ = parrun.Map(len(s.evictq), 4, func(i int) (error, error) {
		t := s.evictq[i] // want `tenant reached inside a parrun\.Map worker`
		t.lastEvent = 0  // want `tenant reached inside a parrun\.Map worker`
		return nil, nil
	})
}

// enqueueGood is the sanctioned control-job pattern: the Run closure
// touches its tenant only through the direct save call, and the Done
// callback — which runs back on the draining goroutine — updates the
// tenant freely.
func (s *shard) enqueueGood(ctl *queue.Queue, sv *Saver, fsync bool) {
	for _, t := range s.evictq {
		t := t
		ctl.Enqueue(queue.Job{
			Run:  func() error { return t.save(sv, fsync) },
			Done: func(error) { t.lastEvent = 0 },
		})
	}
}

// enqueueBad touches tenant state inside Run — a drain worker mutating
// loop-owned state.
func (s *shard) enqueueBad(ctl *queue.Queue) {
	for _, t := range s.evictq {
		t := t
		ctl.Enqueue(queue.Job{
			Run: func() error {
				t.lastEvent = 0 // want `tenant reached inside a queue\.Job Run closure`
				return nil
			},
		})
	}
}

// spawnInDrain launches a goroutine outside the sanctioned spawners.
func (s *shard) spawnInDrain() {
	go func() { // want `goroutine spawned in \(\*shard\)\.spawnInDrain`
	}()
}

// handoff leaks tenants into a goroutine and over a channel.
func (s *shard) handoff(t *Tenant) {
	go t.work() // want `goroutine spawned in \(\*shard\)\.handoff` `tenant captured by a spawned goroutine`
	s.in <- t   // want `\*Tenant sent over a channel`
}
