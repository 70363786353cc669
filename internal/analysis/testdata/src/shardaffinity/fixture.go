// Fixture for the shardaffinity analyzer, type-checked as
// coreda/internal/fleet: tenants belong to their shard loop, goroutines
// belong to the two sanctioned spawners, and the only off-loop tenant
// use is the direct save call inside a parrun.Map worker, retry
// closures nested in it included.
package fleet

import "coreda/internal/parrun"

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

// policy stands in for the retry schedule a wave write runs under.
type policy struct{ attempts int }

func (p policy) Do(op func(attempt int) error) error {
	var err error
	for n := 1; n <= p.attempts; n++ {
		if err = op(n); err == nil {
			return nil
		}
	}
	return err
}

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

// waveGood is the sanctioned checkpoint-wave pattern: the retry closure
// nested in the worker still touches its tenant only through the
// direct save call, and the outcomes are applied back on the loop.
func (s *shard) waveGood(pol policy, sv *Saver, fsync bool) {
	errs, _ := parrun.Map(len(s.evictq), 4, func(i int) (error, error) {
		return pol.Do(func(int) error { return s.evictq[i].save(sv, fsync) }), nil
	})
	for i, err := range errs {
		if err == nil {
			s.evictq[i].lastEvent = 0
		}
	}
}

// waveBad touches tenant state inside the nested retry closure — a
// writer goroutine mutating loop-owned state.
func (s *shard) waveBad(pol policy, sv *Saver, fsync bool) {
	_, _ = parrun.Map(len(s.evictq), 4, func(i int) (error, error) {
		return pol.Do(func(attempt int) error {
			s.evictq[i].lastEvent = attempt // want `tenant reached inside a parrun\.Map worker`
			return s.evictq[i].save(sv, fsync)
		}), nil
	})
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
