// Fixture for the lockheld analyzer's queue rule, type-checked as
// coreda/internal/fleet: (*queue.Queue).Drain blocks until every
// control job and Done callback has run, so reaching a drain boundary
// with a mutex held couples every goroutine contending for that mutex
// to the slowest job's retries. Imports resolve to the miniature queue
// package under testdata/src.
package fleet

import (
	"sync"

	"coreda/internal/queue"
)

type shard struct {
	mu    sync.Mutex
	ctl   *queue.Queue
	known map[string]bool
}

// flushLocked drains the control queue under the shard mutex — the
// coupling the drain boundary exists to avoid.
func (s *shard) flushLocked() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ctl.Drain() // want `s\.mu held across blocking call queue\.Drain`
}

// flush releases before draining: the sanctioned shape.
func (s *shard) flush() error {
	s.mu.Lock()
	s.mu.Unlock()
	return s.ctl.Drain()
}

// enqueueLocked is fine: Enqueue is a non-blocking append, and the Done
// callback runs later on the draining goroutine, outside this lock.
func (s *shard) enqueueLocked(id string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ctl.Enqueue(queue.Job{
		Run:  func() error { return nil },
		Done: func(error) { s.known[id] = true },
	})
}
