// Miniature control-plane queue for analyzer fixtures: the real
// package's API surface — the Job shape and Enqueue/Drain — with a
// stub implementation, so fixtures type-check against the same names
// the analyzers match on (queue.Job composite literals, Drain as a
// blocking call).
package queue

// Job is one unit of control-plane work.
type Job struct {
	Run  func() error
	Done func(error)
}

// Queue collects jobs between drain boundaries.
type Queue struct{ pending []Job }

// Enqueue accepts one job: a non-blocking append.
func (q *Queue) Enqueue(j Job) { q.pending = append(q.pending, j) }

// Drain runs every pending job; the real Drain blocks until every job
// and Done callback has finished.
func (q *Queue) Drain() error {
	jobs := q.pending
	q.pending = nil
	var first error
	for _, j := range jobs {
		err := j.Run()
		if first == nil {
			first = err
		}
		if j.Done != nil {
			j.Done(err)
		}
	}
	return first
}
