package report

import (
	"sync"

	"coreda/internal/notify"
)

// WatcherStats counts what a Watcher consumed and produced.
type WatcherStats struct {
	// Events is how many CheckpointDone events were consumed;
	// Checkpoints sums their Count fields.
	Events      int
	Checkpoints int
	// Regenerations is how many times the regenerate callback ran —
	// at most once per event burst (coalescing), so it trails Events
	// under load instead of amplifying it.
	Regenerations int
}

// Watcher is the report side of the control-plane bus: it subscribes to
// CheckpointDone — the event a fleet shard publishes after a checkpoint
// wave lands — and regenerates a caregiver report each time fresh policy
// state exists. Consumption runs on the watcher's own goroutine with a
// buffered subscription, so a slow regeneration never blocks a shard
// loop (the bus drops instead of waiting; Stats' Dropped counter on the
// bus says if the buffer was too small). Bursts coalesce: every event
// already queued when a regeneration would start is folded into it.
type Watcher struct {
	l    *notify.Listener
	done chan struct{}

	mu    sync.Mutex
	stats WatcherStats
}

// Watch subscribes on bus and invokes regenerate(checkpoints) on its
// own goroutine after each burst of CheckpointDone events, where
// checkpoints sums the burst's Count fields. buffer is the subscription
// depth (<= 0 means 256). Stop to unsubscribe and wait the goroutine
// out.
func Watch(bus *notify.Bus, buffer int, regenerate func(checkpoints int)) *Watcher {
	if buffer <= 0 {
		buffer = 256
	}
	w := &Watcher{
		l:    bus.Subscribe(buffer, notify.CheckpointDone),
		done: make(chan struct{}),
	}
	go w.loop(regenerate)
	return w
}

func (w *Watcher) loop(regenerate func(int)) {
	defer close(w.done)
	for ev := range w.l.C() {
		events, checkpoints := 1, ev.Count
	coalesce:
		for {
			select {
			case more, ok := <-w.l.C():
				if !ok {
					break coalesce
				}
				events++
				checkpoints += more.Count
			default:
				break coalesce
			}
		}
		w.mu.Lock()
		w.stats.Events += events
		w.stats.Checkpoints += checkpoints
		w.stats.Regenerations++
		w.mu.Unlock()
		regenerate(checkpoints)
	}
}

// Stop unsubscribes and blocks until the consuming goroutine exits (no
// regenerate call is in flight after Stop returns).
func (w *Watcher) Stop() {
	w.l.Close()
	<-w.done
}
