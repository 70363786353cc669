package report

import (
	"sync"
	"testing"

	"coreda/internal/notify"
)

// TestWatcherRegeneratesOnCheckpointDone: every published checkpoint
// count reaches the regenerate callback (possibly coalesced), and Stop
// leaves no callback in flight.
func TestWatcherRegeneratesOnCheckpointDone(t *testing.T) {
	bus := notify.NewBus()
	var (
		mu    sync.Mutex
		total int
	)
	w := Watch(bus, 64, func(n int) {
		mu.Lock()
		total += n
		mu.Unlock()
	})
	want := 0
	for i := 1; i <= 20; i++ {
		bus.Publish(notify.Event{Kind: notify.CheckpointDone, Shard: i % 4, Count: i})
		want += i
	}
	// Unrelated kinds must not wake the watcher.
	bus.Publish(notify.Event{Kind: notify.TenantDirty, Household: "h00001"})
	w.Stop()

	mu.Lock()
	got := total
	mu.Unlock()
	if got != want {
		t.Errorf("regenerated over %d checkpoints, want %d", got, want)
	}
	st := w.Stats()
	if st.Events != 20 || st.Checkpoints != want {
		t.Errorf("stats = %+v, want Events 20 Checkpoints %d", st, want)
	}
	if st.Regenerations < 1 || st.Regenerations > st.Events {
		t.Errorf("regenerations %d outside [1, %d]", st.Regenerations, st.Events)
	}
	if d := bus.Stats().Dropped; d != 0 {
		t.Errorf("watcher dropped %d events with a roomy buffer", d)
	}
}

// TestWatcherSlowRegenerateNeverBlocksPublisher: a regeneration that
// stalls costs only dropped events — Publish stays non-blocking.
func TestWatcherSlowRegenerateNeverBlocksPublisher(t *testing.T) {
	bus := notify.NewBus()
	gate := make(chan struct{})
	started := make(chan struct{}, 1)
	w := Watch(bus, 1, func(int) {
		select {
		case started <- struct{}{}:
		default:
		}
		<-gate
	})
	bus.Publish(notify.Event{Kind: notify.CheckpointDone, Count: 1})
	<-started // the watcher is now stuck inside regenerate
	for i := 0; i < 500; i++ {
		bus.Publish(notify.Event{Kind: notify.CheckpointDone, Count: 1})
	}
	if d := bus.Stats().Dropped; d == 0 {
		t.Error("stalled watcher dropped nothing across 500 publishes")
	}
	close(gate)
	w.Stop()
}

// Stats snapshots the watcher's counters.
func (w *Watcher) Stats() WatcherStats {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.stats
}
