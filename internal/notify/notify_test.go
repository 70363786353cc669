package notify

import (
	"sync"
	"testing"
	"time"
)

// TestFilterAndSeq: listeners see only their kinds, in publish
// sequence.
func TestFilterAndSeq(t *testing.T) {
	t.Parallel()
	b := NewBus()
	all := b.Subscribe(16)
	filtered := b.Subscribe(16, CheckpointDone, WritebackFailed)
	sent := []Event{
		{Kind: NodeDegraded, Addr: "p1", Err: "down"},
		{Kind: CheckpointDone, Shard: 2},
		{Kind: PeerLost, Addr: "p2"},
		{Kind: WritebackFailed, Household: "h3", Err: "disk full"},
	}
	for _, ev := range sent {
		b.Publish(ev)
	}

	for i, want := range sent {
		if got := <-all.C(); got != want {
			t.Fatalf("event %d = %+v, want %+v", i, got, want)
		}
	}
	for _, want := range []Event{sent[1], sent[3]} {
		if got := <-filtered.C(); got != want {
			t.Fatalf("filtered listener got %+v, want %+v", got, want)
		}
	}
	select {
	case ev := <-filtered.C():
		t.Fatalf("filtered listener leaked %+v", ev)
	default:
	}
	if st := b.Stats(); st.Dropped != 0 {
		t.Fatalf("stats %+v", st)
	}
}

// TestSlowSubscriberNeverBlocks is the shard-loop safety property: a
// subscriber that never drains costs events, not publisher progress.
func TestSlowSubscriberNeverBlocks(t *testing.T) {
	t.Parallel()
	b := NewBus()
	_ = b.Subscribe(1, CheckpointDone) // never read
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 1000; i++ {
			b.Publish(Event{Kind: CheckpointDone, Shard: i})
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("publisher blocked on a slow subscriber")
	}
	if st := b.Stats(); st.Dropped != 999 {
		t.Fatalf("stats %+v", st)
	}
}

// TestSubscribeMinimumBuffer: a buffer below one is raised to one, so
// the listener holds exactly one undrained event.
func TestSubscribeMinimumBuffer(t *testing.T) {
	t.Parallel()
	b := NewBus()
	l := b.Subscribe(0)
	b.Publish(Event{Kind: PeerLost, Addr: "p1"})
	b.Publish(Event{Kind: PeerLost, Addr: "p2"})
	if ev := <-l.C(); ev.Addr != "p1" {
		t.Fatalf("got %+v, want the first event", ev)
	}
	if st := b.Stats(); st.Dropped != 1 {
		t.Fatalf("stats %+v, want the second event dropped", st)
	}
}

// TestUnsubscribeDuringPublish closes a listener while a publisher
// hammers the bus: no send on a closed channel, the channel closes
// exactly once, and the publisher finishes. Run under -race.
func TestUnsubscribeDuringPublish(t *testing.T) {
	t.Parallel()
	b := NewBus()
	l := b.Subscribe(4)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 5000; i++ {
			b.Publish(Event{Kind: CheckpointDone, Shard: i})
		}
	}()
	// Consume a few, then unsubscribe mid-stream.
	for i := 0; i < 3; i++ {
		<-l.C()
	}
	l.Close()
	// The channel must close and deliver no event after Close returns.
	for range l.C() {
	}
	wg.Wait()
	b.mu.Lock()
	left := len(b.subs)
	b.mu.Unlock()
	if left != 0 {
		t.Fatalf("%d listeners still subscribed after Close", left)
	}
}

// TestCloseIdempotent: Close twice (including concurrently) is safe.
func TestCloseIdempotent(t *testing.T) {
	t.Parallel()
	b := NewBus()
	l := b.Subscribe(1)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			l.Close()
		}()
	}
	wg.Wait()
	if _, open := <-l.C(); open {
		t.Fatal("channel still open after Close")
	}
}

// TestKindStrings keeps the catalogue's log names stable.
func TestKindStrings(t *testing.T) {
	t.Parallel()
	want := map[Kind]string{
		CheckpointDone:  "checkpoint-done",
		WritebackFailed: "writeback-failed",
		NodeDegraded:    "node-degraded",
		NodeRecovered:   "node-recovered",
		PeerLost:        "peer-lost",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), s)
		}
	}
	if Kind(0).String() != "kind(0)" {
		t.Errorf("zero kind: %q", Kind(0).String())
	}
}

// BenchmarkBusPublish measures the publish fast path with one matching
// listener being drained — the cost a shard loop pays per event.
func BenchmarkBusPublish(b *testing.B) {
	bus := NewBus()
	l := bus.Subscribe(1024)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for range l.C() {
		}
	}()
	ev := Event{Kind: CheckpointDone, Shard: 3}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		bus.Publish(ev)
	}
	b.StopTimer()
	l.Close()
	<-done
}
