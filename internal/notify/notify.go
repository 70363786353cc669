// Package notify is CoReDA's control-plane event bus: a broadcaster/
// listener pub/sub fabric the fleet and cluster layers publish
// lifecycle events on (checkpoint wave done, writeback failed, node
// degraded or recovered, peer lost) and background consumers — the
// operator log, benchmark counters — subscribe to without ever holding
// a shard lock.
//
// Delivery contract: Publish never blocks. Each listener has a bounded
// buffer; an event that does not fit is counted as dropped for that
// listener and delivery moves on. Publishers therefore treat the bus as
// fire-and-forget telemetry — correctness never rides on an event being
// seen (the digest-bearing control flow stays on the queue/drain path).
// This is what makes it safe to publish from a shard event loop: a slow
// or stuck subscriber can cost events, never throughput.
//
// Subscription is kind-filtered. Listeners may close themselves at any
// time, including concurrently with a publish; Close is idempotent and
// the listener's channel is closed exactly once, after it is removed
// from the broadcast set.
package notify

import (
	"fmt"
	"sync"
)

// Kind identifies what happened. The zero Kind is invalid.
type Kind uint8

// The event catalogue: each constant says when it is published and
// which Event fields it fills.
const (
	// CheckpointDone: a shard (Shard) finished a checkpoint wave (flush
	// or eviction drain) that wrote at least one file.
	CheckpointDone Kind = iota + 1
	// WritebackFailed: a queued eviction writeback of a household
	// (Household, Shard) exhausted its retries; the tenant was
	// resurrected, and Err carries the cause.
	WritebackFailed
	// NodeDegraded: a replica push exhausted its retries and is owed to
	// the peer (Addr) at a later barrier — the node entered degraded
	// mode for that peer (Err carries the first failure).
	NodeDegraded
	// NodeRecovered: an owed push landed and the peer (Addr) is owed
	// nothing — the node left degraded mode for that peer.
	NodeRecovered
	// PeerLost: a peer (Addr) was removed from the ring; its tenants
	// were adopted locally where replicas existed.
	PeerLost
)

// String names the kind for logs.
func (k Kind) String() string {
	switch k {
	case CheckpointDone:
		return "checkpoint-done"
	case WritebackFailed:
		return "writeback-failed"
	case NodeDegraded:
		return "node-degraded"
	case NodeRecovered:
		return "node-recovered"
	case PeerLost:
		return "peer-lost"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Event is one bus message — a value, copied to every listener, so
// consumers can hold it without aliasing publisher state.
type Event struct {
	// Kind says what happened and which fields below are meaningful.
	Kind Kind
	// Household is the tenant the event is about (fleet events).
	Household string
	// Shard is the shard index the event came from (fleet events).
	Shard int
	// Addr is the peer address (cluster events).
	Addr string
	// Err is the failure text (events about failures); a string, not an
	// error, so events stay comparable values.
	Err string
}

// Stats counts bus activity. Snapshot via Bus.Stats.
type Stats struct {
	// Dropped counts events a full listener buffer rejected.
	Dropped uint64
}

// Bus is a broadcaster. The zero value is unusable; create with NewBus.
type Bus struct {
	mu    sync.Mutex
	subs  map[*Listener]struct{}
	stats Stats
}

// NewBus builds an empty bus.
func NewBus() *Bus {
	return &Bus{subs: make(map[*Listener]struct{})}
}

// Listener is one subscription. Consume from C until it is closed.
type Listener struct {
	bus    *Bus
	ch     chan Event
	mask   uint64 // bit per Kind; 0 = all kinds
	closed bool   // guarded by bus.mu
}

// Subscribe registers a listener for the given kinds (none means every
// kind) with a delivery buffer of buf events (minimum 1). The listener
// must be drained or closed; a full buffer drops events, never blocks
// the publisher.
func (b *Bus) Subscribe(buf int, kinds ...Kind) *Listener {
	if buf < 1 {
		buf = 1
	}
	l := &Listener{bus: b, ch: make(chan Event, buf)}
	for _, k := range kinds {
		l.mask |= 1 << uint(k)
	}
	b.mu.Lock()
	b.subs[l] = struct{}{}
	b.mu.Unlock()
	return l
}

// C is the delivery channel; it is closed when the listener is.
func (l *Listener) C() <-chan Event { return l.ch }

// Close unsubscribes and closes the delivery channel. Idempotent and
// safe to call concurrently with Publish: removal happens under the
// bus lock, so no publish can send after the channel closes.
func (l *Listener) Close() {
	b := l.bus
	b.mu.Lock()
	defer b.mu.Unlock()
	if l.closed {
		return
	}
	l.closed = true
	delete(b.subs, l)
	close(l.ch)
}

// wants reports whether the listener's filter matches k.
func (l *Listener) wants(k Kind) bool {
	return l.mask == 0 || l.mask&(1<<uint(k)) != 0
}

// Publish broadcasts ev to every matching listener.
// It never blocks: a listener whose buffer is full loses the event and
// the bus counts the drop. Safe from any goroutine, including shard
// event loops.
func (b *Bus) Publish(ev Event) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for l := range b.subs {
		if !l.wants(ev.Kind) {
			continue
		}
		select {
		case l.ch <- ev:
		default:
			b.stats.Dropped++
		}
	}
}

// Stats snapshots the bus counters.
func (b *Bus) Stats() Stats {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.stats
}
