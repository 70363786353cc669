package cluster

import (
	"errors"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"coreda/internal/notify"
	"coreda/internal/store"
)

// recordingSend is an injectable SendFunc whose per-peer behaviour tests
// flip between healthy and failing.
type recordingSend struct {
	mu    sync.Mutex
	sent  []string        // "peer/name" in send order
	down  map[string]bool // peers currently refusing pushes
	calls int
}

func (rs *recordingSend) send(addr, name string, blob []byte, fsync bool) error {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	rs.calls++
	if rs.down[addr] {
		return errors.New("injected: peer down")
	}
	rs.sent = append(rs.sent, addr+"/"+name)
	return nil
}

func (rs *recordingSend) take() []string {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	out := rs.sent
	rs.sent = nil
	return out
}

func (rs *recordingSend) setDown(addr string, down bool) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if rs.down == nil {
		rs.down = make(map[string]bool)
	}
	rs.down[addr] = down
}

func newTestRB(rs *recordingSend, replicas ...string) *ReplicatingBackend {
	return NewReplicatingBackend(store.NewMemBackend(),
		func(string) []string { return replicas }, rs.send)
}

// sortStrings sorts in place and returns the slice, for one-line set
// comparisons.
func sortStrings(s []string) []string {
	sort.Strings(s)
	return s
}

// perPeer splits "peer/name" push records into per-peer name sequences,
// preserving each peer's send order.
func perPeer(pushes []string) map[string][]string {
	m := make(map[string][]string)
	for _, p := range pushes {
		peer, name, _ := strings.Cut(p, "/")
		m[peer] = append(m[peer], name)
	}
	return m
}

func TestReplicatingBackendFansOutAtSync(t *testing.T) {
	rs := &recordingSend{}
	rb := newTestRB(rs, "peerA", "peerB")

	if err := rb.Put("h1", []byte("one"), false); err != nil {
		t.Fatal(err)
	}
	if err := rb.Put("h0", []byte("zero"), false); err != nil {
		t.Fatal(err)
	}
	if got := rs.take(); len(got) != 0 {
		t.Fatalf("writes replicated before Sync: %v", got)
	}
	if err := rb.Sync(); err != nil {
		t.Fatal(err)
	}
	// Pushes to different peers overlap (queue workers), so the global
	// send order interleaves — but each peer's link must see its names
	// in sorted order, and the barrier must cover the full fan-out.
	got := rs.take()
	want := []string{"peerA/h0", "peerA/h1", "peerB/h0", "peerB/h1"}
	if sorted := append([]string(nil), got...); !reflect.DeepEqual(sortStrings(sorted), want) {
		t.Fatalf("Sync pushes = %v, want set %v", got, want)
	}
	for peer, names := range perPeer(got) {
		if !sort.StringsAreSorted(names) {
			t.Fatalf("peer %s saw names out of order: %v", peer, names)
		}
	}
	// The barrier cleared the dirty set: an idle Sync pushes nothing.
	if err := rb.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := rs.take(); len(got) != 0 {
		t.Fatalf("idle Sync replicated %v", got)
	}
}

func TestReplicatingBackendPutStreamCommitAndAbort(t *testing.T) {
	rs := &recordingSend{}
	rb := newTestRB(rs, "peerA")

	w, err := rb.PutStream("h1", false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write([]byte("committed")); err != nil {
		t.Fatal(err)
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	a, err := rb.PutStream("h2", false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Write([]byte("aborted")); err != nil {
		t.Fatal(err)
	}
	a.Abort()
	if err := rb.Sync(); err != nil {
		t.Fatal(err)
	}
	if got, want := rs.take(), []string{"peerA/h1"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Sync pushes = %v, want %v (aborted stream must not replicate)", got, want)
	}
}

// TestReplicatingBackendOneReplicaDown is the degraded-mode contract:
// a dead replica does not fail the barrier, the push is owed (and the
// bus says so), and it lands at the first barrier after the peer
// recovers (and the bus says that too).
func TestReplicatingBackendOneReplicaDown(t *testing.T) {
	rs := &recordingSend{}
	rb := newTestRB(rs, "peerA", "peerB")
	bus := notify.NewBus()
	events := bus.Subscribe(16, notify.NodeDegraded, notify.NodeRecovered)
	rb.SetBus(bus)
	rs.setDown("peerB", true)

	if err := rb.Put("h1", []byte("v1"), false); err != nil {
		t.Fatal(err)
	}
	if err := rb.Sync(); err != nil {
		t.Fatalf("Sync with one replica down = %v, want nil (degraded, not failed)", err)
	}
	if got, want := rs.take(), []string{"peerA/h1"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("pushes = %v, want %v", got, want)
	}
	if rb.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1 owed push", rb.Pending())
	}
	if rb.DegradedPeers() != 1 {
		t.Fatalf("DegradedPeers = %d, want 1", rb.DegradedPeers())
	}
	st := rb.Stats()
	if st.Replicated != 1 || st.Failed != 1 {
		t.Fatalf("stats = %+v, want Replicated 1 Failed 1", st)
	}
	select {
	case ev := <-events.C():
		if ev.Kind != notify.NodeDegraded || ev.Addr != "peerB" || !strings.Contains(ev.Err, "peer down") {
			t.Fatalf("first bus event = %+v, want NodeDegraded peerB", ev)
		}
	default:
		t.Fatal("no NodeDegraded event after failed push")
	}

	rs.setDown("peerB", false)
	if err := rb.Sync(); err != nil {
		t.Fatal(err)
	}
	// Recovery re-pushes to the healthy peer too, because the owed name
	// is treated as dirty for the barrier — that is idempotent (same
	// blob) and keeps the fan-out logic single-pathed. The two pushes go
	// to different links, so their order may interleave.
	if got, want := sortStrings(rs.take()), []string{"peerA/h1", "peerB/h1"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("recovery pushes = %v, want %v", got, want)
	}
	if rb.Pending() != 0 {
		t.Fatalf("Pending after recovery = %d, want 0", rb.Pending())
	}
	if st := rb.Stats(); st.Degraded != 1 {
		t.Fatalf("stats = %+v, want Degraded 1 (owed push recovered)", st)
	}
	select {
	case ev := <-events.C():
		if ev.Kind != notify.NodeRecovered || ev.Addr != "peerB" {
			t.Fatalf("second bus event = %+v, want NodeRecovered peerB", ev)
		}
	default:
		t.Fatal("no NodeRecovered event after the owed push landed")
	}
}

func TestReplicatingBackendAllReplicasDown(t *testing.T) {
	rs := &recordingSend{}
	rb := newTestRB(rs, "peerA", "peerB")
	rs.setDown("peerA", true)
	rs.setDown("peerB", true)

	for i := 0; i < 3; i++ {
		name := fmt.Sprintf("h%d", i)
		if err := rb.Put(name, []byte(name), false); err != nil {
			t.Fatal(err)
		}
	}
	if err := rb.Sync(); err != nil {
		t.Fatalf("Sync with every replica down = %v, want nil (local writes stand)", err)
	}
	if got := rb.Pending(); got != 6 {
		t.Fatalf("Pending = %d, want 6 (3 names x 2 peers)", got)
	}
	// The local generation is untouched by replication failure.
	b, err := rb.Get("h0", nil)
	if err != nil || string(b) != "h0" {
		t.Fatalf("local Get after failed barrier = %q, %v", b, err)
	}

	// A peer leaving the ring takes its owed pushes with it.
	rb.DropPeer("peerA")
	if got := rb.Pending(); got != 3 {
		t.Fatalf("Pending after DropPeer = %d, want 3", got)
	}
}

// TestReplicatingBackendSerializesPerPeer: the barrier's push queue may
// overlap different peers, but one peer link never carries two pushes at
// once (the per-peer permit class) — the invariant that keeps the link's
// conn checkout and retry-jitter stream deterministic.
func TestReplicatingBackendSerializesPerPeer(t *testing.T) {
	var (
		mu       sync.Mutex
		inflight = map[string]int{}
		overlap  bool
	)
	send := func(addr, name string, blob []byte, fsync bool) error {
		mu.Lock()
		inflight[addr]++
		if inflight[addr] > 1 {
			overlap = true
		}
		mu.Unlock()
		time.Sleep(50 * time.Microsecond) // widen the overlap window
		mu.Lock()
		inflight[addr]--
		mu.Unlock()
		return nil
	}
	rb := NewReplicatingBackend(store.NewMemBackend(),
		func(string) []string { return []string{"peerA", "peerB", "peerC"} }, send)
	for i := 0; i < 64; i++ {
		if err := rb.Put(fmt.Sprintf("h%02d", i), []byte("v"), false); err != nil {
			t.Fatal(err)
		}
	}
	if err := rb.Sync(); err != nil {
		t.Fatal(err)
	}
	if overlap {
		t.Fatal("two pushes in flight on one peer link")
	}
	if st := rb.Stats(); st.Replicated != 64*3 {
		t.Fatalf("Replicated = %d, want %d", st.Replicated, 64*3)
	}
}

func TestReplicatingBackendLocalReadFailure(t *testing.T) {
	rs := &recordingSend{}
	rb := newTestRB(rs, "peerA")
	// Dirty a name whose blob is then deleted out from under the
	// barrier: the local read failure IS a Sync error.
	if err := rb.Put("h1", []byte("v1"), false); err != nil {
		t.Fatal(err)
	}
	if err := rb.Backend.Delete("h1"); err != nil {
		t.Fatal(err)
	}
	if err := rb.Sync(); err == nil {
		t.Fatal("Sync with unreadable local blob = nil, want error")
	}
}

// Stats returns a snapshot of the replication counters.
func (rb *ReplicatingBackend) Stats() ReplicaStats {
	rb.mu.Lock()
	defer rb.mu.Unlock()
	return rb.stats
}

// Pending reports how many (peer, name) pushes are owed from failed
// replication — non-zero means the backend is running degraded.
func (rb *ReplicatingBackend) Pending() int {
	rb.mu.Lock()
	defer rb.mu.Unlock()
	n := 0
	for _, names := range rb.pending {
		n += len(names)
	}
	return n
}

// DegradedPeers counts peers currently owed at least one push.
func (rb *ReplicatingBackend) DegradedPeers() int {
	rb.mu.Lock()
	defer rb.mu.Unlock()
	return len(rb.pending)
}
