package cluster

import (
	"fmt"
	"log"
	"sort"
	"sync"

	"coreda/internal/notify"
	"coreda/internal/parrun"
	"coreda/internal/store"
)

// SendFunc pushes one checkpoint blob to one peer (addr). The node
// wires this to peer.Replicate; tests inject failures per peer.
type SendFunc func(addr, name string, blob []byte, fsync bool) error

// RouteFunc names the replica peers for a household. The node wires
// this to Ring.ReplicasOf minus itself, so it tracks membership changes
// without the backend holding a ring.
type RouteFunc func(name string) []string

// ReplicatingBackend wraps a local store.Backend and mirrors its writes
// to the household's replica peers. Writes land locally immediately;
// replication happens at Sync barriers, not per write. That batching is
// not (only) a throughput choice — it is what makes kill-a-process
// recovery deterministic: replicas hold exactly the barrier-k state, so
// a survivor adopting a tenant restores a known round boundary and the
// driver replays the following round in full (DESIGN.md §15).
//
// A peer that stays down does not stall the barrier: after the retry
// policy is exhausted the push is recorded as pending (degraded mode)
// and retried at every later Sync until it lands or the peer leaves the
// ring.
type ReplicatingBackend struct {
	store.Backend // local writes and all reads

	send  SendFunc
	route RouteFunc
	bus   *notify.Bus // degraded-mode transitions (nil = silent)

	mu    sync.Mutex
	dirty map[string]bool // names written since the last Sync
	// pending[addr][name]: pushes that exhausted retries, owed to the
	// peer at the next barrier.
	pending map[string]map[string]bool
}

// pushWorkers bounds how many peers a Sync barrier pushes to at once.
// Each peer's pushes are one parrun.Map index, so a peer link stays
// strictly serial and the concurrency only overlaps pushes to
// *different* peers.
const pushWorkers = 4

// NewReplicatingBackend wraps local so every Put/PutStream-Commit is
// queued for replication to route(name) at the next Sync via send.
func NewReplicatingBackend(local store.Backend, route RouteFunc, send SendFunc) *ReplicatingBackend {
	return &ReplicatingBackend{
		Backend: local,
		send:    send,
		route:   route,
		dirty:   make(map[string]bool),
		pending: make(map[string]map[string]bool),
	}
}

// SetBus attaches the control-plane event bus: Sync publishes
// NodeDegraded when a peer starts owing pushes and NodeRecovered when
// its debt clears. Call before the first Sync.
func (rb *ReplicatingBackend) SetBus(bus *notify.Bus) { rb.bus = bus }

// Put writes locally and marks the name dirty for the next Sync.
func (rb *ReplicatingBackend) Put(name string, data []byte, fsync bool) error {
	if err := rb.Backend.Put(name, data, fsync); err != nil {
		return err
	}
	rb.markDirty(name)
	return nil
}

// PutStream writes locally; the name becomes dirty when the stream
// commits (an aborted stream replicates nothing).
func (rb *ReplicatingBackend) PutStream(name string, fsync bool) (store.BlobWriter, error) {
	w, err := rb.Backend.PutStream(name, fsync)
	if err != nil {
		return nil, err
	}
	return &replicaWriter{BlobWriter: w, rb: rb, name: name}, nil
}

type replicaWriter struct {
	store.BlobWriter
	rb   *ReplicatingBackend
	name string
	done bool
}

func (w *replicaWriter) Commit() error {
	if err := w.BlobWriter.Commit(); err != nil {
		return err
	}
	if !w.done {
		w.done = true
		w.rb.markDirty(w.name)
	}
	return nil
}

func (rb *ReplicatingBackend) markDirty(name string) {
	rb.mu.Lock()
	rb.dirty[name] = true
	rb.mu.Unlock()
}

// Sync replicates every blob written since the last barrier (plus any
// pushes still owed from earlier degraded barriers) to its replica
// peers. Each peer is one parrun.Map index that pushes its blobs in
// sorted-name order, and up to pushWorkers peers are pushed to
// concurrently: a peer link carries one push at a time, and its conn
// checkout and jitter stream are consumed in a sequence that is a pure
// function of the barrier's work set, while a slow peer holds back only
// its own pushes. Failures are then recorded on the calling goroutine,
// in peer order. The barrier state after Sync returns is therefore
// deterministic even though the wall-clock interleaving across peers is
// not, and the soak drivers only ever observe completed barriers (a
// SIGKILLed worker skips its barrier entirely).
//
// Each push is attempted once per barrier (send retries on its own). A
// push that fails is recorded as pending and does not fail the barrier;
// Sync returns an error only when a local blob cannot be read back.
func (rb *ReplicatingBackend) Sync() error {
	// Snapshot and clear the dirty set; merge in owed pushes.
	rb.mu.Lock()
	work := make(map[string]map[string]bool) // name -> owed peers (nil = route only)
	for name := range rb.dirty {
		work[name] = nil
	}
	rb.dirty = make(map[string]bool)
	owedBefore := make(map[string]bool, len(rb.pending))
	for addr, names := range rb.pending {
		owedBefore[addr] = true
		for name := range names {
			if work[name] == nil {
				work[name] = make(map[string]bool)
			}
			work[name][addr] = true
		}
	}
	rb.pending = make(map[string]map[string]bool)
	rb.mu.Unlock()

	// Group the blobs by peer; walking the names sorted fills each
	// peer's list in name order.
	type push struct {
		name string
		blob []byte
	}
	perPeer := make(map[string][]push)
	var firstErr error
	for _, name := range sortedKeys(work) {
		blob, err := rb.Backend.Get(name, nil)
		if err != nil {
			// Local read failure is a real barrier error: the blob was
			// written this round and must be readable.
			if firstErr == nil {
				firstErr = fmt.Errorf("cluster: replicate %s: local read: %w", name, err)
			}
			continue
		}
		peers := rb.route(name)
		for addr := range work[name] {
			if !contains(peers, addr) {
				peers = append(peers, addr)
			}
		}
		for _, addr := range peers {
			perPeer[addr] = append(perPeer[addr], push{name, blob})
		}
	}

	peers := sortedKeys(perPeer)
	failed := make([][]string, len(peers)) // written by peer i's worker
	//coreda:vet-ignore droppederr fn never fails: each index returns its error as its value
	errs, _ := parrun.Map(len(peers), pushWorkers, func(i int) (error, error) {
		var first error
		for _, p := range perPeer[peers[i]] {
			if err := rb.send(peers[i], p.name, p.blob, true); err != nil {
				failed[i] = append(failed[i], p.name)
				if first == nil {
					first = err
				}
			}
		}
		return first, nil
	})
	for i, err := range errs {
		if err == nil {
			continue
		}
		addr := peers[i]
		rb.mu.Lock()
		if rb.pending[addr] == nil {
			rb.pending[addr] = make(map[string]bool)
		}
		for _, name := range failed[i] {
			rb.pending[addr][name] = true
		}
		rb.mu.Unlock()
		log.Printf("cluster: %d replica pushes -> %s failed, degraded: %v", len(failed[i]), addr, err)
		if rb.bus != nil && !owedBefore[addr] {
			rb.bus.Publish(notify.Event{Kind: notify.NodeDegraded, Addr: addr, Err: err.Error()})
		}
	}

	if rb.bus != nil {
		rb.mu.Lock()
		var recovered []string
		for addr := range owedBefore {
			if rb.pending[addr] == nil {
				recovered = append(recovered, addr)
			}
		}
		rb.mu.Unlock()
		sort.Strings(recovered)
		for _, addr := range recovered {
			rb.bus.Publish(notify.Event{Kind: notify.NodeRecovered, Addr: addr})
		}
	}
	return firstErr
}

// sortedKeys returns a map's keys in sorted order.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// DropPeer forgets pushes owed to a peer that left the ring (its
// replicas are obsolete; the new ring routes fresh pushes elsewhere).
func (rb *ReplicatingBackend) DropPeer(addr string) {
	rb.mu.Lock()
	delete(rb.pending, addr)
	rb.mu.Unlock()
}

func contains(s []string, v string) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}
