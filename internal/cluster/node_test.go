package cluster

import (
	"errors"
	"fmt"
	"net"
	"testing"
	"time"

	"coreda"
	"coreda/internal/adl"
	"coreda/internal/fleet"
	"coreda/internal/notify"
	"coreda/internal/retry"
	"coreda/internal/sim"
	"coreda/internal/store"
	"coreda/internal/wire"
)

// testNode is one in-process cluster member with its fleet.
type testNode struct {
	node  *Node
	f     *fleet.Fleet
	local *store.MemBackend
	addr  string
}

// startCluster brings up n members on loopback, each with a 2-shard
// fleet checkpointing through its replicating backend.
func startCluster(t *testing.T, n, replicas int) []*testNode {
	t.Helper()
	lns := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	nodes := make([]*testNode, n)
	for i := range nodes {
		local := store.NewMemBackend()
		nd, err := NewNode(NodeConfig{
			PeerAddr: addrs[i],
			NodeAddr: fmt.Sprintf("10.0.0.%d:7001", i+1),
			Peers:    addrs,
			Replicas: replicas,
			Local:    local,
			Seed:     int64(100 + i),
			Listener: lns[i],
		})
		if err != nil {
			t.Fatal(err)
		}
		f, err := fleet.New(fleet.Config{
			Shards:  2,
			Backend: nd.Backend(),
			NewSystem: func(household string) (coreda.SystemConfig, error) {
				return coreda.SystemConfig{
					Activity: adl.TeaMaking(),
					UserName: household,
					Seed:     fleet.SeedFor(7, household),
				}, nil
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		f.Start()
		if err := nd.Start(); err != nil {
			t.Fatal(err)
		}
		nodes[i] = &testNode{node: nd, f: f, local: local, addr: addrs[i]}
		t.Cleanup(func() { nd.Close(); f.Stop() })
	}
	return nodes
}

// ownerOf returns the cluster member owning a household.
func ownerOf(t *testing.T, nodes []*testNode, household string) *testNode {
	t.Helper()
	for _, tn := range nodes {
		if tn.node.Owns(household) {
			return tn
		}
	}
	t.Fatalf("no node owns %s", household)
	return nil
}

// deliverSession plays one soak session of a household into its owner's
// fleet and returns the next session index.
func deliverSession(t *testing.T, tn *testNode, household string, session int) {
	t.Helper()
	sessions := fleet.SoakSessions(fleet.SoakConfig{Seed: 7}, household)
	for _, ev := range sessions[session] {
		if err := tn.f.Deliver(ev); err != nil {
			t.Fatal(err)
		}
	}
}

// episodes reads the household's learned episode count on a fleet.
func episodes(t *testing.T, f *fleet.Fleet, household string) int {
	t.Helper()
	var n int
	if err := f.Do(household, func(tn *fleet.Tenant) error {
		n = tn.System.Planner().Episodes
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return n
}

// TestClusterReplicateAndAdopt is the headline recovery path in
// miniature: tenants live on their ring owners, checkpoints replicate
// at the Sync barrier, the owner dies (Close), and the survivors adopt
// its households from the replica blobs they already hold — restored
// learning included, with no call into the fleet: the first event for
// an adopted household admits it from the replica.
func TestClusterReplicateAndAdopt(t *testing.T) {
	nodes := startCluster(t, 3, 2)

	households := make([]string, 8)
	for i := range households {
		households[i] = fleet.SoakHousehold(i)
	}
	for _, h := range households {
		deliverSession(t, ownerOf(t, nodes, h), h, 0)
	}
	for _, tn := range nodes {
		tn.f.Flush()
		if err := tn.node.Sync(); err != nil {
			t.Fatal(err)
		}
		if p := tn.node.Backend().Pending(); p != 0 {
			t.Fatalf("node %s degraded after healthy Sync: %d pending", tn.addr, p)
		}
	}

	// With K=2 replicas in a 3-node cluster, every member must hold a
	// blob for every household.
	for _, tn := range nodes {
		for _, h := range households {
			if _, err := tn.local.Get(h, nil); err != nil {
				t.Fatalf("node %s missing blob for %s after Sync: %v", tn.addr, h, err)
			}
		}
	}

	victim := ownerOf(t, nodes, households[0])
	var victimOwned []string
	for _, h := range households {
		if victim.node.Owns(h) {
			victimOwned = append(victimOwned, h)
		}
	}
	victim.node.Close()
	victim.f.Stop()

	var survivors []*testNode
	for _, tn := range nodes {
		if tn != victim {
			survivors = append(survivors, tn)
		}
	}
	adopted := make(map[string]bool)
	for _, tn := range survivors {
		got, err := tn.node.RemovePeer(victim.addr)
		if err != nil {
			t.Fatal(err)
		}
		for _, h := range got {
			if adopted[h] {
				t.Fatalf("household %s adopted by two survivors", h)
			}
			adopted[h] = true
			if !tn.node.Owns(h) {
				t.Fatalf("node %s adopted %s it does not own", tn.addr, h)
			}
		}
	}
	for _, h := range victimOwned {
		if !adopted[h] {
			t.Fatalf("victim household %s not adopted by any survivor", h)
		}
	}

	// Adopted tenants resume from the replicated checkpoint: one
	// session of learning, not a fresh start.
	for _, h := range victimOwned {
		tn := ownerOf(t, survivors, h)
		if got := episodes(t, tn.f, h); got != 1 {
			t.Errorf("adopted %s has %d episodes on %s, want 1 (restored)", h, got, tn.addr)
		}
	}
}

// TestClusterServesAfterShrink: members of a three-peer ring shrink to
// two (adopting nothing, since they hold no tenants yet) and the
// two-member ring then serves every household on exactly one of them.
func TestClusterServesAfterShrink(t *testing.T) {
	nodes := startCluster(t, 3, 1)
	old := nodes[:2]
	gone := nodes[2]

	for _, tn := range old {
		removed, err := tn.node.RemovePeer(gone.addr)
		if err != nil {
			t.Fatal(err)
		}
		if len(removed) != 0 {
			t.Fatalf("shrinking an empty cluster adopted %v", removed)
		}
	}

	households := make([]string, 8)
	for i := range households {
		households[i] = fleet.SoakHousehold(i)
	}
	for _, h := range households {
		deliverSession(t, ownerOf(t, old, h), h, 0)
	}
	for _, tn := range old {
		tn.f.Flush()
		if err := tn.node.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	for _, h := range households {
		if got := episodes(t, ownerOf(t, old, h).f, h); got != 1 {
			t.Errorf("%s has %d episodes on its owner, want 1", h, got)
		}
	}
}

// TestNodeRouteRedirect pins the Route contract feeding the serving
// layer: local households serve here, foreign ones name the owner's
// node-facing address (learned via the peer handshake).
func TestNodeRouteRedirect(t *testing.T) {
	nodes := startCluster(t, 2, 1)
	h := fleet.SoakHousehold(0)
	owner := ownerOf(t, nodes, h)
	var other *testNode
	for _, tn := range nodes {
		if tn != owner {
			other = tn
		}
	}

	if addr, local := owner.node.Route(h); !local || addr != "" {
		t.Fatalf("owner Route(%s) = %q,%v, want local", h, addr, local)
	}
	addr, local := other.node.Route(h)
	if local {
		t.Fatalf("non-owner Route(%s) claims local", h)
	}
	if addr != owner.node.cfg.NodeAddr {
		t.Fatalf("Route(%s) = %q, want owner node addr %q", h, addr, owner.node.cfg.NodeAddr)
	}
}

// TestPeerSlowReplicaHitsDeadline covers the third injected-failure
// case: a replica that accepts the handshake but never acks. The write
// deadline bounds each attempt and the push fails instead of hanging.
func TestPeerSlowReplicaHitsDeadline(t *testing.T) {
	oldTimeout := rpcTimeout
	rpcTimeout = 100 * time.Millisecond
	defer func() { rpcTimeout = oldTimeout }()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				r := wire.NewReader(c)
				var f wire.Frame
				for {
					if err := r.ReadFrame(&f); err != nil {
						return
					}
					if f.Kind == wire.TypePeerHello {
						frame, _ := wire.Encode(&wire.PeerHello{
							PeerVersion: wire.PeerHelloVersion, Epoch: 1,
							PeerAddr: ln.Addr().String(), NodeAddr: "10.9.9.9:7001",
						})
						if _, err := c.Write(frame); err != nil {
							return
						}
						continue
					}
					// Replicate header: swallow the body, never ack.
					if f.Kind == wire.TypeReplicate {
						if _, _, err := readBody(c, int(f.Replicate.NameLen), f.Replicate.Size, f.Replicate.CRC); err != nil {
							return
						}
					}
				}
			}(c)
		}
	}()

	p := newPeer(ln.Addr().String(), nil, sim.RNG(1, "test/slow-replica"), func() *wire.PeerHello {
		return &wire.PeerHello{PeerVersion: wire.PeerHelloVersion, Epoch: 1, PeerAddr: "x", NodeAddr: "y"}
	})
	p.pol = retry.Policy{Attempts: 2, Base: time.Millisecond, Cap: time.Millisecond}
	defer p.Close()

	start := time.Now()
	err = p.Replicate("h00000", []byte("blob"), false)
	if err == nil {
		t.Fatal("Replicate to a never-acking replica = nil, want deadline error")
	}
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Fatalf("Replicate error = %v, want a net timeout", err)
	}
	if el := time.Since(start); el > 2*time.Second {
		t.Fatalf("deadline took %v, should be bounded by rpcTimeout x attempts", el)
	}
}

// TestNodeBusPeerLostAndHealth: the node's bus wiring and degraded-mode
// accounting — a barrier whose push to an unreachable replica fails
// leaves it owed and publishes NodeDegraded, and RemovePeer announces
// the departure as PeerLost and forgives what was owed.
func TestNodeBusPeerLostAndHealth(t *testing.T) {
	bus := notify.NewBus()
	events := bus.Subscribe(16, notify.NodeDegraded, notify.PeerLost)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	const ghost = "10.9.9.9:1"
	n, err := NewNode(NodeConfig{
		PeerAddr: addr,
		Peers:    []string{addr, ghost},
		Replicas: 1,
		Local:    store.NewMemBackend(),
		Listener: ln,
		Bus:      bus,
		// The ghost is never dialled: every link refuses at once.
		Dial: func(string) (net.Conn, error) { return nil, errors.New("ghost unreachable") },
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Start(); err != nil {
		t.Fatal(err)
	}
	defer n.Close()

	if h := n.Health(); h != (Health{}) {
		t.Fatalf("fresh node unhealthy: %+v", h)
	}
	name := ""
	for i := 0; name == ""; i++ {
		if h := fmt.Sprintf("h%05d", i); n.Owns(h) {
			name = h
		}
	}
	if err := n.Backend().Put(name, []byte("v1"), false); err != nil {
		t.Fatal(err)
	}
	if err := n.Sync(); err != nil {
		t.Fatalf("Sync with the replica unreachable = %v, want nil (degraded)", err)
	}
	if h, want := n.Health(), (Health{PendingPushes: 1, DegradedPeers: 1}); h != want {
		t.Fatalf("health after failed push = %+v, want %+v", h, want)
	}
	wantEvent(t, events, notify.Event{Kind: notify.NodeDegraded, Addr: ghost, Err: "ghost unreachable"})

	if _, err := n.RemovePeer(ghost); err != nil {
		t.Fatal(err)
	}
	wantEvent(t, events, notify.Event{Kind: notify.PeerLost, Addr: ghost})
	if h := n.Health(); h != (Health{}) {
		t.Fatalf("pushes still owed to a peer that left: %+v", h)
	}
}

// wantEvent asserts the listener's next buffered event.
func wantEvent(t *testing.T, l *notify.Listener, want notify.Event) {
	t.Helper()
	select {
	case ev := <-l.C():
		if ev != want {
			t.Fatalf("bus event = %+v, want %+v", ev, want)
		}
	default:
		t.Fatalf("no bus event, want %+v", want)
	}
}

// Health is the node's degraded-mode snapshot the bus tests assert on.
type Health struct {
	// PendingPushes counts replica pushes owed to peers from failed
	// barriers.
	PendingPushes int
	// DegradedPeers counts peers currently owed at least one push.
	DegradedPeers int
}

// Health snapshots the node's degraded-mode accounting.
func (n *Node) Health() Health {
	return Health{
		PendingPushes: n.rb.Pending(),
		DegradedPeers: n.rb.DegradedPeers(),
	}
}

// Owns reports whether this node owns the household under the current
// ring.
func (n *Node) Owns(household string) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.ring.Owner(fleet.SlotOf(household)) == n.cfg.PeerAddr
}
