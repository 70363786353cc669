package cluster

import (
	"errors"
	"fmt"
	"log"
	"net"
	"sync"

	"coreda/internal/fleet"
	"coreda/internal/notify"
	"coreda/internal/sim"
	"coreda/internal/store"
	"coreda/internal/wire"
)

// NodeConfig parameterizes one cluster member.
type NodeConfig struct {
	// PeerAddr is this process's identity on the peer ring AND the
	// address peers dial for replication traffic. It must appear
	// verbatim in every member's Peers list.
	PeerAddr string
	// NodeAddr is the node-facing (rtbridge) address advertised in
	// redirects: a node whose household lives elsewhere is told to
	// reconnect to the owner's NodeAddr.
	NodeAddr string
	// Peers is the initial full membership, this process included.
	Peers []string
	// Replicas is K: each checkpoint is mirrored to the K peers ranked
	// after the owner (clamped to cluster size - 1).
	Replicas int
	// Local is the process-local checkpoint store replication wraps.
	Local store.Backend
	// Seed derives the retry-jitter streams for the peer links.
	Seed int64
	// Dial overrides the peer-link transport (chaos tests wrap it);
	// nil means plain TCP.
	Dial Dialer
	// Listener, if non-nil, is the pre-bound peer listener to serve on
	// (tests bind :0 first so the address is known before the ring is
	// built). Nil means Start listens on PeerAddr.
	Listener net.Listener
	// Bus, if non-nil, is the control-plane event bus. The replicating
	// backend publishes NodeDegraded/NodeRecovered on a peer's
	// pending-push transitions, RemovePeer publishes PeerLost, and
	// Start subscribes the node to WritebackFailed events (the fleet's
	// failed eviction writebacks), counting them as degraded.
	Bus *notify.Bus
}

// Node is one cluster member: it owns the slot ranges the ring assigns
// to its PeerAddr, serves peer traffic (replicas and range claims),
// replicates its own tenants' checkpoints outward, and adopts a departed
// peer's tenants when membership shrinks.
//
// Locking: mu guards only routing state (ring, epoch, link map, learned
// addresses) and is never held across socket I/O — peer connections are
// owned via the checkout token in peer, and every network call happens
// after mu is released.
type Node struct {
	cfg NodeConfig
	rb  *ReplicatingBackend
	f   *fleet.Fleet

	mu        sync.Mutex
	ring      *Ring
	epoch     uint32
	links     map[string]*peer  // outbound, by peer addr
	nodeAddrs map[string]string // peer addr -> its advertised NodeAddr
	slotAddr  []string          // slot -> owner NodeAddr per accepted RangeClaims

	watchers       []*notify.Listener // bus subscriptions, closed by Close
	writebackFails int                // WritebackFailed events observed via WatchBus

	ln     net.Listener
	conns  map[net.Conn]bool // inbound peer conns, for Close
	closed bool
	wg     sync.WaitGroup
}

// NewNode builds a member and its replicating backend. Pass
// Backend() as the fleet's Config.Backend, then AttachFleet, then
// Start.
func NewNode(cfg NodeConfig) (*Node, error) {
	if cfg.PeerAddr == "" {
		return nil, errors.New("cluster: NodeConfig.PeerAddr is required")
	}
	if cfg.Local == nil {
		return nil, errors.New("cluster: NodeConfig.Local backend is required")
	}
	if !contains(cfg.Peers, cfg.PeerAddr) {
		return nil, fmt.Errorf("cluster: peer list %v does not include self %s", cfg.Peers, cfg.PeerAddr)
	}
	if cfg.Replicas < 0 {
		return nil, fmt.Errorf("cluster: negative replica count %d", cfg.Replicas)
	}
	n := &Node{
		cfg:       cfg,
		ring:      NewRing(cfg.Peers),
		epoch:     1,
		links:     make(map[string]*peer),
		nodeAddrs: make(map[string]string),
		slotAddr:  make([]string, fleet.Slots),
		conns:     make(map[net.Conn]bool),
	}
	n.rb = NewReplicatingBackend(cfg.Local, n.replicasFor, n.sendReplica)
	if cfg.Bus != nil {
		n.rb.SetBus(cfg.Bus)
	}
	return n, nil
}

// Backend returns the replicating backend the fleet must checkpoint
// through.
func (n *Node) Backend() *ReplicatingBackend { return n.rb }

// AttachFleet wires the started fleet the node admits adopted tenants
// into.
func (n *Node) AttachFleet(f *fleet.Fleet) { n.f = f }

// Start begins serving peer traffic.
func (n *Node) Start() error {
	ln := n.cfg.Listener
	if ln == nil {
		var err error
		ln, err = net.Listen("tcp", n.cfg.PeerAddr)
		if err != nil {
			return fmt.Errorf("cluster: peer listen: %w", err)
		}
	}
	n.ln = ln
	n.wg.Add(1)
	go n.acceptLoop()
	if n.cfg.Bus != nil {
		n.WatchBus(n.cfg.Bus)
	}
	return nil
}

// WatchBus subscribes the node to bus's WritebackFailed events — fleet
// eviction writebacks that failed after retries — and folds them into
// the node's degraded accounting. The listener drains on its own
// goroutine (stopped by Close), so a busy node never blocks the
// publishing shard loop; the bus drops instead of waiting. Start calls
// this with NodeConfig.Bus; call it directly to watch a second bus
// (e.g. a fleet bus distinct from the cluster's).
func (n *Node) WatchBus(bus *notify.Bus) {
	l := bus.Subscribe(256, notify.WritebackFailed)
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		l.Close()
		return
	}
	n.watchers = append(n.watchers, l)
	n.mu.Unlock()
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		for range l.C() {
			n.mu.Lock()
			n.writebackFails++
			n.mu.Unlock()
		}
	}()
}

// Close stops serving and closes every peer link.
func (n *Node) Close() {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	n.closed = true
	ln := n.ln
	links := make([]*peer, 0, len(n.links))
	for _, p := range n.links {
		links = append(links, p)
	}
	conns := make([]net.Conn, 0, len(n.conns))
	for c := range n.conns {
		conns = append(conns, c)
	}
	watchers := n.watchers
	n.watchers = nil
	n.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	for _, p := range links {
		p.Close()
	}
	for _, c := range conns {
		c.Close()
	}
	for _, l := range watchers {
		l.Close()
	}
	n.wg.Wait()
}

// Sync replicates this barrier's dirty checkpoints to their replica
// peers (see ReplicatingBackend.Sync). Call after fleet.Flush at each
// round barrier; the serving path wires it to ServeConfig.AfterFlush.
func (n *Node) Sync() error { return n.rb.Sync() }

// Route decides, for one household hello, whether to serve locally or
// redirect to the owner's node-facing address — the hook for
// fleet.ServeConfig.Route.
func (n *Node) Route(household string) (addr string, local bool) {
	slot := fleet.SlotOf(household)
	n.mu.Lock()
	owner := n.ring.Owner(slot)
	claimed := n.slotAddr[slot]
	learned := n.nodeAddrs[owner]
	n.mu.Unlock()
	if owner == n.cfg.PeerAddr || owner == "" {
		return "", true
	}
	if claimed != "" {
		return claimed, false
	}
	if learned != "" {
		return learned, false
	}
	l := n.link(owner)
	if a := l.NodeAddr(); a != "" {
		return a, false
	}
	// No handshake yet: perform one now (bounded by the link's dial
	// deadline) so the very first redirect already carries the owner's
	// node-facing address.
	if err := l.ensure(); err == nil {
		if a := l.NodeAddr(); a != "" {
			return a, false
		}
	}
	// Last resort: the peer address — wrong port, but the node's
	// bounded retry surfaces a clean error instead of traffic silently
	// dropping here.
	return owner, false
}

// replicasFor is the ReplicatingBackend's route: the household's
// replica peers under the current ring (self excluded by construction —
// we only write blobs for households we own, and Replicas never
// includes the owner).
func (n *Node) replicasFor(name string) []string {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.ring.ReplicasOf(name, n.cfg.Replicas)
}

// sendReplica is the ReplicatingBackend's send: one blob to one peer
// over its link.
func (n *Node) sendReplica(addr, name string, blob []byte, fsync bool) error {
	return n.link(addr).Replicate(name, blob, fsync)
}

// link returns the outbound link to a peer, creating it on first use.
// Construction happens outside the lock (newPeer seeds its conn-checkout
// channel, and no channel op may run under n.mu); a racing creator's
// spare peer is discarded unused — it holds no connection yet.
func (n *Node) link(addr string) *peer {
	n.mu.Lock()
	p, ok := n.links[addr]
	n.mu.Unlock()
	if ok {
		return p
	}
	rng := sim.RNG(n.cfg.Seed, "cluster/peer/"+addr)
	fresh := newPeer(addr, n.cfg.Dial, rng, n.hello)
	n.mu.Lock()
	defer n.mu.Unlock()
	if p, ok := n.links[addr]; ok {
		return p
	}
	n.links[addr] = fresh
	return fresh
}

// hello builds our handshake frame under the current epoch.
func (n *Node) hello() *wire.PeerHello {
	n.mu.Lock()
	defer n.mu.Unlock()
	return &wire.PeerHello{
		PeerVersion: wire.PeerHelloVersion,
		Epoch:       n.epoch,
		PeerAddr:    n.cfg.PeerAddr,
		NodeAddr:    n.cfg.NodeAddr,
	}
}

// RemovePeer drops a dead peer from membership and adopts every
// household the new ring assigns to this node — a local scan of the
// replica blobs already in the store (the rendezvous promotion
// property; no network fetch). Returns the adopted household names.
func (n *Node) RemovePeer(dead string) ([]string, error) {
	n.mu.Lock()
	old := n.ring
	peers := make([]string, 0, len(old.Peers()))
	for _, p := range old.Peers() {
		if p != dead {
			peers = append(peers, p)
		}
	}
	next := NewRing(peers)
	n.ring = next
	n.epoch++
	epoch := n.epoch
	link := n.links[dead]
	delete(n.links, dead)
	for s := 0; s < fleet.Slots; s++ {
		if old.Owner(s) == dead {
			n.slotAddr[s] = "" // stale claim: the owner is gone
		}
	}
	n.mu.Unlock()

	if link != nil {
		link.Close()
	}
	n.rb.DropPeer(dead)
	if n.cfg.Bus != nil {
		n.cfg.Bus.Publish(notify.Event{Kind: notify.PeerLost, Addr: dead})
	}

	// Adopt: every stored blob now owned by us but not before. The
	// store holds exactly our tenants plus the replicas we were ranked
	// for — and rendezvous promotion means the dead peer's slots fall
	// precisely to their first replicas.
	var adopted []string
	err := n.cfg.Local.Enumerate(func(name string) {
		if !fleet.ValidHousehold(name) {
			return
		}
		if next.OwnerOf(name) == n.cfg.PeerAddr && old.OwnerOf(name) != n.cfg.PeerAddr {
			adopted = append(adopted, name)
		}
	})
	if err != nil {
		return nil, fmt.Errorf("cluster: adopt scan: %w", err)
	}
	for _, name := range adopted {
		if n.f != nil {
			if err := n.f.MarkKnown(name); err != nil {
				return adopted, err
			}
		}
	}
	n.claimOwnedRanges(epoch)
	return adopted, nil
}

// claimOwnedRanges announces our slot ranges under the new epoch to
// every peer, best-effort (claims only prime redirect routing; the
// rings already agree).
func (n *Node) claimOwnedRanges(epoch uint32) {
	n.mu.Lock()
	ranges := Ranges(n.ring.SlotsOf(n.cfg.PeerAddr))
	peers := make([]string, 0, len(n.ring.Peers()))
	for _, p := range n.ring.Peers() {
		if p != n.cfg.PeerAddr {
			peers = append(peers, p)
		}
	}
	n.mu.Unlock()
	for _, addr := range peers {
		p := n.link(addr)
		for _, r := range ranges {
			if err := p.Claim(r[0], r[1], epoch, n.cfg.NodeAddr); err != nil {
				log.Printf("cluster: range claim [%d,%d] -> %s: %v", r[0], r[1], addr, err)
				break
			}
		}
	}
}

func (n *Node) acceptLoop() {
	defer n.wg.Done()
	for {
		c, err := n.ln.Accept()
		if err != nil {
			return
		}
		n.mu.Lock()
		if n.closed {
			n.mu.Unlock()
			c.Close()
			return
		}
		n.conns[c] = true
		n.mu.Unlock()
		n.wg.Add(1)
		go n.serveConn(c)
	}
}

// serveConn handles one inbound peer connection: hello handshake, then
// replicas and range claims until the peer hangs up.
func (n *Node) serveConn(c net.Conn) {
	defer n.wg.Done()
	defer func() {
		n.mu.Lock()
		delete(n.conns, c)
		n.mu.Unlock()
		c.Close()
	}()
	r := wire.NewReader(c)
	w := wire.NewWriter(c)
	defer w.Release()
	var f wire.Frame
	for {
		if err := r.ReadFrame(&f); err != nil {
			return
		}
		var err error
		switch f.Kind {
		case wire.TypePeerHello:
			err = n.servePeerHello(w, &f.PeerHello)
		case wire.TypeReplicate:
			err = n.serveReplicate(c, w, &f.Replicate)
		case wire.TypeRangeClaim:
			err = n.serveRangeClaim(w, &f.RangeClaim)
		default:
			// Not peer traffic; drop the frame and keep the conn.
		}
		if err != nil {
			log.Printf("cluster: peer conn %s: %v", c.RemoteAddr(), err)
			return
		}
	}
}

func (n *Node) servePeerHello(w *wire.Writer, h *wire.PeerHello) error {
	n.mu.Lock()
	if h.NodeAddr != "" {
		n.nodeAddrs[h.PeerAddr] = h.NodeAddr
	}
	n.mu.Unlock()
	return w.WritePacket(n.hello())
}

func (n *Node) serveReplicate(c net.Conn, w *wire.Writer, h *wire.Replicate) error {
	name, blob, err := readBody(c, int(h.NameLen), h.Size, h.CRC)
	if err != nil {
		return err
	}
	if !fleet.ValidHousehold(name) {
		return fmt.Errorf("replica for invalid household %q", name)
	}
	// Replicas are written to the LOCAL backend, not the replicating
	// one: a mirrored blob must not fan out again, and it must not mark
	// the household known to our fleet — we hold it for recovery, we do
	// not serve it.
	if err := n.cfg.Local.Put(name, blob, h.Flags&wire.FlagFsync != 0); err != nil {
		return fmt.Errorf("replica store %s: %w", name, err)
	}
	return w.WritePacket(&wire.Ack{UID: ackOK, Seq: h.Seq})
}

func (n *Node) serveRangeClaim(w *wire.Writer, rc *wire.RangeClaim) error {
	n.mu.Lock()
	verdict := uint16(ackOK)
	if rc.Epoch < n.epoch {
		verdict = ackStale
	} else {
		for s := int(rc.Start); s <= int(rc.End) && s < fleet.Slots; s++ {
			n.slotAddr[s] = rc.Addr
		}
	}
	n.mu.Unlock()
	return w.WritePacket(&wire.Ack{UID: verdict, Seq: rc.Seq})
}
