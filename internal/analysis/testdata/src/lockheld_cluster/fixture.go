// Fixture for the lockheld analyzer's cluster scope, type-checked as
// coreda/internal/cluster: the node mutex must never be held across
// peer socket I/O or the conn-checkout channel — exactly the coupling
// the capacity-1 checkout channel exists to avoid. Imports resolve to
// the miniature net/wire packages under testdata/src.
package cluster

import (
	"sync"

	"coreda/internal/wire"
	"net"
)

type peerConn struct {
	c *net.Conn
	w *wire.Writer
}

type node struct {
	mu       sync.Mutex
	conns    chan *peerConn
	nodeAddr string
}

// helloLocked snapshots handshake state under the lock: pure memory,
// fine.
func (n *node) helloLocked() string {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.nodeAddr
}

// checkoutLocked receives the conn token while holding the node mutex:
// every route lookup now waits on whoever holds the connection.
func (n *node) checkoutLocked() *peerConn {
	n.mu.Lock()
	defer n.mu.Unlock()
	return <-n.conns // want `n\.mu held across channel receive`
}

// checkout without the lock is the sanctioned pattern.
func (n *node) checkout() *peerConn { return <-n.conns }

// replicateLocked holds the mutex across the peer socket flush — the
// replication fan-out would serialize behind the slowest replica.
func (n *node) replicateLocked(pc *peerConn, p wire.Packet) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if err := pc.w.QueuePacket(p); err != nil { // in-memory append: fine
		return err
	}
	return pc.w.Flush() // want `n\.mu held across blocking call wire\.Flush`
}

// transferLocked writes the raw out-of-band blob under the lock.
func (n *node) transferLocked(pc *peerConn, blob []byte) error {
	n.mu.Lock()
	_, err := pc.c.Write(blob) // want `n\.mu held across blocking call net\.Write`
	n.mu.Unlock()
	return err
}

// transfer releases before the blob write: fine.
func (n *node) transfer(pc *peerConn, blob []byte) error {
	n.mu.Lock()
	n.mu.Unlock()
	_, err := pc.c.Write(blob)
	return err
}
