// Fixture for the shardaffinity analyzer's cluster scope, type-checked
// as coreda/internal/cluster: the peer node's lifecycle points —
// (*Node).Start and its acceptLoop — are the only sanctioned goroutine
// spawners in the package.
package cluster

// Node mirrors the cluster peer node: the analyzer matches the
// sanctioned spawners by receiver type and method name.
type Node struct{ conns chan int }

func (n *Node) serveConn(c int) {}

// Start is a sanctioned spawner: the peer accept-loop launch.
func (n *Node) Start() {
	go n.acceptLoop()
}

// acceptLoop is the other sanctioned spawner: one handler per inbound
// peer connection.
func (n *Node) acceptLoop() {
	for c := range n.conns {
		go n.serveConn(c)
	}
}

// Sync is not a lifecycle point: a goroutine here would hide
// replication work from the ownership model.
func (n *Node) Sync() {
	go n.serveConn(0) // want `goroutine spawned in \(\*Node\)\.Sync`
}

// retryLater spawns from a free function — equally flagged.
func retryLater(n *Node) {
	go func() { // want `goroutine spawned in retryLater`
		n.Sync()
	}()
}
