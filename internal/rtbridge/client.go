// Package rtbridge is the node side of CoReDA's real network path: a
// NodeClient stands in for one PAVENET sensor node, speaking the wire
// frame format over TCP to a fleet server (internal/fleet, run by
// cmd/coreda-fleet). It reports tool usage and heartbeats, opens with
// the household hello, follows cluster redirects (DialCluster) and
// surfaces the LED commands the server writes back.
package rtbridge

import (
	"bufio"
	"errors"
	"io"
	"net"
	"sync"
	"time"

	"coreda/internal/wire"
)

// LEDEvent is a decoded LED command received by a node client.
type LEDEvent struct {
	Color  wire.LEDColor
	Blinks int
	Period time.Duration
}

// readBufSize is the reader loop's read-ahead buffer: room for a whole
// burst of server frames.
const readBufSize = 4096

// NodeClient simulates one PAVENET node over a TCP connection: it reports
// tool usage and surfaces LED commands.
type NodeClient struct {
	uid  uint16
	conn net.Conn
	wm   sync.Mutex
	seq  uint16
	buf  []byte // frame scratch, guarded by wm
	// pkt holds reusable packet scratch for the report methods: passing a
	// pointer into the client instead of a fresh literal keeps the
	// interface boxing in write off the per-frame allocation count.
	// Guarded by wm like buf.
	pkt struct {
		us  wire.UsageStart
		ue  wire.UsageEnd
		hb  wire.Heartbeat
		ack wire.Ack
	}
	timeout time.Duration
	onLED   func(LEDEvent)

	// helloSeq/helloWait track an in-flight HelloWait (guarded by wm);
	// the reader loop resolves it through helloCh with the server's
	// verdict: acked locally, or redirected to the owning peer.
	helloSeq  uint16
	helloWait bool
	helloCh   chan string // "" = acked; else the redirect address

	closed sync.Once
	readEr error
	doneCh chan struct{}
}

// NewNodeClient wraps an established connection. onLED receives decoded
// LED commands (may be nil). The reader loop starts immediately.
func NewNodeClient(conn net.Conn, uid uint16, onLED func(LEDEvent)) *NodeClient {
	n := &NodeClient{uid: uid, conn: conn, onLED: onLED, helloCh: make(chan string, 1), doneCh: make(chan struct{})}
	go n.readLoop()
	return n
}

// DialNode connects to a fleet server and returns a node client.
func DialNode(addr string, uid uint16, onLED func(LEDEvent)) (*NodeClient, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return NewNodeClient(conn, uid, onLED), nil
}

// UID returns the node's unique ID (== its tool ID).
func (n *NodeClient) UID() uint16 { return n.uid }

// SetReadTimeout bounds each read of the reader loop (wall clock). With a
// timeout set, a server that dies without closing the connection — power
// cut, SIGKILL — cannot strand the loop (and its goroutine) forever; the
// loop exits and Done() closes. Zero restores unbounded reads.
func (n *NodeClient) SetReadTimeout(d time.Duration) {
	n.wm.Lock()
	n.timeout = d
	n.wm.Unlock()
}

// Close shuts the connection down.
func (n *NodeClient) Close() error {
	var err error
	n.closed.Do(func() { err = n.conn.Close() })
	return err
}

// Done is closed when the reader loop exits (connection closed).
func (n *NodeClient) Done() <-chan struct{} { return n.doneCh }

// UseStart reports that the tool started being used.
func (n *NodeClient) UseStart(nodeTime time.Duration, hits int) error {
	n.wm.Lock()
	defer n.wm.Unlock()
	n.seq++
	n.pkt.us = wire.UsageStart{
		UID:       n.uid,
		Seq:       n.seq,
		NodeTime:  uint32(nodeTime / time.Millisecond),
		Hits:      uint8(hits),
		Threshold: 100,
	}
	//coreda:vet-ignore lockheld wm orders seq increment and socket write as one atomic report
	return n.write(&n.pkt.us)
}

// UseEnd reports that usage ceased after the given duration.
func (n *NodeClient) UseEnd(nodeTime, duration time.Duration) error {
	n.wm.Lock()
	defer n.wm.Unlock()
	n.seq++
	n.pkt.ue = wire.UsageEnd{
		UID:        n.uid,
		Seq:        n.seq,
		NodeTime:   uint32(nodeTime / time.Millisecond),
		DurationMs: uint32(duration / time.Millisecond),
	}
	//coreda:vet-ignore lockheld wm orders seq increment and socket write as one atomic report
	return n.write(&n.pkt.ue)
}

// Hello introduces the node, naming the household it belongs to — the
// fleet server's routing handshake. Without one, the server serves the
// node as its default household, if it has one.
func (n *NodeClient) Hello(household string) error {
	n.wm.Lock()
	defer n.wm.Unlock()
	n.seq++
	//coreda:vet-ignore lockheld wm orders seq increment and socket write as one atomic report
	return n.write(&wire.Hello{
		UID:          n.uid,
		Seq:          n.seq,
		HelloVersion: wire.HelloVersion,
		Household:    household,
	})
}

// Redirected reports that a fleet cluster answered the node's hello by
// naming the peer that owns its household; the node should reconnect to
// Addr.
type Redirected struct{ Addr string }

// Error implements error.
func (r *Redirected) Error() string { return "rtbridge: household served by " + r.Addr }

// HelloWait sends a hello and waits for the cluster's verdict: nil when
// the household is served on this connection, *Redirected when the
// owning peer is elsewhere, or an error when the connection dies or
// timeout passes first. Plain Hello stays fire-and-forget for
// single-process servers; cluster-aware nodes use this (via DialCluster)
// so they never stream usage to a process that would drop it.
func (n *NodeClient) HelloWait(household string, timeout time.Duration) error {
	n.wm.Lock()
	n.seq++
	n.helloSeq = n.seq
	n.helloWait = true
	// Drain a stale verdict from an earlier HelloWait that timed out
	// after the reply arrived.
	select {
	case <-n.helloCh:
	default:
	}
	//coreda:vet-ignore lockheld wm orders seq increment and socket write as one atomic report
	err := n.write(&wire.Hello{
		UID:          n.uid,
		Seq:          n.seq,
		HelloVersion: wire.HelloVersion,
		Household:    household,
	})
	n.wm.Unlock()
	if err != nil {
		return err
	}
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case addr := <-n.helloCh:
		if addr != "" {
			return &Redirected{Addr: addr}
		}
		return nil
	case <-n.doneCh:
		return errors.New("rtbridge: connection closed awaiting hello ack")
	case <-timer.C:
		return errors.New("rtbridge: timed out awaiting hello ack")
	}
}

// DialCluster connects a node to a fleet cluster: it dials addr, greets
// with household, and follows redirects (bounded, in case a rebalance is
// racing the dial) until a peer accepts the household. timeout bounds
// each hello round trip.
func DialCluster(addr, household string, uid uint16, onLED func(LEDEvent), timeout time.Duration) (*NodeClient, error) {
	const maxHops = 3
	for hop := 0; ; hop++ {
		n, err := DialNode(addr, uid, onLED)
		if err != nil {
			return nil, err
		}
		err = n.HelloWait(household, timeout)
		if err == nil {
			return n, nil
		}
		n.Close()
		var rd *Redirected
		if !errors.As(err, &rd) || hop == maxHops {
			return nil, err
		}
		addr = rd.Addr
	}
}

// Heartbeat sends a liveness beacon.
func (n *NodeClient) Heartbeat(uptime time.Duration) error {
	n.wm.Lock()
	defer n.wm.Unlock()
	n.seq++
	n.pkt.hb = wire.Heartbeat{
		UID:      n.uid,
		Seq:      n.seq,
		UptimeMs: uint32(uptime / time.Millisecond),
		Battery:  100,
	}
	//coreda:vet-ignore lockheld wm orders seq increment and socket write as one atomic report
	return n.write(&n.pkt.hb)
}

// write must be called with wm held. It encodes into the client's
// scratch buffer, so steady reporting does not allocate per frame.
//
//coreda:hotpath
func (n *NodeClient) write(p wire.Packet) error {
	frame, err := wire.AppendFrame(n.buf[:0], p)
	if err != nil {
		return err
	}
	n.buf = frame
	_, err = n.conn.Write(frame)
	return err
}

func (n *NodeClient) readLoop() {
	defer close(n.doneCh)
	// Close on exit so writers fail fast instead of feeding a dead peer.
	defer n.Close()
	// The loop is the conn's only reader, so it may read ahead: a burst
	// of acks and LED commands costs one socket read, not three per frame.
	r := wire.NewReader(bufio.NewReaderSize(n.conn, readBufSize))
	var f wire.Frame
	for {
		n.wm.Lock()
		d := n.timeout
		n.wm.Unlock()
		if d > 0 {
			n.conn.SetReadDeadline(time.Now().Add(d))
		}
		if err := r.ReadFrame(&f); err != nil {
			if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
				n.readEr = err
			}
			return
		}
		switch f.Kind {
		case wire.TypeLEDCommand:
			cmd := &f.LEDCommand
			if n.onLED != nil {
				n.onLED(LEDEvent{
					Color:  cmd.Color,
					Blinks: int(cmd.Blinks),
					Period: time.Duration(cmd.PeriodMs) * time.Millisecond,
				})
			}
			n.wm.Lock()
			n.pkt.ack = wire.Ack{UID: n.uid, Seq: cmd.Seq}
			//coreda:vet-ignore lockheld wm guards the shared frame scratch across the ack write
			err := n.write(&n.pkt.ack)
			n.wm.Unlock()
			if err != nil {
				return
			}
		case wire.TypeAck:
			// Usage-report acks need nothing over TCP, but an ack of an
			// in-flight HelloWait is its "served here" verdict.
			n.resolveHello(f.Ack.Seq, "")
		case wire.TypeRedirect:
			n.resolveHello(f.Redirect.Seq, f.Redirect.Addr)
		}
	}
}

// resolveHello delivers a hello verdict (ack or redirect) to a pending
// HelloWait, if seq matches the hello in flight.
func (n *NodeClient) resolveHello(seq uint16, addr string) {
	n.wm.Lock()
	pending := n.helloWait && seq == n.helloSeq
	if pending {
		n.helloWait = false
	}
	n.wm.Unlock()
	if !pending {
		return
	}
	select {
	case n.helloCh <- addr:
	default:
	}
}
