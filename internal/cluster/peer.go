package cluster

import (
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"net"
	"time"

	"coreda/internal/retry"
	"coreda/internal/wire"
)

// rpcTimeout bounds each peer RPC round trip (write the request, read
// the ack). Peer links are loopback or LAN; a second of silence means
// the peer is gone, not slow. A variable so the slow-replica tests can
// tighten it without waiting out real seconds.
var rpcTimeout = time.Second

// Dialer opens the transport to a peer address. The default is
// net.Dial; the chaos soak swaps in a chaosnet-wrapped dialer so peer
// links run over faulty conns too.
type Dialer func(addr string) (net.Conn, error)

// peer is an outbound link to one cluster peer. The connection is owned
// by whoever holds the checkout token (conns, capacity 1): an RPC
// checks the conn out, performs the whole request/response exchange,
// and checks it back in — exclusive use without a mutex held across
// socket I/O, and a failed exchange simply discards the conn so the
// next RPC redials.
type peer struct {
	addr  string
	dial  Dialer
	hello func() *wire.PeerHello // our handshake, built by the node
	rng   *rand.Rand             // retry jitter stream, owned by the checkout holder
	pol   retry.Policy
	conns chan *peerConn // capacity 1: nil-able checkout token
	// nodeAddr is the peer's node-facing address learned from its
	// PeerHello reply (written once under checkout, read via NodeAddr).
	nodeAddr chan string
}

// peerConn is one established, handshaken connection to a peer.
type peerConn struct {
	c   net.Conn
	w   *wire.Writer
	r   *wire.Reader
	seq uint16
	f   wire.Frame
	buf []byte // body scratch for outgoing transfers
}

func newPeer(addr string, dial Dialer, rng *rand.Rand, hello func() *wire.PeerHello) *peer {
	if dial == nil {
		dial = func(addr string) (net.Conn, error) { return net.Dial("tcp", addr) }
	}
	p := &peer{
		addr:     addr,
		dial:     dial,
		hello:    hello,
		rng:      rng,
		pol:      retry.Default(),
		conns:    make(chan *peerConn, 1),
		nodeAddr: make(chan string, 1),
	}
	p.conns <- nil // the token starts out as "no connection yet"
	return p
}

// NodeAddr returns the peer's node-facing address, if its handshake has
// completed ("" otherwise).
func (p *peer) NodeAddr() string {
	select {
	case a := <-p.nodeAddr:
		p.nodeAddr <- a
		return a
	default:
		return ""
	}
}

func (p *peer) setNodeAddr(a string) {
	select {
	case <-p.nodeAddr:
	default:
	}
	p.nodeAddr <- a
}

// checkout takes exclusive ownership of the link, dialing and
// handshaking if there is no live connection.
func (p *peer) checkout() (*peerConn, error) {
	pc := <-p.conns
	if pc != nil {
		return pc, nil
	}
	c, err := p.dial(p.addr)
	if err != nil {
		p.conns <- nil
		return nil, err
	}
	pc = &peerConn{c: c, w: wire.NewWriter(c), r: wire.NewReader(c)}
	if err := p.handshake(pc); err != nil {
		pc.close()
		p.conns <- nil
		return nil, err
	}
	return pc, nil
}

// ensure makes sure a handshaken connection exists (dialing if needed)
// without performing an RPC — how redirect routing learns the peer's
// advertised NodeAddr before any replication traffic has flowed.
func (p *peer) ensure() error {
	pc, err := p.checkout()
	if err != nil {
		return err
	}
	p.checkin(pc)
	return nil
}

// checkin returns the link after a successful exchange.
func (p *peer) checkin(pc *peerConn) { p.conns <- pc }

// discard drops a failed connection; the next checkout redials.
func (p *peer) discard(pc *peerConn) {
	pc.close()
	p.conns <- nil
}

func (pc *peerConn) close() {
	pc.w.Release()
	pc.c.Close()
}

// Close shuts the link down (a checked-out conn is closed by its holder
// via discard when its exchange fails).
func (p *peer) Close() {
	select {
	case pc := <-p.conns:
		if pc != nil {
			pc.close()
		}
		p.conns <- nil
	default:
	}
}

// handshake exchanges peer hellos on a fresh connection: ours out, the
// peer's back. The peer's hello carries its node-facing address, which
// Route hands to redirected nodes.
func (p *peer) handshake(pc *peerConn) error {
	pc.c.SetDeadline(time.Now().Add(rpcTimeout))
	defer pc.c.SetDeadline(time.Time{})
	if err := pc.w.WritePacket(p.hello()); err != nil {
		return fmt.Errorf("cluster: peer hello to %s: %w", p.addr, err)
	}
	if err := pc.r.ReadFrame(&pc.f); err != nil {
		return fmt.Errorf("cluster: peer hello reply from %s: %w", p.addr, err)
	}
	if pc.f.Kind != wire.TypePeerHello {
		return fmt.Errorf("cluster: peer %s answered hello with %v", p.addr, pc.f.Kind)
	}
	p.setNodeAddr(pc.f.PeerHello.NodeAddr)
	return nil
}

// rpc runs one exchange with retry: op sends a request on the conn and
// reads its reply. Each attempt gets a deadline; a failed attempt
// discards the conn so the retry redials from scratch.
func (p *peer) rpc(op func(pc *peerConn) error) error {
	return p.pol.Do(p.rng, func(int) error {
		pc, err := p.checkout()
		if err != nil {
			return err
		}
		pc.c.SetDeadline(time.Now().Add(rpcTimeout))
		err = op(pc)
		if err != nil {
			p.discard(pc)
			return err
		}
		pc.c.SetDeadline(time.Time{})
		p.checkin(pc)
		return nil
	})
}

// awaitAck reads frames until the ack for seq arrives (tolerating
// interleaved non-ack traffic, e.g. a concurrent server-side log ping).
func (pc *peerConn) awaitAck(seq uint16) error {
	for {
		if err := pc.r.ReadFrame(&pc.f); err != nil {
			return err
		}
		if pc.f.Kind == wire.TypeAck && pc.f.Ack.Seq == seq {
			return nil
		}
	}
}

// Replicate pushes one checkpoint blob to the peer, retrying per the
// link policy. fsync asks the peer to persist durably before acking.
func (p *peer) Replicate(name string, blob []byte, fsync bool) error {
	if len(name) > wire.MaxHousehold || len(blob) > wire.MaxBlob {
		return fmt.Errorf("cluster: replicate %s: oversized transfer (%d byte blob)", name, len(blob))
	}
	var flags uint8
	if fsync {
		flags = wire.FlagFsync
	}
	// Header frame, then household name and blob raw on the stream,
	// then the ack.
	return p.rpc(func(pc *peerConn) error {
		pc.seq++
		if err := pc.w.QueuePacket(&wire.Replicate{
			Seq:     pc.seq,
			Flags:   flags,
			NameLen: uint8(len(name)),
			Size:    uint32(len(blob)),
			CRC:     crc32.ChecksumIEEE(blob),
		}); err != nil {
			return err
		}
		if err := pc.w.Flush(); err != nil {
			return err
		}
		pc.buf = append(pc.buf[:0], name...)
		pc.buf = append(pc.buf, blob...)
		if _, err := pc.c.Write(pc.buf); err != nil {
			return err
		}
		return pc.awaitAck(pc.seq)
	})
}

// readBody reads the raw name+blob body following a Replicate header,
// verifying length and blob CRC.
func readBody(r io.Reader, nameLen int, size, crc uint32) (name string, blob []byte, err error) {
	body := make([]byte, nameLen+int(size))
	if _, err := io.ReadFull(r, body); err != nil {
		return "", nil, fmt.Errorf("cluster: transfer body: %w", err)
	}
	blob = body[nameLen:]
	if got := crc32.ChecksumIEEE(blob); got != crc {
		return "", nil, fmt.Errorf("cluster: transfer body CRC mismatch: got %08x want %08x", got, crc)
	}
	return string(body[:nameLen]), blob, nil
}
