package fleet

import (
	"bufio"
	"cmp"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"sync"
	"time"

	"coreda"
	"coreda/internal/reminding"
	"coreda/internal/sensornet"
	"coreda/internal/wire"
)

// ServeConfig configures a fleet TCP front end.
type ServeConfig struct {
	// Speed is how many virtual seconds elapse per wall-clock second
	// (zero means 1). One virtual clock paces every tenant.
	Speed float64
	// Tick is the clock-pump granularity in wall time (zero means 50 ms).
	Tick time.Duration
	// CheckpointEvery batch-flushes every dirty tenant at this wall
	// interval (zero means 30 s; negative disables periodic flushing —
	// eviction and Stop still checkpoint).
	CheckpointEvery time.Duration
	// DefaultHousehold receives traffic from connections that never sent
	// a hello — version-0 nodes predating the household handshake. Empty
	// means such traffic is dropped (logged once per connection).
	DefaultHousehold string
	// Route, when non-nil, decides household placement in a cluster: it
	// returns the owning peer's node-facing address and whether that is
	// this process. A hello for a household owned elsewhere is answered
	// with a wire.Redirect naming addr instead of being registered. Nil
	// means every household is local (single-process fleet).
	Route func(household string) (addr string, local bool)
	// AfterFlush, when non-nil, runs after each periodic batch
	// checkpoint flush in Run — the cluster layer's hook to fan the
	// freshly written checkpoints out to replica peers.
	AfterFlush func()
	// ReadTimeout, when positive, bounds each frame read so a node that
	// vanishes without a FIN cannot leak its reader goroutine.
	ReadTimeout time.Duration
	// WriteTimeout, when positive, bounds each frame write (acks, LED
	// commands).
	WriteTimeout time.Duration
	// Supervise, when positive, arms node-liveness supervision: every
	// Supervise of virtual time, each node that has sent a frame and
	// then stayed silent for more than three intervals is declared
	// offline to its household (degrading it and alerting the
	// caregiver), and the node's next frame brings it back online.
	Supervise time.Duration
}

// Server exposes a Fleet over TCP: nodes speak the wire protocol, open
// with a hello frame naming their household, and all subsequent traffic
// routes to that household's tenant on its owning shard. Nodes that
// never say hello fall back to DefaultHousehold, so pre-hello nodes keep
// working against a fleet of one.
//
// The serving layer is the fleet's wall-clock boundary: connection
// goroutines deliver into shard queues, and a pump goroutine advances
// the shared virtual clock — everything inside the shards stays
// deterministic virtual time. It logs through the fleet's
// Config.OnLog.
type Server struct {
	f   *Fleet
	cfg ServeConfig

	start   time.Time
	done    chan struct{}
	stopped sync.Once
	// pump counts the running Run calls, so Stop can wait them out. Run
	// joins it under mu only while done is open.
	pump sync.WaitGroup

	mu    sync.Mutex
	conns map[connKey]*fleetConn // a node's latest connection: its LED route
	all   map[*fleetConn]struct{}
	seq   uint16
	// sup, used under Supervise, watches each node from its first frame
	// and past its connection, a dead node's socket being often gone.
	// recovered queues its recoveries for the pump. Both guarded by mu.
	sup       *sensornet.Supervisor[connKey]
	recovered []connKey
}

// readBufSize is each node connection's read buffer. One socket read
// takes in a whole burst of frames (a gateway's write batch) instead of
// one read per frame part; a burst larger than this just takes another
// read.
const readBufSize = 4096

// fleetConn is one node connection and the household it greeted as.
type fleetConn struct {
	c       net.Conn
	timeout time.Duration
	wm      sync.Mutex // serializes frame queueing and flushes (acks vs LED commands)
	w       *wire.Writer
	closed  bool // set by release under wm: later writes fail instead of drawing a fresh buffer
	// ackPkt is reusable ack scratch, owned by the connection's reader
	// goroutine (the only sender of acks).
	ackPkt wire.Ack
	// regs lists the Server.conns entries this connection registered,
	// so unregister can drop them; guarded by Server.mu.
	regs []connKey

	// household and warned ("no hello, no default" logged once) are
	// owned by the connection's reader goroutine.
	household string
	warned    bool
}

// connKey names one node: its LED route in Server.conns and its entry
// in the supervisor.
type connKey struct {
	household string
	uid       uint16
}

// queue appends one frame to the connection's pending output without
// writing it; the next flush carries it.
func (nc *fleetConn) queue(p wire.Packet) error {
	nc.wm.Lock()
	defer nc.wm.Unlock()
	if nc.closed {
		return net.ErrClosed
	}
	return nc.w.QueuePacket(p)
}

// write sends one frame now, together with any acks queued before it,
// so an LED command or redirect never waits on the reader and never
// overtakes the ack of the report that caused it.
func (nc *fleetConn) write(p wire.Packet) error {
	if err := nc.queue(p); err != nil {
		return err
	}
	return nc.flush()
}

// flush writes every queued frame in one syscall. It is the
// connection's only write site.
func (nc *fleetConn) flush() error {
	nc.wm.Lock()
	defer nc.wm.Unlock()
	if nc.w.Buffered() == 0 {
		return nil
	}
	if nc.timeout > 0 {
		nc.c.SetWriteDeadline(time.Now().Add(nc.timeout)) //coreda:vet-ignore nondeterminism serving-layer socket deadline is wall-clock by nature
	}
	//coreda:vet-ignore lockheld wm exists to serialize whole frames onto the socket; holding it across the flush is the point
	return nc.w.Flush()
}

// release recycles the writer's pooled frame buffer once the connection
// is done.
func (nc *fleetConn) release() {
	nc.wm.Lock()
	nc.closed = true
	nc.w.Release()
	nc.wm.Unlock()
}

// flushingReader is the socket side of a connection's read buffer. The
// bufio.Reader calls it only when it needs bytes it does not hold, that
// is when the connection's reader is about to block: that is the moment
// to flush the acks queued for the frames already read. Acks therefore
// leave in one write per burst and never wait on the peer sending more.
type flushingReader struct {
	srv *Server
	nc  *fleetConn
}

func (r flushingReader) Read(p []byte) (int, error) {
	if err := r.nc.flush(); err != nil {
		r.srv.f.log("acks to %s: %v", r.nc.c.RemoteAddr(), err)
	}
	return r.nc.c.Read(p)
}

// NewServer wraps a fleet that has not been started yet: it installs the
// LED write-back hook into the fleet's tenant configs, then starts the
// fleet. Call Run for the clock pump and Serve to accept nodes.
func NewServer(f *Fleet, cfg ServeConfig) (*Server, error) {
	if cfg.Speed <= 0 {
		cfg.Speed = 1
	}
	if cfg.Tick <= 0 {
		cfg.Tick = 50 * time.Millisecond
	}
	if cfg.CheckpointEvery == 0 {
		cfg.CheckpointEvery = 30 * time.Second
	}
	if cfg.DefaultHousehold != "" && !ValidHousehold(cfg.DefaultHousehold) {
		return nil, fmt.Errorf("fleet: invalid default household %q", cfg.DefaultHousehold)
	}
	srv := &Server{
		f:     f,
		cfg:   cfg,
		start: time.Now(), //coreda:vet-ignore nondeterminism the serving pump is the sanctioned wall-to-virtual boundary
		done:  make(chan struct{}),
		conns: make(map[connKey]*fleetConn),
		all:   make(map[*fleetConn]struct{}),
		sup: sensornet.NewSupervisor(cfg.Supervise, func(a, b connKey) int {
			return cmp.Or(cmp.Compare(a.household, b.household), cmp.Compare(a.uid, b.uid))
		}),
	}
	if f.state.Load() != fleetBuilt {
		return nil, fmt.Errorf("fleet: NewServer requires a fleet that has not been started")
	}
	if f.cfg.LEDs == nil {
		f.cfg.LEDs = func(household string) reminding.LEDs {
			return serveLEDs{srv: srv, household: household}
		}
	}
	f.Start()
	return srv, nil
}

// virtualNow is the shared virtual clock every tenant is paced by.
func (srv *Server) virtualNow() time.Duration {
	return time.Duration(float64(time.Since(srv.start)) * srv.cfg.Speed) //coreda:vet-ignore nondeterminism the serving pump is the sanctioned wall-to-virtual boundary
}

// Run pumps the tenants' virtual clocks from the wall clock, sweeps
// node liveness under Supervise, and drives periodic batch
// checkpointing until Stop, or until a tick finds the fleet stopped.
// Run it in one goroutine.
func (srv *Server) Run() {
	srv.mu.Lock()
	select {
	case <-srv.done:
		srv.mu.Unlock()
		return
	default:
	}
	srv.pump.Add(1)
	srv.mu.Unlock()
	defer srv.pump.Done()
	ticker := time.NewTicker(srv.cfg.Tick) //coreda:vet-ignore nondeterminism the serving pump is the sanctioned wall-to-virtual boundary
	defer ticker.Stop()
	var sinceFlush time.Duration
	nextSweep := srv.cfg.Supervise
	for {
		select {
		case <-srv.done:
			return
		case <-ticker.C:
			now := srv.virtualNow()
			if srv.f.Advance(now) != nil {
				return
			}
			if srv.cfg.Supervise > 0 {
				sweep := now >= nextSweep
				if sweep {
					nextSweep = now + srv.cfg.Supervise
				}
				srv.supervise(now, sweep)
			}
			if srv.cfg.CheckpointEvery > 0 {
				sinceFlush += srv.cfg.Tick
				if sinceFlush >= srv.cfg.CheckpointEvery {
					sinceFlush = 0
					srv.f.Flush()
					if srv.cfg.AfterFlush != nil {
						srv.cfg.AfterFlush()
					}
				}
			}
		}
	}
}

// Stop halts the pump, closes every node connection and returns once
// a running Run has returned. The fleet itself is left to the caller
// (typically f.Stop right after, which takes the final checkpoint).
func (srv *Server) Stop() {
	srv.stopped.Do(func() {
		srv.mu.Lock()
		close(srv.done)
		for nc := range srv.all {
			nc.c.Close()
		}
		srv.mu.Unlock()
		srv.pump.Wait()
	})
}

// Serve accepts node connections until the listener fails or Stop.
func (srv *Server) Serve(l net.Listener) error {
	for {
		conn, err := l.Accept()
		if err != nil {
			select {
			case <-srv.done:
				return nil
			default:
				return err
			}
		}
		go srv.HandleConn(conn)
	}
}

// HandleConn reads frames from one node connection until EOF, a fatal
// decode error, or — with ReadTimeout set — prolonged silence. There is
// no central packet loop: the fleet's shard queues are the
// serialization point, so each connection goroutine delivers directly.
//
// Frames come through a fixed readBufSize buffer, so a burst of reports
// costs one socket read. Acks are queued, and flushed in one write just
// before the reader blocks on the socket again; LED commands and
// redirects are written at once, carrying any acks queued ahead of them.
// On exit the connection's LED routes are dropped, unless a reconnect
// has already replaced them.
func (srv *Server) HandleConn(conn net.Conn) {
	nc := &fleetConn{c: conn, timeout: srv.cfg.WriteTimeout, w: wire.NewWriter(conn)}
	srv.mu.Lock()
	select {
	case <-srv.done: // Stop already closed every conn it knew of
		srv.mu.Unlock()
		conn.Close()
		return
	default:
	}
	srv.all[nc] = struct{}{}
	srv.mu.Unlock()
	defer func() {
		srv.unregister(nc)
		nc.release()
	}()
	r := wire.NewReader(bufio.NewReaderSize(flushingReader{srv: srv, nc: nc}, readBufSize))
	var f wire.Frame // reused across reads: no per-packet alloc
	for {
		if srv.cfg.ReadTimeout > 0 {
			conn.SetReadDeadline(time.Now().Add(srv.cfg.ReadTimeout)) //coreda:vet-ignore nondeterminism serving-layer socket deadline is wall-clock by nature
		}
		if err := r.ReadFrame(&f); err != nil {
			if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
				srv.f.log("conn %s: %v", conn.RemoteAddr(), err)
			}
			conn.Close()
			return
		}
		srv.handlePacket(nc, &f)
	}
}

// household resolves the tenant a connection's traffic belongs to.
func (nc *fleetConn) forHousehold(fallback string) (string, bool) {
	if nc.household != "" {
		return nc.household, true
	}
	if fallback != "" {
		return fallback, true
	}
	warned := nc.warned
	nc.warned = true
	return "", !warned // false once already warned; caller logs on true
}

func (srv *Server) handlePacket(nc *fleetConn, f *wire.Frame) {
	now := srv.virtualNow()
	switch f.Kind {
	case wire.TypeHello:
		pkt := &f.Hello
		if !ValidHousehold(pkt.Household) {
			srv.f.log("conn %s: hello with invalid household %q", nc.c.RemoteAddr(), pkt.Household)
			return
		}
		if srv.cfg.Route != nil {
			if addr, local := srv.cfg.Route(pkt.Household); !local {
				// Not ours: point the node at the owning peer. The
				// connection's household stays unset, so any traffic the
				// node sends before reconnecting is dropped, not
				// misdelivered into a tenant this process must not own.
				if err := nc.write(&wire.Redirect{Seq: pkt.Seq, Addr: addr}); err != nil {
					srv.f.log("redirect %s to %s: %v", pkt.Household, addr, err)
				}
				srv.f.log("%7.1fs node %d household %s redirected to %s", now.Seconds(), pkt.UID, pkt.Household, addr)
				return
			}
		}
		nc.household = pkt.Household
		srv.register(pkt.Household, pkt.UID, nc, now)
		srv.ack(nc, pkt.UID, pkt.Seq)
		srv.f.log("%7.1fs node %d joined household %s (hello v%d)", now.Seconds(), pkt.UID, pkt.Household, pkt.HelloVersion)
	case wire.TypeUsageStart:
		pkt := &f.UsageStart
		hh, ok := srv.resolve(nc, pkt.UID, now)
		if !ok {
			return
		}
		srv.ack(nc, pkt.UID, pkt.Seq)
		srv.deliver(hh, Event{
			Household: hh,
			At:        now,
			Kind:      EventUsage,
			Usage: coreda.UsageEvent{
				Tool: coreda.ToolID(pkt.UID),
				Kind: sensornet.UsageStarted,
				At:   now,
				Hits: int(pkt.Hits),
			},
		})
	case wire.TypeUsageEnd:
		pkt := &f.UsageEnd
		hh, ok := srv.resolve(nc, pkt.UID, now)
		if !ok {
			return
		}
		srv.ack(nc, pkt.UID, pkt.Seq)
		srv.deliver(hh, Event{
			Household: hh,
			At:        now,
			Kind:      EventUsage,
			Usage: coreda.UsageEvent{
				Tool:     coreda.ToolID(pkt.UID),
				Kind:     sensornet.UsageEnded,
				At:       now,
				Duration: time.Duration(pkt.DurationMs) * time.Millisecond,
			},
		})
	case wire.TypeHeartbeat:
		// Liveness only; register so LED write-back finds the node even
		// before its first usage report.
		srv.resolve(nc, f.Heartbeat.UID, now)
	case wire.TypeAck:
		// LED command acknowledged; TCP already guarantees delivery.
	}
}

// resolve maps a connection's packet to its household and registers the
// node for LED write-back. It returns false (logging the first time) for
// traffic with neither a hello nor a default household.
func (srv *Server) resolve(nc *fleetConn, uid uint16, now time.Duration) (string, bool) {
	hh, ok := nc.forHousehold(srv.cfg.DefaultHousehold)
	if hh == "" {
		if ok {
			srv.f.log("conn %s: traffic before hello and no default household — dropping", nc.c.RemoteAddr())
		}
		return "", false
	}
	srv.register(hh, uid, nc, now)
	return hh, true
}

func (srv *Server) deliver(hh string, ev Event) {
	if err := srv.f.Deliver(ev); err != nil {
		srv.f.log("household %s: %v", hh, err)
	}
}

// register records nc as the LED route of a node and, under Supervise,
// stamps the node's frame at now, queueing its recovery if it was
// declared offline.
func (srv *Server) register(household string, uid uint16, nc *fleetConn, now time.Duration) {
	k := connKey{household, uid}
	srv.mu.Lock()
	defer srv.mu.Unlock()
	if srv.cfg.Supervise > 0 {
		if srv.sup.Watch(k, now) {
			srv.recovered = append(srv.recovered, k)
		}
	}
	if srv.conns[k] == nc {
		return
	}
	srv.conns[k] = nc
	if !slices.Contains(nc.regs, k) {
		nc.regs = append(nc.regs, k)
	}
}

// supervise delivers node-liveness transitions at virtual time now:
// first the recoveries frames have revealed since the last tick, then,
// on a sweep, every node silent for more than three supervision
// intervals, in (household, uid) order. Only the pump goroutine calls
// it, so each household gets its transitions in the order they were
// decided.
func (srv *Server) supervise(now time.Duration, sweep bool) {
	var dead []connKey
	srv.mu.Lock()
	back := srv.recovered
	srv.recovered = nil
	if sweep {
		dead = srv.sup.Expire(now)
	}
	srv.mu.Unlock()
	for _, k := range back {
		srv.transition(k, now, true)
	}
	for _, k := range dead {
		srv.transition(k, now, false)
	}
}

// transition delivers one node's liveness change to its household. A
// household that Route places on another peer gets none: the node is
// forgotten by the supervisor instead, its transitions being the owner's
// to send.
func (srv *Server) transition(k connKey, now time.Duration, online bool) {
	if srv.cfg.Route != nil {
		if _, local := srv.cfg.Route(k.household); !local {
			srv.mu.Lock()
			srv.sup.Forget(k)
			srv.mu.Unlock()
			return
		}
	}
	state := "OFFLINE"
	if online {
		state = "back online"
	}
	srv.f.log("%7.1fs node %d household %s %s", now.Seconds(), k.uid, k.household, state)
	srv.deliver(k.household, Event{Household: k.household, At: now, Kind: EventNodeState, Tool: coreda.ToolID(k.uid), Online: online})
}

// unregister forgets a closed connection: it drops the LED routes that
// still point at nc (a reconnect may already have replaced some) so a
// later LED for those tools reports "no node connected" instead of
// writing into a dead socket.
func (srv *Server) unregister(nc *fleetConn) {
	srv.mu.Lock()
	defer srv.mu.Unlock()
	delete(srv.all, nc)
	for _, k := range nc.regs {
		if srv.conns[k] == nc {
			delete(srv.conns, k)
		}
	}
	nc.regs = nil
}

func (srv *Server) ack(nc *fleetConn, uid, seq uint16) {
	// ackPkt is owned by the reader goroutine calling this, and queue
	// copies the encoded bytes out before returning, so reuse is safe.
	// The ack leaves with the next flush: before the reader blocks, or
	// ahead of an LED command written in the meantime.
	nc.ackPkt = wire.Ack{UID: uid, Seq: seq}
	if err := nc.queue(&nc.ackPkt); err != nil {
		srv.f.log("ack to %d: %v", uid, err)
	}
}

// serveLEDs routes one household's reminder LED commands back to its
// node connections.
type serveLEDs struct {
	srv       *Server
	household string
}

// Blink implements reminding.LEDs.
func (l serveLEDs) Blink(tool coreda.ToolID, color wire.LEDColor, blinks int, period time.Duration) {
	srv := l.srv
	srv.mu.Lock()
	nc := srv.conns[connKey{l.household, uint16(tool)}]
	srv.seq++
	seq := srv.seq
	srv.mu.Unlock()
	if nc == nil {
		srv.f.log("LED %s x%d for tool %d: no node connected in household %s", color, blinks, tool, l.household)
		return
	}
	if blinks < 0 {
		blinks = 0
	}
	if blinks > 255 {
		blinks = 255
	}
	cmd := &wire.LEDCommand{
		UID:      uint16(tool),
		Seq:      seq,
		Color:    color,
		Blinks:   uint8(blinks),
		PeriodMs: uint16(period / time.Millisecond),
	}
	if err := nc.write(cmd); err != nil {
		srv.f.log("LED to %d in %s: %v", tool, l.household, err)
	}
}

var _ reminding.LEDs = serveLEDs{}
