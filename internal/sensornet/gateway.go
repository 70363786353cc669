package sensornet

import (
	"cmp"
	"fmt"
	"time"

	"coreda/internal/adl"
	"coreda/internal/sim"
	"coreda/internal/wire"
)

// UsageKind distinguishes start and end of a tool usage.
type UsageKind int

// Usage event kinds.
const (
	UsageStarted UsageKind = iota + 1
	UsageEnded
)

// String returns the kind name.
func (k UsageKind) String() string {
	switch k {
	case UsageStarted:
		return "started"
	case UsageEnded:
		return "ended"
	default:
		return fmt.Sprintf("UsageKind(%d)", int(k))
	}
}

// UsageEvent is the gateway's deduplicated, decoded view of a node usage
// report — the input contract of the sensing subsystem.
type UsageEvent struct {
	// Tool is the tool (== node UID) the event concerns.
	Tool adl.ToolID
	// Kind says whether usage started or ended.
	Kind UsageKind
	// At is the gateway receive time (virtual).
	At time.Duration
	// Duration is how long the tool was used (end events only).
	Duration time.Duration
	// Hits is how many window samples exceeded the threshold when
	// detection fired (start events only).
	Hits int
}

// GatewayStats counts gateway-level events.
type GatewayStats struct {
	UsageStarts int
	UsageEnds   int
	Duplicates  int
	Heartbeats  int
	LEDSent     int
	LEDDropped  int
	// OfflineEvents / OnlineEvents count supervision state transitions
	// (a node declared dead / a dead node reappearing).
	OfflineEvents int
	OnlineEvents  int
}

// Gateway is the server-side radio endpoint: it deduplicates node reports,
// acknowledges them, delivers UsageEvents to a handler, and pushes LED
// commands to nodes with ack-based retransmission.
type Gateway struct {
	sched   *sim.Scheduler
	medium  *Medium
	handler func(UsageEvent)

	lastSeq map[uint16]uint16
	seq     uint16
	pending map[uint16]*pendingTx

	// Liveness supervision, nil until Supervise.
	sup         *Supervisor[uint16]
	onNodeState func(uid uint16, online bool)

	// Stats accumulates gateway events.
	Stats GatewayStats
}

// NewGateway creates a gateway on the medium. handler receives every
// deduplicated usage event; it may be nil.
func NewGateway(sched *sim.Scheduler, medium *Medium, handler func(UsageEvent)) *Gateway {
	g := &Gateway{
		sched:   sched,
		medium:  medium,
		handler: handler,
		lastSeq: make(map[uint16]uint16),
		pending: make(map[uint16]*pendingTx),
	}
	medium.setGateway(g)
	return g
}

// Supervise watches uids from now, sweeping every interval (the nodes'
// heartbeat interval); onState gets expiries in UID order and each
// recovery as its frame arrives; it may be nil. Unwatched nodes never
// transition. A non-positive interval supervises nothing. It panics if
// the gateway is already supervised.
func (g *Gateway) Supervise(interval time.Duration, onState func(uid uint16, online bool), uids ...uint16) {
	if interval <= 0 {
		return
	}
	if g.sup != nil {
		panic("sensornet: Gateway.Supervise called twice")
	}
	if onState == nil {
		onState = func(uint16, bool) {}
	}
	g.sup = NewSupervisor(interval, cmp.Compare[uint16])
	g.onNodeState = onState
	for _, uid := range uids {
		g.sup.Watch(uid, g.sched.Now())
	}
	g.sched.Every(interval, func() {
		for _, uid := range g.sup.Expire(g.sched.Now()) {
			g.Stats.OfflineEvents++
			g.onNodeState(uid, false)
		}
	})
}

// touch records traffic from a node and flips it back ONLINE if it had
// been declared dead — recovery is symmetric with failure.
func (g *Gateway) touch(uid uint16) {
	if g.sup != nil && g.sup.Frame(uid, g.sched.Now()) {
		g.Stats.OnlineEvents++
		g.onNodeState(uid, true)
	}
}

// SetHandler replaces the usage-event handler.
func (g *Gateway) SetHandler(handler func(UsageEvent)) { g.handler = handler }

// SendLED commands a node to blink one of its LEDs. The command is
// retransmitted until acknowledged or MaxRetries is exhausted.
func (g *Gateway) SendLED(uid uint16, color wire.LEDColor, blinks uint8, period time.Duration) {
	g.seq++
	cmd := &wire.LEDCommand{
		UID:      uid,
		Seq:      g.seq,
		Color:    color,
		Blinks:   blinks,
		PeriodMs: uint16(period / time.Millisecond),
	}
	frame, err := wire.Encode(cmd)
	if err != nil {
		panic(fmt.Sprintf("sensornet: encoding LED command: %v", err))
	}
	g.Stats.LEDSent++
	tx := &pendingTx{frame: frame}
	g.pending[cmd.Seq] = tx
	g.transmit(uid, cmd.Seq, tx)
}

func (g *Gateway) transmit(uid, seq uint16, tx *pendingTx) {
	tx.tries++
	g.medium.toNode(uid, tx.frame)
	tx.timer = g.sched.After(AckTimeout+g.medium.backoffJitter(), func() {
		if _, still := g.pending[seq]; !still {
			return
		}
		if tx.tries > MaxRetries {
			delete(g.pending, seq)
			g.Stats.LEDDropped++
			return
		}
		g.transmit(uid, seq, tx)
	})
}

// receive handles a frame delivered by the medium.
func (g *Gateway) receive(frame []byte) {
	p, err := wire.Decode(frame)
	if err != nil {
		return // corrupted in flight
	}
	switch pkt := p.(type) {
	case *wire.UsageStart:
		g.touch(pkt.UID)
		if !g.accept(pkt.UID, pkt.Seq) {
			return
		}
		g.Stats.UsageStarts++
		g.emit(UsageEvent{
			Tool: adl.ToolID(pkt.UID),
			Kind: UsageStarted,
			At:   g.sched.Now(),
			Hits: int(pkt.Hits),
		})
	case *wire.UsageEnd:
		g.touch(pkt.UID)
		if !g.accept(pkt.UID, pkt.Seq) {
			return
		}
		g.Stats.UsageEnds++
		g.emit(UsageEvent{
			Tool:     adl.ToolID(pkt.UID),
			Kind:     UsageEnded,
			At:       g.sched.Now(),
			Duration: time.Duration(pkt.DurationMs) * time.Millisecond,
		})
	case *wire.Heartbeat:
		g.touch(pkt.UID)
		g.Stats.Heartbeats++
	case *wire.Ack:
		g.touch(pkt.UID)
		if tx, ok := g.pending[pkt.Seq]; ok {
			tx.timer.Cancel()
			delete(g.pending, pkt.Seq)
		}
	}
}

// accept acknowledges a usage report and returns false if it is a
// retransmission the gateway already processed.
func (g *Gateway) accept(uid, seq uint16) bool {
	ack, err := wire.Encode(&wire.Ack{UID: uid, Seq: seq})
	if err != nil {
		panic(fmt.Sprintf("sensornet: encoding ack: %v", err))
	}
	g.medium.toNode(uid, ack)
	// Node sequence numbers are monotonic, so anything not strictly newer
	// (in serial-number arithmetic, robust to uint16 wrap) is a
	// retransmission or a stale reordered copy.
	if last, seen := g.lastSeq[uid]; seen && int16(seq-last) <= 0 {
		g.Stats.Duplicates++
		return false
	}
	g.lastSeq[uid] = seq
	return true
}

func (g *Gateway) emit(e UsageEvent) {
	if g.handler != nil {
		g.handler(e)
	}
}
