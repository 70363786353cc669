package main

import (
	"bufio"
	"fmt"
	"net"
	"sync/atomic"
	"time"

	"coreda/internal/wire"
)

// ledRead is an LED command as the gateway read it, with when.
type ledRead struct {
	ledCmd
	At int64
}

// gateway is one simulated home gateway on its own TCP connection: a
// sender writes the schedule's batches on time, and a separate reader
// collects acks and LED commands, so the sender never waits on the
// server and a server stall shows up as latency, not as lower load.
type gateway struct {
	sch  *schedule
	conn net.Conn

	// Sender-owned.
	sentAt   []int64 // per report: when its batch write began
	wroteAt  []int64 // per report: when its batch write returned
	lateNS   []float64
	maxOut   int64 // most acks outstanding after any write
	writeErr error

	// Reader-owned; read by others only after the reader exits.
	ackOrder []int   // reports that expect an ack, in send order
	ackAt    []int64 // per report: when its ack was read (0 = never)
	leds     []ledRead
	badAcks  int
	readErr  error

	// Sender scratch packets, so encoding a report allocates nothing.
	start wire.UsageStart
	end   wire.UsageEnd
	beat  wire.Heartbeat

	acks     atomic.Int64 // acks read so far
	wantLEDs int          // LED commands the reference replay expects
	done     chan struct{}
}

// dialGateway connects, says hello as sch.Household, announces every
// tool node with a heartbeat (the server routes LED commands only to
// nodes it has heard from) and waits for the hello's ack.
func dialGateway(addr string, sch *schedule, wantLEDs int) (*gateway, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	tools := teaTools()
	buf, err := wire.AppendFrame(nil, &wire.Hello{UID: tools[0], Seq: 0, HelloVersion: wire.HelloVersion, Household: sch.Household})
	for _, uid := range tools {
		if err == nil {
			buf, err = wire.AppendFrame(buf, &wire.Heartbeat{UID: uid, Battery: 100})
		}
	}
	if err != nil {
		conn.Close()
		return nil, err
	}
	if _, err := conn.Write(buf); err != nil {
		conn.Close()
		return nil, err
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	var f wire.Frame
	if err := wire.NewReader(conn).ReadFrame(&f); err != nil {
		conn.Close()
		return nil, fmt.Errorf("hello %s: %w", sch.Household, err)
	}
	if f.Kind != wire.TypeAck || f.Ack.Seq != 0 {
		conn.Close()
		return nil, fmt.Errorf("hello %s: got %v, want its ack", sch.Household, f.Kind)
	}
	conn.SetReadDeadline(time.Time{})
	g := &gateway{
		sch:      sch,
		conn:     conn,
		sentAt:   make([]int64, len(sch.Reports)),
		wroteAt:  make([]int64, len(sch.Reports)),
		ackAt:    make([]int64, len(sch.Reports)),
		wantLEDs: wantLEDs,
		done:     make(chan struct{}),
	}
	for i, r := range sch.Reports {
		if r.acked() {
			g.ackOrder = append(g.ackOrder, i)
		}
	}
	return g, nil
}

// send writes every batch at its due instant after base. A late batch is
// written as soon as the sender gets to it; lateness is recorded, and
// each report is timed from its batch's actual write.
func (g *gateway) send(base time.Time) {
	var (
		buf  []byte
		next int // first report of the current batch
		sent int // acked reports written so far
	)
	for b := 0; b < g.sch.Batches; b++ {
		due := base.Add(g.sch.batchDue(b))
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		buf = buf[:0]
		end := next
		for end < len(g.sch.Reports) && g.sch.Reports[end].Batch == b {
			var err error
			if buf, err = wire.AppendFrame(buf, g.packet(g.sch.Reports[end])); err != nil {
				g.writeErr = err
				return
			}
			if g.sch.Reports[end].acked() {
				sent++
			}
			end++
		}
		if end == next {
			continue
		}
		t0 := clock()
		_, err := g.conn.Write(buf)
		t1 := clock()
		if err != nil {
			g.writeErr = err
			return
		}
		g.lateNS = append(g.lateNS, float64(t0-due.Sub(epoch).Nanoseconds()))
		for i := next; i < end; i++ {
			g.sentAt[i], g.wroteAt[i] = t0, t1
		}
		if out := int64(sent) - g.acks.Load(); out > g.maxOut {
			g.maxOut = out
		}
		next = end
	}
}

// read collects acks and LED commands until the connection closes. It
// closes done once every ack and every expected LED command has arrived.
func (g *gateway) read() {
	r := wire.NewReader(bufio.NewReaderSize(g.conn, 4096))
	var (
		f      wire.Frame
		p      int
		closed bool
	)
	check := func() {
		if !closed && p == len(g.ackOrder) && len(g.leds) >= g.wantLEDs {
			closed = true
			close(g.done)
		}
	}
	check()
	for {
		if err := r.ReadFrame(&f); err != nil {
			g.readErr = err
			return
		}
		now := clock()
		switch f.Kind {
		case wire.TypeAck:
			if p >= len(g.ackOrder) {
				g.badAcks++
				continue
			}
			i := g.ackOrder[p]
			if rep := g.sch.Reports[i]; rep.Seq != f.Ack.Seq || rep.UID != f.Ack.UID {
				g.badAcks++
			}
			g.ackAt[i] = now
			p++
			g.acks.Store(int64(p))
		case wire.TypeLEDCommand:
			c := f.LEDCommand
			g.leds = append(g.leds, ledRead{ledCmd: ledCmd{UID: c.UID, Color: c.Color, Blinks: c.Blinks}, At: now})
		}
		check()
	}
}

// packet fills the sender's scratch packet for a scheduled report.
func (g *gateway) packet(r report) wire.Packet {
	ms := uint32(r.Due / time.Millisecond)
	switch r.Kind {
	case wire.TypeUsageStart:
		g.start = wire.UsageStart{UID: r.UID, Seq: r.Seq, Sensor: 1, NodeTime: ms, Hits: r.Hits, Threshold: 150}
		return &g.start
	case wire.TypeUsageEnd:
		g.end = wire.UsageEnd{UID: r.UID, Seq: r.Seq, NodeTime: ms, DurationMs: r.DurMs}
		return &g.end
	default:
		g.beat = wire.Heartbeat{UID: r.UID, Seq: r.Seq, UptimeMs: ms, Battery: 100}
		return &g.beat
	}
}
