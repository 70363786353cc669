package fleet

import (
	"fmt"
	"net"
	"runtime"
	"testing"
	"time"

	"coreda"
	"coreda/internal/adl"
	"coreda/internal/testutil"
	"coreda/internal/wire"
)

// TestShardIngestAllocBudget locks the steady-state shard ingest path —
// Deliver, tenant lookup, virtual-clock advance, Hub dispatch,
// dirty-set tracking — to a small per-event allocation budget. The shard
// loop runs on its own goroutine, so this measures a global
// runtime.MemStats malloc delta across a burst of events rather than
// testing.AllocsPerRun.
func TestShardIngestAllocBudget(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("race instrumentation allocates; alloc budgets are enforced by the no-race pass (scripts/check.sh)")
	}
	cfg := testConfig(t.TempDir())
	cfg.Shards = 1
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	f.Start()
	defer f.Stop()

	const households = 16
	ids := make([]string, households)
	for i := range ids {
		ids[i] = fmt.Sprintf("alloc-%03d", i)
	}
	tool := adl.TeaMaking().Steps[0].Tool
	deliver := func(from, n int) {
		for i := from; i < from+n; i++ {
			ev := Event{
				Household: ids[i%households],
				At:        time.Duration(i) * time.Millisecond,
				Kind:      EventUsage,
				Usage:     coreda.UsageEvent{Tool: tool, Kind: coreda.UsageStarted},
			}
			if err := f.Deliver(ev); err != nil {
				t.Fatal(err)
			}
		}
		f.Stats() // shard barrier: the loop has drained the burst
	}

	// Warm up: admissions, map growth and per-tenant buffers happen here.
	for _, id := range ids {
		if err := f.Deliver(Event{Household: id, Kind: EventAdvance}); err != nil {
			t.Fatal(err)
		}
	}
	f.Stats()
	deliver(0, 2000)

	const events = 4000
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	deliver(2000, events)
	runtime.ReadMemStats(&after)

	perEvent := float64(after.Mallocs-before.Mallocs) / events
	// The loop itself is allocation-free; the budget absorbs the handful
	// of mallocs the runtime and Hub bookkeeping spend across the whole
	// burst (timer wheel, map rehash straggler, Stats barrier).
	const budget = 0.25
	t.Logf("shard ingest: %.3f mallocs/event over %d events", perEvent, events)
	if perEvent > budget {
		t.Errorf("shard ingest allocates %.3f mallocs/event over %d events, budget %.2f", perEvent, events, budget)
	}
}

// TestAdvanceTickAllocBudget locks the clock-pump path over a shard of
// idle tenants to (almost) zero allocations per tick: the tick is a
// plain channel message (no closure capturing the deadline), the
// dispatch is a due-heap peek that finds nothing due, and no per-tick
// scratch — the old sorted-households slice — is built. The budget
// absorbs only the single Stats barrier closing the measured window.
func TestAdvanceTickAllocBudget(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("race instrumentation allocates; alloc budgets are enforced by the no-race pass (scripts/check.sh)")
	}
	cfg := testConfig(t.TempDir())
	cfg.Shards = 1
	cfg.Control = ControlInline
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	f.Start()
	defer f.Stop()

	// A population of resident households with no timers and no eviction
	// deadline (IdleEvict is off): nothing is ever due, so every tick
	// must cost O(1) — and allocate nothing.
	const resident = 1024
	for i := 0; i < resident; i++ {
		if err := f.Deliver(Event{Household: fmt.Sprintf("idle-%04d", i), Kind: EventAdvance}); err != nil {
			t.Fatal(err)
		}
	}
	f.Stats()
	for i := 0; i < 100; i++ { // warm the pump
		f.advanceAll(time.Duration(i) * time.Millisecond)
	}
	f.Stats()

	const ticks = 2000
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < ticks; i++ {
		f.advanceAll(time.Duration(100+i) * time.Millisecond)
	}
	f.Stats() // barrier: every tick has been dispatched
	runtime.ReadMemStats(&after)

	perTick := float64(after.Mallocs-before.Mallocs) / ticks
	const budget = 0.05
	t.Logf("advance tick: %.4f mallocs/tick over %d ticks, %d idle tenants", perTick, ticks, resident)
	if perTick > budget {
		t.Errorf("advance tick allocates %.4f mallocs/tick over %d ticks, budget %.2f", perTick, ticks, budget)
	}
}

// TestServeAllocBudget locks the coalesced TCP front end — buffered frame
// reads, HandleConn's dispatch, queued acks flushed once per burst, and
// the Deliver hop into the shard — to the shard ingest budget. Bursts of
// UsageStart/UsageEnd frames go over a loopback connection and their
// acks are read back. The client encodes from scratch packets: boxing a
// fresh packet literal into wire.Packet per frame would charge the
// test's own malloc to the server.
func TestServeAllocBudget(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("race instrumentation allocates; alloc budgets are enforced by the no-race pass (scripts/check.sh)")
	}
	cfg := testConfig(t.TempDir())
	cfg.Shards = 1
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(f, ServeConfig{Speed: 100, CheckpointEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Stop()
	defer srv.Stop()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go srv.Serve(l)
	c, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetDeadline(time.Now().Add(30 * time.Second))

	tool := uint16(adl.TeaMaking().Steps[0].Tool)
	var (
		buf   []byte
		hello = wire.Hello{UID: tool, HelloVersion: wire.HelloVersion, Household: "alloc"}
		start = wire.UsageStart{UID: tool, Hits: 5}
		end   = wire.UsageEnd{UID: tool, DurationMs: 500}
		fr    wire.Frame
		seq   uint16
	)
	r := wire.NewReader(c)
	send := func(p wire.Packet) {
		if buf, err = wire.AppendFrame(buf, p); err != nil {
			t.Fatal(err)
		}
	}
	flushAndAck := func(frames int) {
		if _, err := c.Write(buf); err != nil {
			t.Fatal(err)
		}
		buf = buf[:0]
		for i := 0; i < frames; i++ {
			if err := r.ReadFrame(&fr); err != nil {
				t.Fatal(err)
			}
			if fr.Kind != wire.TypeAck || fr.Ack.Seq != seq-uint16(frames-1-i) {
				t.Fatalf("frame %d of burst: %+v, want ack of seq %d", i, fr, seq-uint16(frames-1-i))
			}
		}
	}
	const burst = 32
	bursts := func(n int) {
		for b := 0; b < n; b++ {
			for i := 0; i < burst; i++ {
				seq++
				if i%2 == 0 {
					start.Seq = seq
					send(&start)
				} else {
					end.Seq = seq
					send(&end)
				}
			}
			flushAndAck(burst)
		}
		f.Stats() // shard barrier: every delivered report has been handled
	}

	// Warm up: the hello admits the household and registers the node;
	// buffers, maps and per-tenant state grow here.
	seq++
	hello.Seq = seq
	send(&hello)
	flushAndAck(1)
	bursts(64)

	const measured = 128
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	bursts(measured)
	runtime.ReadMemStats(&after)

	frames := measured * burst
	perFrame := float64(after.Mallocs-before.Mallocs) / float64(frames)
	const budget = 0.25
	t.Logf("serve path: %.3f mallocs/frame over %d frames", perFrame, frames)
	if perFrame > budget {
		t.Errorf("serve path allocates %.3f mallocs/frame over %d frames, budget %.2f", perFrame, frames, budget)
	}
}
