package sensornet

import (
	"testing"
	"time"

	"coreda/internal/adl"
	"coreda/internal/sim"
	"coreda/internal/wire"
)

// perfectMedium returns a lossless, instant-ish channel for deterministic
// protocol tests.
func perfectMedium(s *sim.Scheduler) *Medium {
	return NewMedium(MediumConfig{BaseLatency: time.Millisecond}, s, sim.RNG(1, "medium"))
}

// spikes builds a series of n samples where the given indices carry
// super-threshold excitation and everything else is zero.
func spikes(n int, at ...int) []float64 {
	s := make([]float64, n)
	for _, i := range at {
		s[i] = 2.0
	}
	return s
}

func collect(events *[]UsageEvent) func(UsageEvent) {
	return func(e UsageEvent) { *events = append(*events, e) }
}

func TestNodeDetectsSustainedUsage(t *testing.T) {
	sched := sim.New()
	m := perfectMedium(sched)
	var events []UsageEvent
	NewGateway(sched, m, collect(&events))

	// 30 hot samples (3 s of usage), then silence.
	series := make([]float64, 30)
	for i := range series {
		series[i] = 2.0
	}
	src := NewSliceSource(series, 0, nil)
	n := NewNode(NodeConfig{UID: 21, Sensor: adl.SensorAccelerometer}, sched, m, src)
	n.Start()
	sched.RunUntil(10 * time.Second)

	if len(events) != 2 {
		t.Fatalf("events = %d (%+v), want start+end", len(events), events)
	}
	if events[0].Kind != UsageStarted || events[0].Tool != 21 {
		t.Errorf("first event = %+v", events[0])
	}
	if events[0].Hits < DetectionHits {
		t.Errorf("start hits = %d", events[0].Hits)
	}
	if events[1].Kind != UsageEnded {
		t.Errorf("second event = %+v", events[1])
	}
	// Usage begins at sample 3 (third hot sample) and ends when hits drop
	// below 3, i.e. roughly 27 samples (2.7 s) later, +/- the window lag.
	if events[1].Duration < 2*time.Second || events[1].Duration > 4*time.Second {
		t.Errorf("duration = %v, want ~2.7s", events[1].Duration)
	}
}

func TestThreeOfTenRule(t *testing.T) {
	tests := []struct {
		name   string
		series []float64
		want   bool
	}{
		{"two spikes insufficient", spikes(20, 4, 6), false},
		{"three spikes in window detect", spikes(20, 4, 6, 8), true},
		{"three spikes spread beyond window", spikes(40, 0, 15, 30), false},
		{"silence", make([]float64, 40), false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			sched := sim.New()
			m := perfectMedium(sched)
			var events []UsageEvent
			NewGateway(sched, m, collect(&events))
			src := NewSliceSource(tt.series, 0, nil)
			n := NewNode(NodeConfig{UID: 11, Sensor: adl.SensorAccelerometer}, sched, m, src)
			n.Start()
			sched.RunUntil(30 * time.Second)
			got := len(events) > 0
			if got != tt.want {
				t.Errorf("detected = %v (events %+v), want %v", got, events, tt.want)
			}
		})
	}
}

func TestAccidentalOperationRejected(t *testing.T) {
	// The paper: "We use this mechanism to protect detection against
	// accidental operation." A brief knock (1-2 hot samples) must not
	// count as usage.
	sched := sim.New()
	m := perfectMedium(sched)
	var events []UsageEvent
	NewGateway(sched, m, collect(&events))
	src := NewSliceSource(spikes(50, 10, 11), 0, nil)
	n := NewNode(NodeConfig{UID: 12, Sensor: adl.SensorAccelerometer}, sched, m, src)
	n.Start()
	sched.RunUntil(30 * time.Second)
	if len(events) != 0 {
		t.Errorf("accidental knock produced events: %+v", events)
	}
}

func TestReliabilityUnderLoss(t *testing.T) {
	// 30 % loss: retransmission must still deliver both events exactly
	// once to the handler.
	sched := sim.New()
	m := NewMedium(MediumConfig{Loss: 0.30, BaseLatency: time.Millisecond, Jitter: 2 * time.Millisecond}, sched, sim.RNG(42, "lossy"))
	var events []UsageEvent
	g := NewGateway(sched, m, collect(&events))

	series := make([]float64, 30)
	for i := range series {
		series[i] = 2.0
	}
	n := NewNode(NodeConfig{UID: 24, Sensor: adl.SensorAccelerometer}, sched, m, NewSliceSource(series, 0, nil))
	n.Start()
	sched.RunUntil(20 * time.Second)

	if len(events) != 2 {
		t.Fatalf("events = %d, want exactly 2 (dedup + retransmission), got %+v", len(events), events)
	}
	if g.Stats.Duplicates == 0 && m.Stats.Lost == 0 {
		t.Log("note: no losses occurred at this seed; test vacuous")
	}
}

func TestDuplicateSuppression(t *testing.T) {
	// Force an ack to be lost so the node retransmits: use a one-way
	// lossy channel by dropping everything toward the node initially.
	// Simpler deterministic approach: call gateway.receive twice with
	// the same frame.
	sched := sim.New()
	m := perfectMedium(sched)
	var events []UsageEvent
	g := NewGateway(sched, m, collect(&events))
	frame, err := wire.Encode(&wire.UsageStart{UID: 9, Seq: 5, Hits: 3})
	if err != nil {
		t.Fatal(err)
	}
	g.receive(frame)
	g.receive(frame)
	sched.Run()
	if len(events) != 1 {
		t.Errorf("events = %d, want 1", len(events))
	}
	if g.Stats.Duplicates != 1 {
		t.Errorf("Duplicates = %d, want 1", g.Stats.Duplicates)
	}
}

func TestStaleReorderedSeqRejected(t *testing.T) {
	sched := sim.New()
	m := perfectMedium(sched)
	var events []UsageEvent
	g := NewGateway(sched, m, collect(&events))
	newer, _ := wire.Encode(&wire.UsageEnd{UID: 9, Seq: 6, DurationMs: 100})
	older, _ := wire.Encode(&wire.UsageStart{UID: 9, Seq: 5, Hits: 3})
	g.receive(newer)
	g.receive(older) // stale: must be dropped
	sched.Run()
	if len(events) != 1 || events[0].Kind != UsageEnded {
		t.Errorf("events = %+v, want only the newer end event", events)
	}
}

func TestLEDCommandBlinksNode(t *testing.T) {
	sched := sim.New()
	m := perfectMedium(sched)
	g := NewGateway(sched, m, nil)
	n := NewNode(NodeConfig{UID: 24, Sensor: adl.SensorAccelerometer}, sched, m, NewSliceSource(nil, 0, nil))
	n.Start()

	g.SendLED(24, wire.LEDGreen, 5, 200*time.Millisecond)
	sched.RunUntil(5 * time.Second)

	led := n.LED(wire.LEDGreen)
	if led.TotalBlinks != 5 {
		t.Errorf("TotalBlinks = %d, want 5", led.TotalBlinks)
	}
	if led.On {
		t.Error("LED still on after blink sequence")
	}
	if n.LED(wire.LEDRed).TotalBlinks != 0 {
		t.Error("red LED blinked without command")
	}
	if g.Stats.LEDDropped != 0 {
		t.Errorf("LEDDropped = %d", g.Stats.LEDDropped)
	}
}

func TestLEDCommandDroppedOnDeadChannel(t *testing.T) {
	sched := sim.New()
	m := NewMedium(MediumConfig{Loss: 1.0, BaseLatency: time.Millisecond}, sched, sim.RNG(3, "dead"))
	g := NewGateway(sched, m, nil)
	n := NewNode(NodeConfig{UID: 24, Sensor: adl.SensorAccelerometer}, sched, m, NewSliceSource(nil, 0, nil))
	n.Start()

	g.SendLED(24, wire.LEDGreen, 5, 200*time.Millisecond)
	sched.RunUntil(10 * time.Second)

	if g.Stats.LEDDropped != 1 {
		t.Errorf("LEDDropped = %d, want 1 after %d retries", g.Stats.LEDDropped, MaxRetries)
	}
	if n.LED(wire.LEDGreen).TotalBlinks != 0 {
		t.Error("LED blinked despite dead channel")
	}
}

func TestLEDOffCommand(t *testing.T) {
	sched := sim.New()
	m := perfectMedium(sched)
	g := NewGateway(sched, m, nil)
	n := NewNode(NodeConfig{UID: 24, Sensor: adl.SensorAccelerometer}, sched, m, NewSliceSource(nil, 0, nil))
	n.Start()
	g.SendLED(24, wire.LEDRed, 200, 10*time.Second) // long sequence
	sched.RunUntil(12 * time.Second)
	if !n.LED(wire.LEDRed).On && n.LED(wire.LEDRed).BlinksLeft == 0 {
		t.Fatal("expected a long blink sequence in progress")
	}
	g.SendLED(24, wire.LEDRed, 0, 0) // off
	sched.RunUntil(13 * time.Second)
	if n.LED(wire.LEDRed).On {
		t.Error("LED still on after off command")
	}
}

func TestHeartbeats(t *testing.T) {
	sched := sim.New()
	m := perfectMedium(sched)
	g := NewGateway(sched, m, nil)
	n := NewNode(NodeConfig{UID: 13, Sensor: adl.SensorAccelerometer, Heartbeat: time.Second}, sched, m, NewSliceSource(nil, 0, nil))
	n.Start()
	sched.RunUntil(5500 * time.Millisecond)
	if g.Stats.Heartbeats != 5 {
		t.Errorf("Heartbeats = %d, want 5", g.Stats.Heartbeats)
	}
}

func TestEEPROMLogRecordsUsage(t *testing.T) {
	sched := sim.New()
	m := perfectMedium(sched)
	NewGateway(sched, m, nil)
	series := make([]float64, 20)
	for i := range series {
		series[i] = 2.0
	}
	n := NewNode(NodeConfig{UID: 14, Sensor: adl.SensorAccelerometer}, sched, m, NewSliceSource(series, 0, nil))
	n.Start()
	sched.RunUntil(10 * time.Second)
	entries := n.LogEntries()
	if len(entries) != 1 {
		t.Fatalf("log entries = %d, want 1", len(entries))
	}
	if entries[0].UID != 14 || entries[0].Duration <= 0 {
		t.Errorf("entry = %+v", entries[0])
	}
}

func TestEEPROMRingWraps(t *testing.T) {
	l := newEEPROMLog(4 * recordSize) // capacity 4 records
	for i := 1; i <= 6; i++ {
		l.append(UsageRecord{UID: 1, Seq: uint16(i)})
	}
	entries := l.entries()
	if len(entries) != 4 {
		t.Fatalf("entries = %d, want 4", len(entries))
	}
	for i, e := range entries {
		if want := uint16(i + 3); e.Seq != want {
			t.Errorf("entry %d seq = %d, want %d (oldest first)", i, e.Seq, want)
		}
	}
}

func TestNodeClockDrift(t *testing.T) {
	sched := sim.New()
	m := perfectMedium(sched)
	n := NewNode(NodeConfig{UID: 15, Sensor: adl.SensorAccelerometer, ClockDriftPPM: 50000}, sched, m, NewSliceSource(nil, 0, nil))
	sched.RunUntil(100 * time.Second)
	// 5 % fast drift: 100 s -> 105 s of node time.
	if got := n.nodeTime(); got < 104000 || got > 106000 {
		t.Errorf("nodeTime = %d ms, want ~105000", got)
	}
}

func TestNodeStopHaltsSampling(t *testing.T) {
	sched := sim.New()
	m := perfectMedium(sched)
	var events []UsageEvent
	NewGateway(sched, m, collect(&events))
	series := make([]float64, 200)
	for i := range series {
		series[i] = 2.0
	}
	src := NewSliceSource(series, 0, nil)
	n := NewNode(NodeConfig{UID: 16, Sensor: adl.SensorAccelerometer}, sched, m, src)
	n.Start()
	sched.RunUntil(500 * time.Millisecond)
	n.Stop()
	remaining := src.Remaining()
	sched.RunUntil(30 * time.Second)
	if src.Remaining() != remaining {
		t.Error("samples consumed after Stop")
	}
	n.Start() // restartable
	sched.RunUntil(31 * time.Second)
	if src.Remaining() >= remaining {
		t.Error("sampling did not resume after restart")
	}
}

func TestZeroUIDPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic for UID 0")
		}
	}()
	sched := sim.New()
	NewNode(NodeConfig{UID: 0}, sched, perfectMedium(sched), nil)
}

func TestSliceSourceEnqueue(t *testing.T) {
	src := NewSliceSource([]float64{1, 2}, 0, nil)
	if src.Next() != 1 || src.Next() != 2 {
		t.Fatal("replay order wrong")
	}
	if src.Next() != 0 {
		t.Error("exhausted source should emit 0 with nil rng")
	}
	src.Enqueue([]float64{3})
	if src.Next() != 3 {
		t.Error("enqueued sample not replayed")
	}
	if src.Remaining() != 0 {
		t.Errorf("Remaining = %d", src.Remaining())
	}
}

func TestFuncSource(t *testing.T) {
	calls := 0
	src := FuncSource(func() float64 { calls++; return 7 })
	if src.Next() != 7 || calls != 1 {
		t.Error("FuncSource did not delegate")
	}
}

func TestUsageKindString(t *testing.T) {
	if UsageStarted.String() != "started" || UsageEnded.String() != "ended" {
		t.Error("kind strings")
	}
	if UsageKind(7).String() == "" {
		t.Error("unknown kind string empty")
	}
}

func TestCollisionsDestroyOverlappingFrames(t *testing.T) {
	sched := sim.New()
	m := NewMedium(MediumConfig{
		BaseLatency:     5 * time.Millisecond,
		CollisionWindow: 2 * time.Millisecond,
	}, sched, sim.RNG(1, "collide"))
	var events []UsageEvent
	NewGateway(sched, m, collect(&events))

	// Two nodes start usage on the same tick: their reports collide, but
	// retransmissions (spaced by ack timeouts) eventually get through.
	series := make([]float64, 30)
	for i := range series {
		series[i] = 2.0
	}
	n1 := NewNode(NodeConfig{UID: 31, Sensor: adl.SensorAccelerometer}, sched, m, NewSliceSource(series, 0, nil))
	n2 := NewNode(NodeConfig{UID: 32, Sensor: adl.SensorAccelerometer}, sched, m, NewSliceSource(append([]float64(nil), series...), 0, nil))
	n1.Start()
	n2.Start()
	sched.RunUntil(30 * time.Second)

	if m.Stats.Collisions == 0 {
		t.Fatal("simultaneous transmissions did not collide")
	}
	// Both nodes' start+end events must still arrive via retransmission.
	byTool := map[adl.ToolID]int{}
	for _, e := range events {
		byTool[e.Tool]++
	}
	if byTool[31] != 2 || byTool[32] != 2 {
		t.Errorf("events per tool = %v, want 2 each (collisions=%d, drops=%d/%d)",
			byTool, m.Stats.Collisions, n1.Drops, n2.Drops)
	}
}

func TestCollisionWindowZeroDisablesCollisions(t *testing.T) {
	sched := sim.New()
	m := NewMedium(MediumConfig{BaseLatency: time.Millisecond}, sched, sim.RNG(2, "nocollide"))
	NewGateway(sched, m, nil)
	frame := []byte{0x01}
	m.toGateway(1, frame)
	m.toGateway(1, frame) // same instant
	sched.Run()
	if m.Stats.Collisions != 0 {
		t.Errorf("Collisions = %d with window disabled", m.Stats.Collisions)
	}
	if m.Stats.Delivered != 2 {
		t.Errorf("Delivered = %d", m.Stats.Delivered)
	}
}

func TestBatteryDrainsAndNodeDies(t *testing.T) {
	sched := sim.New()
	m := perfectMedium(sched)
	g := NewGateway(sched, m, nil)
	// Budget for ~2000 samples plus a couple of heartbeats.
	n := NewNode(NodeConfig{
		UID:             17,
		Sensor:          adl.SensorAccelerometer,
		Heartbeat:       30 * time.Second,
		BatteryCapacity: 2000*EnergySample + 3*EnergyTX,
	}, sched, m, NewSliceSource(nil, 0, nil))
	n.Start()

	sched.RunUntil(100 * time.Second)
	if n.Dead() {
		t.Fatalf("node died early; battery %d%%", n.BatteryPercent())
	}
	if b, ok := g.Battery(17); !ok || b >= 100 {
		t.Errorf("gateway battery view = %d, %v", b, ok)
	}
	sched.RunUntil(1000 * time.Second)
	if !n.Dead() {
		t.Fatalf("node alive after budget exhausted; battery %d%%", n.BatteryPercent())
	}
	if n.BatteryPercent() != 0 {
		t.Errorf("dead battery percent = %d", n.BatteryPercent())
	}
	// Dead node samples no more.
	beats := g.Stats.Heartbeats
	sched.RunUntil(2000 * time.Second)
	if g.Stats.Heartbeats != beats {
		t.Error("dead node still heartbeating")
	}
}

func TestLowBatteryNodesFlagged(t *testing.T) {
	sched := sim.New()
	m := perfectMedium(sched)
	g := NewGateway(sched, m, nil)
	// Deplete quickly: tiny budget, frequent heartbeats.
	n := NewNode(NodeConfig{
		UID:             18,
		Sensor:          adl.SensorAccelerometer,
		Heartbeat:       5 * time.Second,
		BatteryCapacity: 5 * EnergyTX,
	}, sched, m, NewSliceSource(nil, 0, nil))
	n.Start()
	sched.RunUntil(21 * time.Second)
	low := g.LowBatteryNodes()
	if len(low) != 1 || low[0] != 18 {
		t.Errorf("LowBatteryNodes = %v (last report %v)", low, func() uint8 { b, _ := g.Battery(18); return b }())
	}
}

func TestUnlimitedBatteryByDefault(t *testing.T) {
	sched := sim.New()
	m := perfectMedium(sched)
	NewGateway(sched, m, nil)
	n := NewNode(NodeConfig{UID: 19, Sensor: adl.SensorAccelerometer}, sched, m, NewSliceSource(nil, 0, nil))
	n.Start()
	sched.RunUntil(time.Hour)
	if n.Dead() || n.BatteryPercent() != 100 {
		t.Errorf("default node drained: dead=%v battery=%d", n.Dead(), n.BatteryPercent())
	}
}

// Online reports a watched node's supervision state. Unwatched nodes are
// reported online.
func (g *Gateway) Online(uid uint16) bool { return !g.offline[uid] }

// OfflineNodes lists the watched nodes currently declared offline, in
// ascending UID order.
func (g *Gateway) OfflineNodes() []uint16 {
	var out []uint16
	for _, uid := range g.watched {
		if g.offline[uid] {
			out = append(out, uid)
		}
	}
	return out
}

// Battery returns the last battery percentage a node reported via
// heartbeat (ok false before the first heartbeat).
func (g *Gateway) Battery(uid uint16) (uint8, bool) {
	b, ok := g.battery[uid]
	return b, ok
}

// LowBatteryPercent is the threshold at or below which LowBatteryNodes
// flags a node for maintenance.
const LowBatteryPercent = 20

// LowBatteryNodes lists nodes whose last report is at or below
// LowBatteryPercent — the gateway's maintenance signal for caregivers.
func (g *Gateway) LowBatteryNodes() []uint16 {
	var out []uint16
	for uid, b := range g.battery {
		if b <= LowBatteryPercent {
			out = append(out, uid)
		}
	}
	return out
}

// FuncSource adapts a function to the SampleSource interface.
type FuncSource func() float64

// Next implements SampleSource.
func (f FuncSource) Next() float64 { return f() }
