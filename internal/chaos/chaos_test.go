package chaos

import (
	"encoding/json"
	"reflect"
	"testing"
	"time"

	"coreda/internal/sensornet"
	"coreda/internal/sim"
)

// rig is a minimal sensornet: two heartbeating nodes, a lossless channel
// and a gateway, with a chaos plan armed. Heartbeats are steady traffic,
// so channel-level faults are visible as missing/extra gateway counts.
type rig struct {
	sched *sim.Scheduler
	m     *sensornet.Medium
	gw    *sensornet.Gateway
	inj   *Injector
}

func newRig(t *testing.T, seed int64, plan *Plan) *rig {
	return newRigN(t, seed, plan, 1, 2)
}

func newRigN(t *testing.T, seed int64, plan *Plan, uids ...uint16) *rig {
	t.Helper()
	sched := sim.New()
	m := sensornet.NewMedium(sensornet.MediumConfig{BaseLatency: 5 * time.Millisecond}, sched, sim.RNG(seed, "medium"))
	gw := sensornet.NewGateway(sched, m, nil)
	for _, uid := range uids {
		src := sensornet.NewSliceSource(nil, 0, sim.RNG(seed, "src"))
		n := sensornet.NewNode(sensornet.NodeConfig{
			UID:       uid,
			Heartbeat: 100 * time.Millisecond,
		}, sched, m, src)
		n.Start()
	}
	inj, err := New(plan, sched, sim.RNG(seed, "chaos"))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	inj.Arm(m)
	return &rig{sched: sched, m: m, gw: gw, inj: inj}
}

func TestPlanJSONRoundTrip(t *testing.T) {
	p := &Plan{
		Drop:         0.3,
		Corrupt:      0.1,
		Duplicate:    0.05,
		Reorder:      0.2,
		ReorderDelay: 250 * time.Millisecond,
		Stalls:       []Window{{From: time.Second, To: 2 * time.Second}},
		Nodes: []NodeEvent{
			{At: 500 * time.Millisecond, UID: 1, Op: OpCrash},
			{At: time.Second, UID: 1, Op: OpReboot},
			{At: 2 * time.Second, UID: 2, Op: OpDrain, Amount: 10},
		},
		JobFail: 0.15,
	}
	data, err := json.Marshal(p)
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	got, err := parsePlan(data)
	if err != nil {
		t.Fatalf("parsePlan: %v", err)
	}
	if !reflect.DeepEqual(got, p) {
		t.Errorf("round trip:\n got %+v\nwant %+v", got, p)
	}
}

func TestPlanValidate(t *testing.T) {
	cases := []struct {
		name string
		plan Plan
	}{
		{"drop above one", Plan{Drop: 1.5}},
		{"negative corrupt", Plan{Corrupt: -0.1}},
		{"inverted stall window", Plan{Stalls: []Window{{From: 2 * time.Second, To: time.Second}}}},
		{"unknown op", Plan{Nodes: []NodeEvent{{UID: 1, Op: "explode"}}}},
		{"drain without amount", Plan{Nodes: []NodeEvent{{UID: 1, Op: OpDrain}}}},
		{"negative event time", Plan{Nodes: []NodeEvent{{At: -time.Second, UID: 1, Op: OpCrash}}}},
		{"job_fail above one", Plan{JobFail: 1.01}},
		{"negative job_fail", Plan{JobFail: -0.5}},
	}
	for _, tc := range cases {
		if err := tc.plan.Validate(); err == nil {
			t.Errorf("%s: Validate accepted invalid plan", tc.name)
		}
	}
	if err := (&Plan{}).Validate(); err != nil {
		t.Errorf("zero plan rejected: %v", err)
	}
	if _, err := parsePlan([]byte(`{"drop": 2}`)); err == nil {
		t.Error("parsePlan accepted out-of-range probability")
	}
	if _, err := parsePlan([]byte(`{nonsense`)); err == nil {
		t.Error("parsePlan accepted malformed JSON")
	}
}

func TestInjectorDeterminism(t *testing.T) {
	plan := &Plan{
		Drop:      0.3,
		Corrupt:   0.2,
		Duplicate: 0.2,
		Reorder:   0.1,
		Stalls:    []Window{{From: 2 * time.Second, To: 3 * time.Second}},
		Nodes: []NodeEvent{
			{At: 4 * time.Second, UID: 1, Op: OpCrash},
			{At: 6 * time.Second, UID: 1, Op: OpReboot},
		},
	}
	type snapshot struct {
		Chaos   Stats
		Medium  sensornet.MediumStats
		Gateway sensornet.GatewayStats
	}
	run := func(seed int64) snapshot {
		r := newRig(t, seed, plan)
		r.sched.RunUntil(10 * time.Second)
		return snapshot{Chaos: r.inj.Stats, Medium: r.m.Stats, Gateway: r.gw.Stats}
	}
	a, b := run(7), run(7)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("same seed diverged:\n a %+v\n b %+v", a, b)
	}
	if a.Chaos.Frames == 0 || a.Chaos.Dropped == 0 || a.Chaos.Stalled == 0 {
		t.Errorf("plan under-exercised: %+v", a.Chaos)
	}
	if a.Chaos.NodeEvents != 2 {
		t.Errorf("NodeEvents = %d, want 2", a.Chaos.NodeEvents)
	}
}

func TestDropAllSilencesGateway(t *testing.T) {
	r := newRig(t, 1, &Plan{Drop: 1})
	r.sched.RunUntil(2 * time.Second)
	if r.gw.Stats.Heartbeats != 0 {
		t.Errorf("gateway saw %d heartbeats through a 100%% drop channel", r.gw.Stats.Heartbeats)
	}
	if r.inj.Stats.Dropped != r.inj.Stats.Frames || r.inj.Stats.Frames == 0 {
		t.Errorf("Dropped = %d, Frames = %d, want all dropped", r.inj.Stats.Dropped, r.inj.Stats.Frames)
	}
	if r.m.Stats.InjectedDrops != r.inj.Stats.Dropped {
		t.Errorf("medium InjectedDrops = %d, injector Dropped = %d", r.m.Stats.InjectedDrops, r.inj.Stats.Dropped)
	}
}

func TestCorruptAllRejectedByCRC(t *testing.T) {
	r := newRig(t, 1, &Plan{Corrupt: 1})
	r.sched.RunUntil(2 * time.Second)
	if r.m.Stats.Delivered == 0 || r.m.Stats.InjectedCorruptions == 0 {
		t.Fatalf("no traffic: %+v", r.m.Stats)
	}
	if r.gw.Stats.Heartbeats != 0 {
		t.Errorf("gateway decoded %d corrupted heartbeats", r.gw.Stats.Heartbeats)
	}
}

func TestDuplicateAllDoublesDelivery(t *testing.T) {
	r := newRig(t, 1, &Plan{Duplicate: 1})
	// Stop mid-heartbeat-period so every sent frame has landed and none is
	// in flight at the cutoff.
	r.sched.RunUntil(2*time.Second + 50*time.Millisecond)
	frames := r.inj.Stats.Frames
	if frames == 0 || r.inj.Stats.Duplicated != frames {
		t.Fatalf("Duplicated = %d, Frames = %d, want every frame duplicated", r.inj.Stats.Duplicated, frames)
	}
	// Heartbeats carry no dedup, so the gateway counts both copies.
	if r.gw.Stats.Heartbeats != 2*frames {
		t.Errorf("Heartbeats = %d, want %d (two copies each)", r.gw.Stats.Heartbeats, 2*frames)
	}
}

func TestStallWindowBlacksOutRadio(t *testing.T) {
	r := newRig(t, 1, &Plan{Stalls: []Window{{From: 0, To: 550 * time.Millisecond}}})
	r.sched.RunUntil(550 * time.Millisecond)
	if r.gw.Stats.Heartbeats != 0 {
		t.Errorf("gateway saw %d heartbeats inside the blackout", r.gw.Stats.Heartbeats)
	}
	stalled := r.inj.Stats.Stalled
	if stalled == 0 {
		t.Error("no frames stalled inside the window")
	}
	r.sched.RunUntil(2 * time.Second)
	if r.gw.Stats.Heartbeats == 0 {
		t.Error("radio never recovered after the blackout")
	}
	if r.inj.Stats.Stalled != stalled {
		t.Errorf("frames stalled outside the window: %d -> %d", stalled, r.inj.Stats.Stalled)
	}
}

func TestNodeLifecycleEvents(t *testing.T) {
	plan := &Plan{Nodes: []NodeEvent{
		{At: 250 * time.Millisecond, UID: 1, Op: OpCrash},
		{At: 650 * time.Millisecond, UID: 1, Op: OpReboot},
		{At: 700 * time.Millisecond, UID: 99, Op: OpCrash}, // no such node: ignored
	}}
	// One node only, so the gateway heartbeat count isolates its silence.
	r := newRigN(t, 1, plan, 1)
	node, _ := r.m.Node(1)

	r.sched.RunUntil(300 * time.Millisecond)
	if node.Running() {
		t.Fatal("node still running after scheduled crash")
	}
	beatsDuringCrash := r.gw.Stats.Heartbeats

	r.sched.RunUntil(600 * time.Millisecond)
	if got := r.gw.Stats.Heartbeats; got != beatsDuringCrash {
		t.Errorf("crashed node heartbeated: %d -> %d", beatsDuringCrash, got)
	}

	r.sched.RunUntil(time.Second)
	if !node.Running() {
		t.Error("node did not reboot")
	}
	if r.gw.Stats.Heartbeats <= beatsDuringCrash {
		t.Error("rebooted node never heartbeated")
	}
	if r.inj.Stats.NodeEvents != 2 {
		t.Errorf("NodeEvents = %d, want 2 (missing node must not count)", r.inj.Stats.NodeEvents)
	}
}

func TestDrainEventEmptiesBattery(t *testing.T) {
	sched := sim.New()
	m := sensornet.NewMedium(sensornet.MediumConfig{BaseLatency: time.Millisecond}, sched, sim.RNG(3, "medium"))
	sensornet.NewGateway(sched, m, nil)
	src := sensornet.NewSliceSource(nil, 0, sim.RNG(3, "src"))
	n := sensornet.NewNode(sensornet.NodeConfig{UID: 1, BatteryCapacity: 1000}, sched, m, src)
	n.Start()

	inj, err := New(&Plan{Nodes: []NodeEvent{{At: 100 * time.Millisecond, UID: 1, Op: OpDrain, Amount: 2000}}}, sched, sim.RNG(3, "chaos"))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	inj.Arm(m)
	sched.RunUntil(200 * time.Millisecond)
	if !n.Dead() {
		t.Errorf("battery at %d%% after draining past capacity", n.BatteryPercent())
	}
	if n.Running() {
		t.Error("node still sampling on an empty battery")
	}
}

func TestNewRejectsBadInput(t *testing.T) {
	sched := sim.New()
	if _, err := New(nil, sched, sim.RNG(1, "chaos")); err == nil {
		t.Error("New accepted a nil plan")
	}
	if _, err := New(&Plan{Drop: 2}, sched, sim.RNG(1, "chaos")); err == nil {
		t.Error("New accepted an invalid plan")
	}
}

// TestJobInjectorDeterminism: same plan + same stream = same injected
// fault sequence, and the draw count is one per job regardless of hits.
func TestJobInjectorDeterminism(t *testing.T) {
	plan := &Plan{JobFail: 0.4}
	seq := func() []int {
		inject := plan.JobInjector(sim.RNG(7, "chaos/jobs"))
		var out []int
		for i := 0; i < 200; i++ {
			out = append(out, inject("eviction", "h00001"))
		}
		return out
	}
	a, b := seq(), seq()
	hits := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("fault sequence diverged at job %d", i)
		}
		hits += a[i]
	}
	if hits == 0 || hits == len(a) {
		t.Fatalf("JobFail=0.4 over %d jobs hit %d times — stream not exercised", len(a), hits)
	}
	// A zero-probability plan draws but never fails: consumption stays
	// fixed so enabling the knob cannot shift other draws on the stream.
	never := (&Plan{}).JobInjector(sim.RNG(7, "chaos/jobs"))
	for i := 0; i < 50; i++ {
		if never("checkpoint", "h00002") != 0 {
			t.Fatal("zero-probability injector failed a job")
		}
	}
}

// parsePlan decodes a JSON fault schedule (durations are nanoseconds, as
// encoding/json renders time.Duration).
func parsePlan(data []byte) (*Plan, error) {
	var p Plan
	if err := json.Unmarshal(data, &p); err != nil {
		return nil, err
	}
	return &p, p.Validate()
}
