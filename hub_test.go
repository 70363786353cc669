package coreda

import (
	"fmt"
	"testing"
	"time"

	"coreda/internal/adl"
	"coreda/internal/sensornet"
	"coreda/internal/sim"
)

func TestHubRoutesByTool(t *testing.T) {
	sched := sim.New()
	hub := NewHub(sched)
	teaSys, err := hub.Add(SystemConfig{Activity: TeaMaking(), UserName: "u"})
	if err != nil {
		t.Fatal(err)
	}
	brushSys, err := hub.Add(SystemConfig{Activity: ToothBrushing(), UserName: "u"})
	if err != nil {
		t.Fatal(err)
	}

	use := func(tool ToolID) {
		sched.RunUntil(sched.Now() + 3*time.Second)
		hub.HandleUsage(UsageEvent{Tool: tool, Kind: sensornet.UsageStarted, At: sched.Now()})
		sched.RunUntil(sched.Now() + time.Millisecond)
	}

	// Tea tools auto-start a tea session; brush tools a brushing session.
	use(adl.ToolTeaBox)
	if !teaSys.Active() {
		t.Error("tea session not auto-started")
	}
	if brushSys.Active() {
		t.Error("brushing session started by a tea tool")
	}
	use(adl.ToolBrush)
	if !brushSys.Active() {
		t.Error("brushing session not auto-started")
	}

	// Finish both; each system only sees its own steps.
	use(adl.ToolPot)
	use(adl.ToolKettle)
	use(adl.ToolTeaCup)
	if teaSys.Active() {
		t.Error("tea session not completed after its four tools")
	}
	if got := teaSys.Stats().AcceptedSteps; got != 4 {
		t.Errorf("tea accepted steps = %d", got)
	}
	if got := brushSys.Stats().AcceptedSteps; got != 1 {
		t.Errorf("brush accepted steps = %d (cross-talk?)", got)
	}
}

func TestHubUnknownTool(t *testing.T) {
	sched := sim.New()
	hub := NewHub(sched)
	if _, err := hub.Add(SystemConfig{Activity: TeaMaking()}); err != nil {
		t.Fatal(err)
	}
	var unknown []UnknownEvent
	hub.SetUnknownHandler(func(e UnknownEvent) { unknown = append(unknown, e) })
	hub.HandleUsage(UsageEvent{Tool: 99, Kind: sensornet.UsageStarted})
	if hub.UnknownTools != 1 || len(unknown) != 1 {
		t.Errorf("unknown = %d / %d", hub.UnknownTools, len(unknown))
	}
	if unknown[0].Kind != UnknownUsage || unknown[0].Tool != 99 || unknown[0].Usage.Kind != sensornet.UsageStarted {
		t.Errorf("unknown usage event = %+v", unknown[0])
	}

	// Node-state transitions for unclaimed tools take the same callback
	// path as usage events — a deployment watching for misconfigured
	// nodes sees both.
	hub.HandleNodeState(99, false)
	hub.HandleNodeState(99, true)
	if hub.UnknownTools != 3 || len(unknown) != 3 {
		t.Errorf("after node-state: unknown = %d / %d", hub.UnknownTools, len(unknown))
	}
	if unknown[1].Kind != UnknownNodeState || unknown[1].Online || unknown[1].Tool != 99 {
		t.Errorf("unknown offline event = %+v", unknown[1])
	}
	if unknown[2].Kind != UnknownNodeState || !unknown[2].Online {
		t.Errorf("unknown online event = %+v", unknown[2])
	}
}

func TestHubRejectsDuplicates(t *testing.T) {
	sched := sim.New()
	hub := NewHub(sched)
	if _, err := hub.Add(SystemConfig{Activity: TeaMaking()}); err != nil {
		t.Fatal(err)
	}
	if _, err := hub.Add(SystemConfig{Activity: TeaMaking()}); err == nil {
		t.Error("duplicate activity accepted")
	}
	// An activity whose tools collide with an existing one.
	// Every tool clashes; the error must name the lowest one on every
	// try, whatever order the tool map iterates in.
	clash := TeaMaking()
	clash.Name = "second-tea"
	lowest := adl.SortedToolIDs(clash.Tools)[0]
	want := fmt.Sprintf("coreda: tool %d of %q already claimed by %q", lowest, "second-tea", "tea-making")
	for i := 0; i < 20; i++ {
		_, err := hub.Add(SystemConfig{Activity: clash})
		if err == nil {
			t.Fatal("tool collision accepted")
		}
		if err.Error() != want {
			t.Fatalf("collision error %q, want %q", err, want)
		}
	}
	if _, err := hub.Add(SystemConfig{}); err == nil {
		t.Error("nil activity accepted")
	}
}

func TestHubAccessors(t *testing.T) {
	sched := sim.New()
	hub := NewHub(sched)
	if _, err := hub.Add(SystemConfig{Activity: TeaMaking()}); err != nil {
		t.Fatal(err)
	}
	if _, ok := hub.System("tea-making"); !ok {
		t.Error("System lookup failed")
	}
	if _, ok := hub.System("nope"); ok {
		t.Error("phantom system")
	}
	if len(hub.Systems()) != 1 {
		t.Error("Systems() size")
	}
}

func TestHubDefaultModeAssist(t *testing.T) {
	sched := sim.New()
	hub := NewHub(sched)
	sys, err := hub.Add(SystemConfig{Activity: TeaMaking(), DefaultMode: ModeAssist})
	if err != nil {
		t.Fatal(err)
	}
	hub.HandleUsage(UsageEvent{Tool: adl.ToolTeaBox, Kind: sensornet.UsageStarted, At: sched.Now()})
	if sys.Mode() != ModeAssist {
		t.Errorf("auto-started mode = %v, want assist", sys.Mode())
	}
}

func TestHubNodeStateRoutesBetweenSystems(t *testing.T) {
	sched := sim.New()
	hub := NewHub(sched)
	teaSys, err := hub.Add(SystemConfig{Activity: TeaMaking()})
	if err != nil {
		t.Fatal(err)
	}
	brushSys, err := hub.Add(SystemConfig{Activity: ToothBrushing()})
	if err != nil {
		t.Fatal(err)
	}

	hub.HandleNodeState(adl.ToolKettle, false)
	if !teaSys.Degraded() || brushSys.Degraded() {
		t.Errorf("kettle offline: tea degraded=%v brush degraded=%v, want true/false",
			teaSys.Degraded(), brushSys.Degraded())
	}
	hub.HandleNodeState(adl.ToolBrush, false)
	if !brushSys.Degraded() {
		t.Error("brush offline transition not routed to brushing system")
	}
	hub.HandleNodeState(adl.ToolKettle, true)
	if teaSys.Degraded() {
		t.Error("tea system still degraded after its only offline tool recovered")
	}
	if !brushSys.Degraded() {
		t.Error("tea recovery leaked into the brushing system")
	}
}

func TestHubAutoStartWhileDegraded(t *testing.T) {
	// A node dying must not disable the walk-up experience: usage of a
	// healthy tool still auto-starts the session, in degraded mode.
	sched := sim.New()
	hub := NewHub(sched)
	sys, err := hub.Add(SystemConfig{Activity: TeaMaking()})
	if err != nil {
		t.Fatal(err)
	}
	hub.HandleNodeState(adl.ToolTeaCup, false)
	hub.HandleUsage(UsageEvent{Tool: adl.ToolTeaBox, Kind: sensornet.UsageStarted, At: sched.Now()})
	if !sys.Active() {
		t.Error("session did not auto-start while degraded")
	}
	if !sys.Degraded() {
		t.Error("degraded flag lost across session auto-start")
	}
	if got := sys.OfflineTools(); len(got) != 1 || got[0] != adl.ToolTeaCup {
		t.Errorf("OfflineTools = %v, want [tea cup]", got)
	}
}

func TestHubEndEventDoesNotStartSession(t *testing.T) {
	sched := sim.New()
	hub := NewHub(sched)
	sys, err := hub.Add(SystemConfig{Activity: TeaMaking()})
	if err != nil {
		t.Fatal(err)
	}
	hub.HandleUsage(UsageEvent{Tool: adl.ToolTeaBox, Kind: sensornet.UsageEnded, At: sched.Now(), Duration: time.Second})
	if sys.Active() {
		t.Error("end event auto-started a session")
	}
}
