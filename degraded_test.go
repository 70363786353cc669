package coreda

import (
	"testing"
	"time"

	"coreda/internal/adl"
	"coreda/internal/chaos"
	"coreda/internal/sim"
)

func TestSetToolOnlineTransitions(t *testing.T) {
	var alerts []CaregiverAlert
	sys, _ := newDirectSystem(t, SystemConfig{
		OnAlert: func(a CaregiverAlert) { alerts = append(alerts, a) },
	})

	if sys.Degraded() {
		t.Fatal("fresh system already degraded")
	}
	sys.SetToolOnline(adl.ToolKettle, true) // already online: no transition
	if len(alerts) != 0 {
		t.Fatalf("redundant online report alerted: %+v", alerts)
	}

	sys.SetToolOnline(adl.ToolKettle, false)
	sys.SetToolOnline(adl.ToolKettle, false) // repeat: ignored
	if !sys.Degraded() {
		t.Fatal("system not degraded after offline report")
	}
	if got := sys.OfflineTools(); len(got) != 1 || got[0] != adl.ToolKettle {
		t.Errorf("OfflineTools = %v", got)
	}
	if len(alerts) != 1 || alerts[0].Recovered || alerts[0].Tool != adl.ToolKettle {
		t.Fatalf("offline alerts = %+v", alerts)
	}

	sys.SetToolOnline(adl.ToolKettle, true)
	if sys.Degraded() {
		t.Error("system degraded after recovery")
	}
	if len(alerts) != 2 || !alerts[1].Recovered {
		t.Fatalf("recovery alerts = %+v", alerts)
	}
	st := sys.Stats()
	if st.DegradedEvents != 1 || st.Recoveries != 1 {
		t.Errorf("DegradedEvents = %d, Recoveries = %d", st.DegradedEvents, st.Recoveries)
	}
	if st.Reminding.Alerts != 2 {
		t.Errorf("Reminding.Alerts = %d", st.Reminding.Alerts)
	}
}

func TestDegradedReminderEscalatesToSpecific(t *testing.T) {
	var reminders []Reminder
	sys, f := trainedSystem(t, SystemConfig{
		Sensing:    sensingConfig(10 * time.Second),
		OnReminder: func(r Reminder) { reminders = append(reminders, r) },
	})

	sys.SetToolOnline(adl.ToolKettle, false)
	sys.StartSession(ModeAssist)
	f.use(adl.ToolTeaBox, 2*time.Second)
	f.use(adl.ToolPot, 2*time.Second)
	// The user freezes before the kettle step — whose green LED is dead.
	f.sched.RunUntil(f.sched.Now() + 15*time.Second)

	if len(reminders) == 0 {
		t.Fatal("no idle reminder")
	}
	r := reminders[0]
	if r.Tool != adl.ToolKettle {
		t.Fatalf("reminded tool = %d, want kettle", r.Tool)
	}
	if r.Level != Specific {
		t.Errorf("blind-tool reminder level = %v, want Specific (LED channel is gone)", r.Level)
	}
}

func TestAssumeBlindStepsAdvancesPastBlindStep(t *testing.T) {
	var reminders []Reminder
	sys, f := trainedSystem(t, SystemConfig{
		Sensing:          sensingConfig(10 * time.Second),
		AssumeBlindSteps: true,
		OnReminder:       func(r Reminder) { reminders = append(reminders, r) },
	})

	sys.SetToolOnline(adl.ToolKettle, false)
	sys.StartSession(ModeAssist)
	f.use(adl.ToolTeaBox, 2*time.Second)
	f.use(adl.ToolPot, 2*time.Second)
	// First idle period: a (specific) reminder for the blind kettle step.
	// Second idle period: no detection can ever answer it, so the step is
	// presumed done and the session moves on to the tea cup.
	f.sched.RunUntil(f.sched.Now() + 30*time.Second)

	if sys.Stats().PresumedSteps != 1 {
		t.Fatalf("PresumedSteps = %d, want 1 (reminders: %+v)", sys.Stats().PresumedSteps, reminders)
	}
	p, ok := sys.Predict()
	if !ok || p.Tool != adl.ToolTeaCup {
		t.Fatalf("after presumed kettle step: Predict = %+v, %v", p, ok)
	}
	// The remaining (sighted) step completes the session normally.
	f.use(adl.ToolTeaCup, 2*time.Second)
	if sys.Active() {
		t.Error("session did not complete after the presumed step")
	}
}

func TestAssumeBlindStepsOffStaysConservative(t *testing.T) {
	sys, f := trainedSystem(t, SystemConfig{
		Sensing: sensingConfig(10 * time.Second),
	})
	sys.SetToolOnline(adl.ToolKettle, false)
	sys.StartSession(ModeAssist)
	f.use(adl.ToolTeaBox, 2*time.Second)
	f.use(adl.ToolPot, 2*time.Second)
	f.sched.RunUntil(f.sched.Now() + 60*time.Second)

	if sys.Stats().PresumedSteps != 0 {
		t.Errorf("PresumedSteps = %d without AssumeBlindSteps", sys.Stats().PresumedSteps)
	}
	if p, ok := sys.Predict(); !ok || p.Tool != adl.ToolKettle {
		t.Errorf("expectation moved off the blind step: %+v, %v", p, ok)
	}
}

func TestHubHandleNodeState(t *testing.T) {
	sched := sim.New()
	hub := NewHub(sched)
	sys, err := hub.Add(SystemConfig{Activity: TeaMaking()})
	if err != nil {
		t.Fatal(err)
	}

	hub.HandleNodeState(adl.ToolPot, false)
	if !sys.Degraded() {
		t.Error("node-state transition not routed to the owning system")
	}
	hub.HandleNodeState(adl.ToolPot, true)
	if sys.Degraded() {
		t.Error("recovery not routed")
	}

	before := hub.UnknownTools
	hub.HandleNodeState(ToolID(99), false)
	if hub.UnknownTools != before+1 {
		t.Errorf("UnknownTools = %d, want %d", hub.UnknownTools, before+1)
	}
}

// TestSupervisionClosedLoop runs the full stack: a chaos plan crashes the
// tea-box node mid-run, gateway supervision declares it offline, the
// system raises a caregiver alert, and the scheduled reboot brings
// everything back symmetrically.
func TestSupervisionClosedLoop(t *testing.T) {
	activity := TeaMaking()
	p := NewPersona("Mr. Tanaka", 0)
	if err := p.SetRoutine(activity, activity.CanonicalRoutine()); err != nil {
		t.Fatal(err)
	}
	var alerts []CaregiverAlert
	s, err := NewSimulation(SimulationConfig{
		Activity: activity,
		Persona:  p,
		Seed:     11,
		System: SystemConfig{
			OnAlert: func(a CaregiverAlert) { alerts = append(alerts, a) },
		},
		Supervise: time.Second,
		Chaos: &chaos.Plan{Nodes: []chaos.NodeEvent{
			{At: 5 * time.Second, UID: uint16(adl.ToolTeaBox), Op: chaos.OpCrash},
			{At: 30 * time.Second, UID: uint16(adl.ToolTeaBox), Op: chaos.OpReboot},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}

	s.Sched.RunUntil(60 * time.Second)

	if got := s.Gateway.Stats.OfflineEvents; got != 1 {
		t.Errorf("OfflineEvents = %d, want 1", got)
	}
	if got := s.Gateway.Stats.OnlineEvents; got != 1 {
		t.Errorf("OnlineEvents = %d, want 1", got)
	}
	if len(alerts) != 2 {
		t.Fatalf("alerts = %+v, want offline + recovery", alerts)
	}
	if alerts[0].Recovered || alerts[0].Tool != adl.ToolTeaBox {
		t.Errorf("first alert = %+v, want tea-box offline", alerts[0])
	}
	if !alerts[1].Recovered || alerts[1].Tool != adl.ToolTeaBox {
		t.Errorf("second alert = %+v, want tea-box recovery", alerts[1])
	}
	if s.System.Degraded() {
		t.Errorf("system still degraded after recovery: %v", s.System.OfflineTools())
	}
	if s.Chaos.Stats.NodeEvents != 2 {
		t.Errorf("chaos NodeEvents = %d, want 2", s.Chaos.Stats.NodeEvents)
	}

	// The detection must be timely: one supervision interval plus the
	// three-missed-beats deadline, not an arbitrary sweep later.
	if alerts[0].At > 5*time.Second+4*time.Second+500*time.Millisecond {
		t.Errorf("offline detected at %v, too late", alerts[0].At)
	}
}
