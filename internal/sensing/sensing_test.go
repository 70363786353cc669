package sensing

import (
	"testing"
	"time"

	"coreda/internal/adl"
	"coreda/internal/sensornet"
	"coreda/internal/sim"
)

func newSub(t *testing.T, cfg Config) (*Subsystem, *sim.Scheduler, *[]StepEvent) {
	t.Helper()
	if cfg.Activity == nil {
		cfg.Activity = adl.TeaMaking()
	}
	sched := sim.New()
	var events []StepEvent
	s, err := New(cfg, sched, func(e StepEvent) { events = append(events, e) })
	if err != nil {
		t.Fatal(err)
	}
	return s, sched, &events
}

func start(tool adl.ToolID, at time.Duration) sensornet.UsageEvent {
	return sensornet.UsageEvent{Tool: tool, Kind: sensornet.UsageStarted, At: at}
}

func end(tool adl.ToolID, at, dur time.Duration) sensornet.UsageEvent {
	return sensornet.UsageEvent{Tool: tool, Kind: sensornet.UsageEnded, At: at, Duration: dur}
}

func TestConfigRequiresActivity(t *testing.T) {
	if _, err := New(Config{}, sim.New(), nil); err == nil {
		t.Error("nil activity accepted")
	}
}

func TestExtractsStepSequence(t *testing.T) {
	s, sched, events := newSub(t, Config{})
	s.Start()
	for i, tool := range []adl.ToolID{adl.ToolTeaBox, adl.ToolPot, adl.ToolKettle, adl.ToolTeaCup} {
		at := time.Duration(i*5) * time.Second
		sched.RunUntil(at)
		s.HandleUsage(start(tool, at))
	}
	want := adl.TeaMaking().StepIDs()
	if len(*events) != len(want) {
		t.Fatalf("handler events = %+v", *events)
	}
	for i, e := range *events {
		if e.Step != want[i] {
			t.Errorf("step %d = %d, want %d", i, e.Step, want[i])
		}
	}
	if s.Stats.Extracted != 4 {
		t.Errorf("Extracted = %d", s.Stats.Extracted)
	}
}

func TestUnknownToolIgnored(t *testing.T) {
	s, _, events := newSub(t, Config{})
	s.Start()
	s.HandleUsage(start(adl.ToolBrush, time.Second)) // tooth-brushing tool
	if len(*events) != 0 || s.Stats.UnknownTools != 1 {
		t.Errorf("events=%d unknown=%d", len(*events), s.Stats.UnknownTools)
	}
}

func TestRepeatedUsageMerges(t *testing.T) {
	s, sched, events := newSub(t, Config{})
	s.Start()
	s.HandleUsage(start(adl.ToolTeaBox, 0))
	sched.RunUntil(time.Second)
	s.HandleUsage(start(adl.ToolTeaBox, time.Second)) // within 2 s merge gap
	if len(*events) != 1 {
		t.Fatalf("events = %d, want 1 (merged)", len(*events))
	}
	if s.Stats.Merged != 1 {
		t.Errorf("Merged = %d", s.Stats.Merged)
	}
	// After the merge gap, the same tool is a genuine new step (user
	// redoing a step).
	sched.RunUntil(10 * time.Second)
	s.HandleUsage(start(adl.ToolTeaBox, 10*time.Second))
	if len(*events) != 2 {
		t.Errorf("events = %d, want 2", len(*events))
	}
}

func TestIdleEventEmittedAfterTimeout(t *testing.T) {
	s, sched, events := newSub(t, Config{IdleFloor: 30 * time.Second})
	s.Start()
	s.HandleUsage(start(adl.ToolTeaBox, 0))
	sched.RunUntil(29 * time.Second)
	if len(*events) != 1 {
		t.Fatalf("premature events: %+v", *events)
	}
	sched.RunUntil(31 * time.Second)
	if len(*events) != 2 {
		t.Fatalf("events = %d, want idle event after 30 s", len(*events))
	}
	idle := (*events)[1]
	if idle.Step != adl.StepIdle || !idle.Idle {
		t.Errorf("idle event = %+v", idle)
	}
	if s.Stats.IdleEvents != 1 {
		t.Errorf("IdleEvents = %d", s.Stats.IdleEvents)
	}
}

func TestIdleRepeatsWhileUserStaysIdle(t *testing.T) {
	s, sched, events := newSub(t, Config{IdleFloor: 10 * time.Second})
	s.Start()
	sched.RunUntil(35 * time.Second)
	idles := 0
	for _, e := range *events {
		if e.Idle {
			idles++
		}
	}
	if idles != 3 {
		t.Errorf("idle events = %d, want 3 (every 10 s)", idles)
	}
}

func TestUsageResetsIdleTimer(t *testing.T) {
	s, sched, events := newSub(t, Config{IdleFloor: 10 * time.Second})
	s.Start()
	sched.RunUntil(8 * time.Second)
	s.HandleUsage(start(adl.ToolTeaBox, 8*time.Second))
	sched.RunUntil(17 * time.Second) // 9 s after usage: no idle yet
	for _, e := range *events {
		if e.Idle {
			t.Fatalf("idle fired despite recent usage: %+v", *events)
		}
	}
	sched.RunUntil(19 * time.Second)
	last := (*events)[len(*events)-1]
	if !last.Idle {
		t.Error("idle did not fire 10 s after the usage")
	}
}

func TestStopDisarmsWatchdog(t *testing.T) {
	s, sched, events := newSub(t, Config{IdleFloor: 5 * time.Second})
	s.Start()
	s.Stop()
	sched.RunUntil(time.Minute)
	if len(*events) != 0 {
		t.Errorf("events after stop: %+v", *events)
	}
	if s.Stats.Extracted != 0 {
		t.Error("stats counted after stop")
	}
	// Usage events while stopped are dropped.
	s.HandleUsage(start(adl.ToolTeaBox, time.Minute))
	if len(*events) != 0 {
		t.Error("usage processed while stopped")
	}
}

func TestDurationStatsAccumulate(t *testing.T) {
	s, sched, _ := newSub(t, Config{})
	s.Start()
	// The pot is reached 1.2 s and then 1.0 s after the tool used before
	// it: two samples of the arrival gap the idle watchdog reads.
	for _, u := range []sensornet.UsageEvent{
		start(adl.ToolTeaBox, time.Second),
		start(adl.ToolPot, 2200*time.Millisecond),
		start(adl.ToolTeaBox, 5*time.Second),
		start(adl.ToolPot, 6*time.Second),
	} {
		sched.RunUntil(u.At)
		s.HandleUsage(u)
	}
	// Two samples reach minSamples 2, so with k = 0 the timeout is their
	// mean.
	if got := s.gaps.Timeout(uint32(adl.ToolPot), 0, 2, 0, 0); got < 1099*time.Millisecond || got > 1101*time.Millisecond {
		t.Errorf("pot timeout over its two gaps = %v, want their 1.1s mean", got)
	}
	s.HandleUsage(end(adl.ToolPot, 7*time.Second, 1200*time.Millisecond))
	s.HandleUsage(end(adl.ToolPot, 9*time.Second, 1000*time.Millisecond))
	if s.Stats.UsageEnds != 2 {
		t.Errorf("UsageEnds = %d", s.Stats.UsageEnds)
	}
}

func TestStatisticalIdleTimeout(t *testing.T) {
	s, sched, _ := newSub(t, Config{IdleFloor: 10 * time.Second, IdleCeil: time.Minute, IdleMinSamples: 3})
	s.Start()
	// Without expectation or data: floor.
	if got := s.IdleTimeout(); got != 10*time.Second {
		t.Errorf("default timeout = %v", got)
	}
	// Teach the gap statistics: the user takes ~20 s to reach the pot.
	for i := 1; i <= 6; i++ {
		at := time.Duration(i) * 40 * time.Second
		sched.RunUntil(at)
		s.HandleUsage(start(adl.ToolTeaBox, at))
		sched.RunUntil(at + 20*time.Second)
		s.HandleUsage(start(adl.ToolPot, at+20*time.Second))
	}
	s.SetExpected(adl.ToolPot)
	got := s.IdleTimeout()
	if got < 15*time.Second || got > time.Minute {
		t.Errorf("statistical timeout = %v, want ~20 s + k·sd within [floor, ceil]", got)
	}
	s.SetExpected(adl.ToolKettle) // no data: floor
	if got := s.IdleTimeout(); got != 10*time.Second {
		t.Errorf("timeout without data = %v", got)
	}
}

// TestHistoryAndSequenceCopy: the session's step history is what the
// handler records, each event a copy the subsystem keeps no hold on, so
// editing a recorded event changes nothing the subsystem does next.
func TestHistoryAndSequenceCopy(t *testing.T) {
	s, _, events := newSub(t, Config{})
	s.Start()
	s.HandleUsage(start(adl.ToolTeaBox, 0))
	if want := (StepEvent{Step: adl.StepOf(adl.ToolTeaBox)}); len(*events) != 1 || (*events)[0] != want {
		t.Fatalf("history = %+v, want [%+v]", *events, want)
	}
	(*events)[0].Step = 99
	// The same tool again inside MergeGap still merges into the step the
	// subsystem itself recorded.
	s.HandleUsage(start(adl.ToolTeaBox, time.Second))
	if len(*events) != 1 || s.Stats.Merged != 1 {
		t.Errorf("after a repeat: history = %+v, Merged = %d, want one step and one merge", *events, s.Stats.Merged)
	}
}

// TestStartResetsSession: a new session forgets the previous one's last
// step, so the same tool again inside MergeGap is a new step, not a
// merge.
func TestStartResetsSession(t *testing.T) {
	s, sched, events := newSub(t, Config{})
	s.Start()
	s.HandleUsage(start(adl.ToolTeaBox, 0))
	sched.RunUntil(time.Second)
	s.Stop()
	s.Start()
	s.HandleUsage(start(adl.ToolTeaBox, time.Second))
	if len(*events) != 2 || s.Stats.Merged != 0 {
		t.Errorf("history = %+v, Merged = %d: the restarted session merged into the previous one", *events, s.Stats.Merged)
	}
}
