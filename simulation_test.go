package coreda

import (
	"strings"
	"testing"
	"time"

	"coreda/internal/adl"
	"coreda/internal/sensing"
	"coreda/internal/wire"
)

func newSim(t *testing.T, severity float64, seed int64, sys SystemConfig) *Simulation {
	t.Helper()
	activity := TeaMaking()
	p := NewPersona("Mr. Tanaka", severity)
	if err := p.SetRoutine(activity, activity.CanonicalRoutine()); err != nil {
		t.Fatal(err)
	}
	s, err := NewSimulation(SimulationConfig{
		Activity: activity,
		Persona:  p,
		Seed:     seed,
		System:   sys,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewSimulationValidation(t *testing.T) {
	if _, err := NewSimulation(SimulationConfig{}); err == nil {
		t.Error("empty config accepted")
	}
	p := NewPersona("x", 0)
	if _, err := NewSimulation(SimulationConfig{Activity: TeaMaking(), Persona: p}); err == nil {
		t.Error("persona without routine accepted")
	}
}

func TestClosedLoopTrainingSessionCompletes(t *testing.T) {
	s := newSim(t, 0, 1, SystemConfig{})
	res, err := s.RunSession(ModeLearn, 5*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatalf("training session did not complete: %+v\n%s", res, s.Timeline)
	}
	if res.Reminders != 0 {
		t.Errorf("learn mode issued %d reminders", res.Reminders)
	}
	if res.Duration <= 0 || res.Duration > 5*time.Minute {
		t.Errorf("duration = %v", res.Duration)
	}
}

func TestClosedLoopTrainingConvergesThroughRealSensors(t *testing.T) {
	s := newSim(t, 0.3, 2, SystemConfig{})
	completed, err := s.RunTraining(80, 5*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	// Detection is deliberately imperfect (Table 3: the pot is extracted
	// at ~80 %, the tea-cup at ~90 %), so a session is fully observed
	// with probability ~0.7; learning must still converge from the
	// partially observed episodes.
	if completed < 40 {
		t.Fatalf("only %d/80 training sessions completed", completed)
	}
	routine := TeaMaking().CanonicalRoutine()
	if got := s.System.Planner().Evaluate([][]StepID{routine}); got < 0.99 {
		t.Errorf("precision after closed-loop training = %v", got)
	}
}

// runAssistFlippingAfterFirstStep runs one assist session, calling flip
// once the actor has performed the first step. The paper's system cannot
// predict (and therefore cannot correct) the first step of an ADL, so
// error-injection tests start erring from the second step.
func runAssistFlippingAfterFirstStep(t *testing.T, s *Simulation, flip func()) {
	t.Helper()
	s.completed = false
	s.System.StartSession(ModeAssist)
	if err := s.Actor.Begin(); err != nil {
		t.Fatal(err)
	}
	flipped := false
	base := s.Actor.Stats.CorrectSteps
	deadline := s.Sched.Now() + 10*time.Minute
	for !s.completed && s.Sched.Now() < deadline {
		if !flipped && s.Actor.Stats.CorrectSteps > base {
			flip()
			flipped = true
		}
		if !s.Sched.Step() {
			break
		}
	}
	if s.System.Active() {
		s.System.EndSession()
	}
	if !s.completed {
		t.Fatalf("assist session did not complete\n%s", s.Timeline)
	}
}

func TestAssistSessionRecoversWrongTools(t *testing.T) {
	s := newSim(t, 0, 3, SystemConfig{})
	if _, err := s.RunTraining(80, 5*time.Minute); err != nil {
		t.Fatal(err)
	}
	p := s.cfg.Persona
	p.FreezeProb = 0
	p.ComplyMinimal = 1
	p.ComplySpecific = 1

	runAssistFlippingAfterFirstStep(t, s, func() { p.WrongToolProb = 1 })

	st := s.System.Stats()
	if st.WrongToolEvents == 0 || st.Reminding.Reminders == 0 {
		t.Errorf("expected wrong-tool reminders, got %+v", st)
	}
	if st.Reminding.Praises == 0 {
		t.Error("recovering from a reminder should earn praise")
	}
}

func TestAssistSessionUnfreezesUser(t *testing.T) {
	s := newSim(t, 0, 4, SystemConfig{Sensing: sensing.Config{IdleFloor: 8 * time.Second}})
	if _, err := s.RunTraining(80, 5*time.Minute); err != nil {
		t.Fatal(err)
	}
	p := s.cfg.Persona
	p.WrongToolProb = 0
	p.ComplyMinimal = 1
	p.ComplySpecific = 1

	// Freeze from the second step on (the paper's system cannot prompt
	// before the first step).
	runAssistFlippingAfterFirstStep(t, s, func() { p.FreezeProb = 1 })
	if s.System.Stats().Reminding.Reminders == 0 {
		t.Error("no idle reminders delivered")
	}
}

func TestAssistRemindersBlinkRealLEDs(t *testing.T) {
	s := newSim(t, 0, 5, SystemConfig{})
	if _, err := s.RunTraining(80, 5*time.Minute); err != nil {
		t.Fatal(err)
	}
	p := s.cfg.Persona
	p.FreezeProb = 0
	p.ComplyMinimal = 1
	p.ComplySpecific = 1
	runAssistFlippingAfterFirstStep(t, s, func() { p.WrongToolProb = 1 })
	green, red := 0, 0
	for _, tool := range TeaMaking().StepIDs() {
		n, ok := s.Node(adl.ToolOf(tool))
		if !ok {
			t.Fatalf("node for tool %d missing", tool)
		}
		green += n.LED(wire.LEDGreen).TotalBlinks
		red += n.LED(wire.LEDRed).TotalBlinks
	}
	if green == 0 {
		t.Error("no green LED blinks reached the nodes")
	}
	if red == 0 {
		t.Error("no red LED blinks reached the nodes (wrong-tool channel)")
	}
}

func TestTimelineRecordsFigure1StyleEntries(t *testing.T) {
	s := newSim(t, 0, 6, SystemConfig{})
	if _, err := s.RunTraining(5, 5*time.Minute); err != nil {
		t.Fatal(err)
	}
	out := s.Timeline.String()
	for _, want := range []string{"session start", "uses tea-box", "uses electronic pot", "completed"} {
		if !strings.Contains(out, want) {
			t.Errorf("timeline missing %q:\n%s", want, out)
		}
	}
}

func TestSimulationDeterminism(t *testing.T) {
	run := func() string {
		s := newSim(t, 0.4, 42, SystemConfig{})
		if _, err := s.RunTraining(10, 5*time.Minute); err != nil {
			t.Fatal(err)
		}
		return s.Timeline.String()
	}
	if run() != run() {
		t.Error("identical seeds produced different timelines")
	}
}

func TestEEPROMLogsFillDuringSessions(t *testing.T) {
	s := newSim(t, 0, 7, SystemConfig{})
	if _, err := s.RunTraining(3, 5*time.Minute); err != nil {
		t.Fatal(err)
	}
	n, _ := s.Node(adl.ToolTeaBox)
	if len(n.LogEntries()) == 0 {
		t.Error("tea-box node EEPROM log empty after sessions")
	}
}
