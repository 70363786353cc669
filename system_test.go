package coreda

import (
	"path/filepath"
	"slices"
	"testing"
	"time"

	"coreda/internal/adl"
	"coreda/internal/sensing"
	"coreda/internal/sensornet"
	"coreda/internal/sim"
)

// feed drives a System directly with synthetic usage events, bypassing
// the radio: each call advances virtual time and reports one tool usage.
type feed struct {
	t     *testing.T
	sched *sim.Scheduler
	sys   *System
}

func (f *feed) use(tool ToolID, after time.Duration) {
	f.t.Helper()
	f.sched.RunUntil(f.sched.Now() + after)
	f.sys.HandleUsage(UsageEvent{Tool: tool, Kind: sensornet.UsageStarted, At: f.sched.Now()})
	f.sched.RunUntil(f.sched.Now() + time.Millisecond)
}

func newDirectSystem(t *testing.T, cfg SystemConfig) (*System, *feed) {
	t.Helper()
	if cfg.Activity == nil {
		cfg.Activity = TeaMaking()
	}
	sched := sim.New()
	sys, err := NewSystem(cfg, sched)
	if err != nil {
		t.Fatal(err)
	}
	return sys, &feed{t: t, sched: sched, sys: sys}
}

func TestNewSystemValidation(t *testing.T) {
	if _, err := NewSystem(SystemConfig{}, sim.New()); err == nil {
		t.Error("nil activity accepted")
	}
	broken := TeaMaking()
	broken.Steps[0].Tool = 99
	if _, err := NewSystem(SystemConfig{Activity: broken}, sim.New()); err == nil {
		t.Error("invalid activity accepted")
	}
}

func TestModeString(t *testing.T) {
	if ModeLearn.String() != "learn" || ModeAssist.String() != "assist" {
		t.Error("mode strings")
	}
	if Mode(0).String() == "" {
		t.Error("unknown mode string")
	}
}

func TestLearnModeAcquiresRoutine(t *testing.T) {
	sys, f := newDirectSystem(t, SystemConfig{UserName: "Mr. Tanaka"})
	routine := TeaMaking().CanonicalRoutine()

	completions := 0
	sys.cfg.OnComplete = func() { completions++ }

	for ep := 0; ep < 120; ep++ {
		sys.StartSession(ModeLearn)
		for _, step := range routine {
			f.use(adl.ToolOf(step), 5*time.Second)
		}
		if sys.Active() {
			t.Fatalf("episode %d: session still active after all steps", ep)
		}
	}
	if completions != 120 {
		t.Errorf("completions = %d", completions)
	}
	if got := sys.Planner().Evaluate([][]StepID{routine}); got != 1 {
		t.Errorf("precision after learning = %v", got)
	}
	if sys.Stats().Reminding.Reminders != 0 {
		t.Error("learn mode must not remind")
	}
}

// trainedSystem returns a system whose planner has fully learned the
// canonical tea-making routine.
func trainedSystem(t *testing.T, cfg SystemConfig) (*System, *feed) {
	t.Helper()
	sys, f := newDirectSystem(t, cfg)
	routine := TeaMaking().CanonicalRoutine()
	episodes := make([][]StepID, 200)
	for i := range episodes {
		episodes[i] = routine
	}
	if err := sys.TrainEpisodes(episodes); err != nil {
		t.Fatal(err)
	}
	if got := sys.Planner().Evaluate([][]StepID{routine}); got != 1 {
		t.Fatalf("training did not converge: %v", got)
	}
	return sys, f
}

func TestAssistModeDetectsWrongTool(t *testing.T) {
	var reminders []Reminder
	var praises []Praise
	sys, f := trainedSystem(t, SystemConfig{
		UserName:   "Mr. Tanaka",
		OnReminder: func(r Reminder) { reminders = append(reminders, r) },
		OnPraise:   func(p Praise) { praises = append(praises, p) },
	})

	sys.StartSession(ModeAssist)
	f.use(adl.ToolTeaBox, 2*time.Second) // step 1: correct
	f.use(adl.ToolTeaCup, 2*time.Second) // wrong: tea-cup instead of pot

	if len(reminders) != 1 {
		t.Fatalf("reminders = %d, want 1", len(reminders))
	}
	r := reminders[0]
	if r.Trigger != TriggerWrongTool {
		t.Errorf("trigger = %v", r.Trigger)
	}
	if r.Tool != adl.ToolPot {
		t.Errorf("prompted tool = %d, want pot", r.Tool)
	}
	if r.WrongTool != adl.ToolTeaCup || r.RedBlinks == 0 {
		t.Errorf("wrong-tool channel = %+v", r)
	}
	if sys.Stats().WrongToolEvents != 1 {
		t.Errorf("WrongToolEvents = %d", sys.Stats().WrongToolEvents)
	}

	// Correct usage after the reminder earns praise (Figure 1, 23 s).
	f.use(adl.ToolPot, 2*time.Second)
	if len(praises) != 1 {
		t.Fatalf("praises = %d, want 1", len(praises))
	}
	// Finish the activity.
	f.use(adl.ToolKettle, 2*time.Second)
	f.use(adl.ToolTeaCup, 2*time.Second)
	if sys.Active() {
		t.Error("session not completed")
	}
}

func TestAssistModeIdleReminder(t *testing.T) {
	var reminders []Reminder
	sys, f := trainedSystem(t, SystemConfig{
		Sensing:    sensingConfig(10 * time.Second),
		OnReminder: func(r Reminder) { reminders = append(reminders, r) },
	})

	sys.StartSession(ModeAssist)
	f.use(adl.ToolTeaBox, 2*time.Second)
	f.use(adl.ToolPot, 2*time.Second)
	// Now the user freezes; the idle timeout (10 s) fires and the system
	// prompts the kettle.
	f.sched.RunUntil(f.sched.Now() + 15*time.Second)
	if len(reminders) == 0 {
		t.Fatal("no idle reminder")
	}
	r := reminders[0]
	if r.Trigger != TriggerIdle || r.Tool != adl.ToolKettle {
		t.Errorf("reminder = %+v", r)
	}
	// Continued idleness re-reminds and eventually escalates to specific.
	f.sched.RunUntil(f.sched.Now() + 40*time.Second)
	last := reminders[len(reminders)-1]
	if len(reminders) < 3 || last.Level != Specific || !last.Escalated {
		t.Errorf("after sustained idling: %d reminders, last = %+v", len(reminders), last)
	}
}

// sensingConfig builds a sensing config with the given idle floor.
func sensingConfig(floor time.Duration) sensing.Config {
	return sensing.Config{IdleFloor: floor}
}

func TestAssistBeforeFirstStepDoesNotRemind(t *testing.T) {
	// Table 4: "we do not have results for predicting the first step of
	// each ADL ... we need them to trigger the start of prediction."
	var reminders []Reminder
	sys, f := trainedSystem(t, SystemConfig{
		Sensing:    sensingConfig(5 * time.Second),
		OnReminder: func(r Reminder) { reminders = append(reminders, r) },
	})
	sys.StartSession(ModeAssist)
	f.sched.RunUntil(f.sched.Now() + 30*time.Second) // idle before any step
	if len(reminders) != 0 {
		t.Errorf("reminded before the first step: %+v", reminders)
	}
}

func TestInitialPromptExtensionRemindsBeforeFirstStep(t *testing.T) {
	var reminders []Reminder
	sys, f := newDirectSystem(t, SystemConfig{
		Planner:    PlannerConfig{LearnInitialPrompt: true},
		Sensing:    sensingConfig(5 * time.Second),
		OnReminder: func(r Reminder) { reminders = append(reminders, r) },
	})
	routine := TeaMaking().CanonicalRoutine()
	episodes := make([][]StepID, 200)
	for i := range episodes {
		episodes[i] = routine
	}
	if err := sys.TrainEpisodes(episodes); err != nil {
		t.Fatal(err)
	}

	sys.StartSession(ModeAssist)
	f.sched.RunUntil(f.sched.Now() + 10*time.Second) // user freezes at the very start
	if len(reminders) == 0 {
		t.Fatal("extension did not remind before the first step")
	}
	if reminders[0].Tool != adl.ToolTeaBox || reminders[0].Trigger != TriggerIdle {
		t.Errorf("initial reminder = %+v, want tea-box/idle", reminders[0])
	}
	// The prompted first step is then accepted and the session proceeds.
	f.use(adl.ToolTeaBox, time.Second)
	p, ok := sys.Predict()
	if !ok || p.Tool != adl.ToolPot {
		t.Errorf("after first step: Predict = %+v, %v", p, ok)
	}
}

func TestInferSkipsRecoversMissedDetection(t *testing.T) {
	var reminders []Reminder
	sys, f := trainedSystem(t, SystemConfig{
		InferSkips: true,
		OnReminder: func(r Reminder) { reminders = append(reminders, r) },
	})
	sys.StartSession(ModeAssist)
	f.use(adl.ToolTeaBox, 2*time.Second)
	// The pot usage is "missed by the sensors": the kettle arrives while
	// the system still expects the pot. With InferSkips the system
	// infers the pot happened and accepts both.
	f.use(adl.ToolKettle, 2*time.Second)
	if len(reminders) != 0 {
		t.Fatalf("reminded despite inferable skip: %+v", reminders)
	}
	st := sys.Stats()
	if st.InferredSteps != 1 {
		t.Errorf("InferredSteps = %d, want 1", st.InferredSteps)
	}
	if st.AcceptedSteps != 3 {
		t.Errorf("AcceptedSteps = %d, want 3 (teabox + inferred pot + kettle)", st.AcceptedSteps)
	}
	p, ok := sys.Predict()
	if !ok || p.Tool != adl.ToolTeaCup {
		t.Errorf("Predict = %+v, %v; want tea-cup", p, ok)
	}
	// A non-inferable wrong tool still triggers situation 2.
	f.use(adl.ToolTeaBox, 2*time.Second)
	if len(reminders) != 1 || reminders[0].Trigger != TriggerWrongTool {
		t.Errorf("reminders = %+v, want one wrong-tool", reminders)
	}
}

func TestUntrainedAssistAcceptsEverything(t *testing.T) {
	var reminders []Reminder
	sys, f := newDirectSystem(t, SystemConfig{
		OnReminder: func(r Reminder) { reminders = append(reminders, r) },
	})
	sys.StartSession(ModeAssist)
	// Any order is accepted because no expectations exist.
	f.use(adl.ToolTeaCup, time.Second)
	f.use(adl.ToolTeaBox, time.Second)
	f.use(adl.ToolKettle, time.Second)
	f.use(adl.ToolPot, time.Second)
	if len(reminders) != 0 {
		t.Errorf("untrained system reminded: %+v", reminders)
	}
	if sys.Active() {
		t.Error("session did not complete after 4 steps")
	}
}

func TestPolicySaveLoadRoundTrip(t *testing.T) {
	sys, _ := trainedSystem(t, SystemConfig{UserName: "Mr. Tanaka"})
	path := filepath.Join(t.TempDir(), "policy.ckpt")
	if err := sys.SavePolicy(path); err != nil {
		t.Fatal(err)
	}

	fresh, _ := newDirectSystem(t, SystemConfig{UserName: "Mr. Tanaka"})
	if err := fresh.LoadPolicy(path); err != nil {
		t.Fatal(err)
	}
	routine := TeaMaking().CanonicalRoutine()
	if got := fresh.Planner().Evaluate([][]StepID{routine}); got != 1 {
		t.Errorf("precision after load = %v", got)
	}
}

func TestLoadPolicyRejectsWrongActivity(t *testing.T) {
	sys, _ := trainedSystem(t, SystemConfig{})
	path := filepath.Join(t.TempDir(), "policy.ckpt")
	if err := sys.SavePolicy(path); err != nil {
		t.Fatal(err)
	}
	other, err := NewSystem(SystemConfig{Activity: ToothBrushing()}, sim.New())
	if err != nil {
		t.Fatal(err)
	}
	if err := other.LoadPolicy(path); err == nil {
		t.Error("tea-making policy loaded into tooth-brushing system")
	}
}

func TestPredictExposedState(t *testing.T) {
	sys, f := trainedSystem(t, SystemConfig{})
	if _, ok := sys.Predict(); ok {
		t.Error("prediction before session")
	}
	sys.StartSession(ModeAssist)
	f.use(adl.ToolTeaBox, time.Second)
	p, ok := sys.Predict()
	if !ok || p.Tool != adl.ToolPot {
		t.Errorf("Predict = %+v, %v", p, ok)
	}
}

func TestKeepLearningUpdatesDuringAssist(t *testing.T) {
	// Partially trained: the table is away from its fixed point, so a
	// KeepLearning session must move it (a fully converged table would
	// legitimately not change on a clean run).
	sys, f := newDirectSystem(t, SystemConfig{KeepLearning: true})
	routine := TeaMaking().CanonicalRoutine()
	for i := 0; i < 3; i++ {
		if err := sys.Planner().TrainEpisode(routine); err != nil {
			t.Fatal(err)
		}
	}
	before := sys.Planner().Table().Clone()
	sys.StartSession(ModeAssist)
	for _, step := range routine {
		f.use(adl.ToolOf(step), 2*time.Second)
	}
	if slices.Equal(sys.Planner().Table().Values(), before.Values()) {
		t.Error("KeepLearning session left the table untouched")
	}
}

func TestFrozenAssistLeavesPolicyUntouched(t *testing.T) {
	sys, f := trainedSystem(t, SystemConfig{})
	before := sys.Planner().Table().Clone()
	sys.StartSession(ModeAssist)
	routine := TeaMaking().CanonicalRoutine()
	for _, step := range routine {
		f.use(adl.ToolOf(step), 2*time.Second)
	}
	if !slices.Equal(sys.Planner().Table().Values(), before.Values()) {
		t.Error("frozen assist session modified the policy")
	}
}

func TestOnSessionStartCallback(t *testing.T) {
	var modes []Mode
	sys, _ := newDirectSystem(t, SystemConfig{
		OnSessionStart: func(m Mode) { modes = append(modes, m) },
	})
	sys.StartSession(ModeLearn)
	sys.EndSession()
	sys.StartSession(ModeAssist)
	sys.EndSession()
	if len(modes) != 2 || modes[0] != ModeLearn || modes[1] != ModeAssist {
		t.Errorf("modes = %v", modes)
	}
}

func TestOnStepCallbackSeesIdleAndSteps(t *testing.T) {
	var steps []StepEvent
	sys, f := newDirectSystem(t, SystemConfig{
		Sensing: sensingConfig(5 * time.Second),
		OnStep:  func(e StepEvent) { steps = append(steps, e) },
	})
	sys.StartSession(ModeLearn)
	f.use(adl.ToolTeaBox, time.Second)
	f.sched.RunUntil(f.sched.Now() + 7*time.Second) // idle fires
	if len(steps) < 2 {
		t.Fatalf("steps = %+v", steps)
	}
	if steps[0].Step != adl.StepOf(adl.ToolTeaBox) || steps[0].Idle {
		t.Errorf("first event = %+v", steps[0])
	}
	if !steps[1].Idle {
		t.Errorf("second event = %+v, want idle", steps[1])
	}
}

func TestInferSkipCompletingSession(t *testing.T) {
	// The inferred step is the second-to-last and the observed one the
	// terminal: inference must complete the session cleanly.
	sys, f := trainedSystem(t, SystemConfig{InferSkips: true})
	done := false
	sys.cfg.OnComplete = func() { done = true }
	sys.StartSession(ModeAssist)
	f.use(adl.ToolTeaBox, 2*time.Second)
	f.use(adl.ToolPot, 2*time.Second)
	// Kettle detection "missed"; tea-cup observed.
	f.use(adl.ToolTeaCup, 2*time.Second)
	if !done {
		t.Fatal("session did not complete via inference")
	}
	st := sys.Stats()
	if st.InferredSteps != 1 || st.AcceptedSteps != 4 {
		t.Errorf("stats = %+v", st)
	}
}

func TestEndSessionIdempotent(t *testing.T) {
	sys, _ := newDirectSystem(t, SystemConfig{})
	sys.StartSession(ModeLearn)
	sys.EndSession()
	sys.EndSession() // second call is a no-op
	if got := sys.Stats().Sessions; got != 1 {
		t.Errorf("Sessions = %d", got)
	}
}

func TestHandleUsageIgnoredWithoutSession(t *testing.T) {
	sys, f := newDirectSystem(t, SystemConfig{})
	f.use(adl.ToolTeaBox, time.Second) // no session active
	if got := sys.Stats().AcceptedSteps; got != 0 {
		t.Errorf("AcceptedSteps = %d", got)
	}
}
