package persona

import (
	"math/rand"
	"testing"
	"time"

	"coreda/internal/adl"
	"coreda/internal/sim"
)

func teaProfile(t *testing.T, severity float64) (*Profile, *adl.Activity) {
	t.Helper()
	a := adl.TeaMaking()
	p := NewProfile("Mr. Tanaka", severity)
	if err := p.SetRoutine(a, a.CanonicalRoutine()); err != nil {
		t.Fatal(err)
	}
	return p, a
}

func TestNewProfileSeverityMonotone(t *testing.T) {
	mild := NewProfile("mild", 0.1)
	severe := NewProfile("severe", 0.9)
	if severe.WrongToolProb <= mild.WrongToolProb {
		t.Error("wrong-tool prob should grow with severity")
	}
	if severe.FreezeProb <= mild.FreezeProb {
		t.Error("freeze prob should grow with severity")
	}
	if severe.ComplyMinimal >= mild.ComplyMinimal {
		t.Error("minimal compliance should fall with severity")
	}
	if severe.ComplySpecific <= severe.ComplyMinimal {
		t.Error("specific prompts should always outperform minimal ones")
	}
}

func TestNewProfileClampsSeverity(t *testing.T) {
	if NewProfile("x", -1).Severity != 0 {
		t.Error("negative severity not clamped")
	}
	if NewProfile("x", 2).Severity != 1 {
		t.Error("oversized severity not clamped")
	}
}

func TestSetRoutineValidates(t *testing.T) {
	a := adl.TeaMaking()
	p := NewProfile("x", 0.2)
	if err := p.SetRoutine(a, adl.Routine{adl.StepOf(adl.ToolTeaBox)}); err == nil {
		t.Error("truncated routine accepted")
	}
	if err := p.SetRoutine(a, a.CanonicalRoutine()); err != nil {
		t.Errorf("canonical routine rejected: %v", err)
	}
}

func TestRoutineSelection(t *testing.T) {
	a := adl.Dressing()
	p := NewProfile("x", 0.2)
	r1 := a.CanonicalRoutine()
	r2 := r1.Clone()
	r2[2], r2[3] = r2[3], r2[2]
	if err := p.SetRoutines(a, r1, r2); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	saw := map[int]bool{}
	for i := 0; i < 100; i++ {
		r, err := p.Routine(a.Name, rng)
		if err != nil {
			t.Fatal(err)
		}
		switch {
		case r.Equal(r1):
			saw[0] = true
		case r.Equal(r2):
			saw[1] = true
		default:
			t.Fatal("unknown routine returned")
		}
	}
	if !saw[0] || !saw[1] {
		t.Error("multi-routine selection never used one of the routines")
	}

	if _, err := p.Routine("no-such-activity", rng); err == nil {
		t.Error("missing activity accepted")
	}
}

func TestCompliesRates(t *testing.T) {
	p := NewProfile("x", 0.8)
	rng := rand.New(rand.NewSource(6))
	minimal, specific := 0, 0
	const n = 5000
	for i := 0; i < n; i++ {
		if p.Complies(false, rng) {
			minimal++
		}
		if p.Complies(true, rng) {
			specific++
		}
	}
	gotMin := float64(minimal) / n
	gotSpec := float64(specific) / n
	if gotMin < p.ComplyMinimal-0.03 || gotMin > p.ComplyMinimal+0.03 {
		t.Errorf("minimal compliance = %v, want ~%v", gotMin, p.ComplyMinimal)
	}
	if gotSpec < p.ComplySpecific-0.03 || gotSpec > p.ComplySpecific+0.03 {
		t.Errorf("specific compliance = %v, want ~%v", gotSpec, p.ComplySpecific)
	}
}

func TestCleanEpisodeMatchesRoutine(t *testing.T) {
	p, a := teaProfile(t, 0.5)
	s := &Sequencer{Profile: p, Activity: a, RNG: rand.New(rand.NewSource(7))}
	ep, err := s.CleanEpisode()
	if err != nil {
		t.Fatal(err)
	}
	if !adl.Routine(ep).Equal(a.CanonicalRoutine()) {
		t.Errorf("clean episode %v != routine", ep)
	}
}

func TestTrainingSetSize(t *testing.T) {
	p, a := teaProfile(t, 0.3)
	s := &Sequencer{Profile: p, Activity: a, RNG: rand.New(rand.NewSource(8))}
	set, err := s.TrainingSet(120)
	if err != nil {
		t.Fatal(err)
	}
	if len(set) != 120 {
		t.Fatalf("len = %d", len(set))
	}
}

// actorHarness wires an Actor to a trivial Perform that records gestures.
type actorHarness struct {
	sched    *sim.Scheduler
	actor    *Actor
	gestures []adl.StepID
}

func newActorHarness(t *testing.T, severity float64, seed int64) *actorHarness {
	t.Helper()
	p, a := teaProfile(t, severity)
	h := &actorHarness{sched: sim.New()}
	actor, err := NewActor(ActorConfig{
		Profile:  p,
		Activity: a,
		Perform: func(step adl.Step) time.Duration {
			h.gestures = append(h.gestures, step.ID())
			return step.TypicalDuration
		},
		RNG: sim.RNG(seed, "actor"),
	}, h.sched)
	if err != nil {
		t.Fatal(err)
	}
	h.actor = actor
	return h
}

func TestActorCompletesWithoutErrors(t *testing.T) {
	h := newActorHarness(t, 0, 1) // severity 0: tiny error probabilities
	done := false
	h.actor.cfg.OnDone = func() { done = true }
	if err := h.actor.Begin(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10000 && !h.actor.Done(); i++ {
		if !h.sched.Step() {
			// Actor stuck (froze): prompt it with the expected tool.
			h.actor.OnPrompt(Prompt{Tool: adl.ToolOf(adl.TeaMaking().Steps[h.actor.Position()].ID()), Specific: true})
		}
	}
	if !h.actor.Done() || !done {
		t.Fatalf("actor not done; pos=%d waiting=%v stats=%+v", h.actor.Position(), h.actor.Waiting(), h.actor.Stats)
	}
	if h.actor.Stats.CorrectSteps != 4 {
		t.Errorf("CorrectSteps = %d, want 4", h.actor.Stats.CorrectSteps)
	}
}

func TestActorFreezeNeedsPrompt(t *testing.T) {
	h := newActorHarness(t, 0, 2)
	h.actor.cfg.Profile.FreezeProb = 1 // always freeze
	h.actor.cfg.Profile.ComplyMinimal = 1
	if err := h.actor.Begin(); err != nil {
		t.Fatal(err)
	}
	h.sched.Run()
	if !h.actor.Waiting() {
		t.Fatal("actor should be frozen")
	}
	if h.actor.Stats.Freezes == 0 {
		t.Error("freeze not counted")
	}
	// Prompt the expected first step; actor complies and performs it.
	h.actor.cfg.Profile.FreezeProb = 0 // subsequent steps proceed
	h.actor.OnPrompt(Prompt{Tool: adl.ToolTeaBox})
	h.sched.Run()
	if !h.actor.Done() {
		t.Errorf("actor not done after unfreeze; pos=%d stats=%+v", h.actor.Position(), h.actor.Stats)
	}
	if h.actor.Stats.PromptsComplied != 1 {
		t.Errorf("PromptsComplied = %d", h.actor.Stats.PromptsComplied)
	}
}

func TestActorIgnoresPromptWhenNonCompliant(t *testing.T) {
	h := newActorHarness(t, 0, 3)
	h.actor.cfg.Profile.FreezeProb = 1
	h.actor.cfg.Profile.ComplyMinimal = 0 // never complies with minimal
	if err := h.actor.Begin(); err != nil {
		t.Fatal(err)
	}
	h.sched.Run()
	h.actor.OnPrompt(Prompt{Tool: adl.ToolTeaBox, Specific: false})
	h.sched.Run()
	if h.actor.Stats.PromptsIgnored != 1 {
		t.Errorf("PromptsIgnored = %d", h.actor.Stats.PromptsIgnored)
	}
	if !h.actor.Waiting() {
		t.Error("actor should still be stuck")
	}
	// A specific prompt (compliance 0.99 at severity 0) gets it moving.
	h.actor.cfg.Profile.ComplySpecific = 1
	h.actor.cfg.Profile.FreezeProb = 0
	h.actor.cfg.Profile.WrongToolProb = 0
	h.actor.OnPrompt(Prompt{Tool: adl.ToolTeaBox, Specific: true})
	h.sched.Run()
	if !h.actor.Done() {
		t.Errorf("actor not done; pos=%d", h.actor.Position())
	}
}

func TestActorWrongToolGetsStuckThenPromptRecovers(t *testing.T) {
	h := newActorHarness(t, 0, 4)
	h.actor.cfg.Profile.WrongToolProb = 1
	h.actor.cfg.Profile.FreezeProb = 0
	h.actor.cfg.Profile.ComplySpecific = 1
	if err := h.actor.Begin(); err != nil {
		t.Fatal(err)
	}
	h.sched.Run()
	if !h.actor.Waiting() {
		t.Fatal("actor should be stuck after wrong tool")
	}
	if h.actor.Stats.WrongTools == 0 {
		t.Error("wrong tool not counted")
	}
	if len(h.gestures) != 1 || h.gestures[0] == adl.StepOf(adl.ToolTeaBox) {
		t.Errorf("gestures = %v, want one wrong gesture", h.gestures)
	}
	// Recover step by step via prompts.
	a := adl.TeaMaking()
	h.actor.cfg.Profile.WrongToolProb = 0
	for i := 0; i < 8 && !h.actor.Done(); i++ {
		h.actor.OnPrompt(Prompt{Tool: adl.ToolOf(a.Steps[h.actor.Position()].ID()), Specific: true})
		h.sched.Run()
	}
	if !h.actor.Done() {
		t.Errorf("actor never finished; pos=%d stats=%+v", h.actor.Position(), h.actor.Stats)
	}
}

func TestActorPromptForForeignToolIgnored(t *testing.T) {
	h := newActorHarness(t, 0, 5)
	h.actor.cfg.Profile.FreezeProb = 1
	h.actor.cfg.Profile.ComplyMinimal = 1
	if err := h.actor.Begin(); err != nil {
		t.Fatal(err)
	}
	h.sched.Run()
	h.actor.OnPrompt(Prompt{Tool: adl.ToolBrush}) // not a tea-making tool
	h.sched.Run()
	if h.actor.Done() || len(h.gestures) != 0 {
		t.Error("foreign-tool prompt should not trigger a gesture")
	}
}

func TestNewActorRequiresConfig(t *testing.T) {
	if _, err := NewActor(ActorConfig{}, sim.New()); err == nil {
		t.Error("empty config accepted")
	}
}

func TestDetectedEpisodeDropsSteps(t *testing.T) {
	p, a := teaProfile(t, 0)
	s := &Sequencer{Profile: p, Activity: a, RNG: rand.New(rand.NewSource(11))}
	perfect := func(adl.StepID) float64 { return 1 }
	ep, err := s.DetectedEpisode(perfect)
	if err != nil {
		t.Fatal(err)
	}
	if !adl.Routine(ep).Equal(a.CanonicalRoutine()) {
		t.Errorf("perfect detection episode = %v", ep)
	}

	never := func(adl.StepID) float64 { return 0 }
	ep, err = s.DetectedEpisode(never)
	if err != nil {
		t.Fatal(err)
	}
	if len(ep) != 0 {
		t.Errorf("zero detection episode = %v", ep)
	}

	// A 50% detector keeps about half the steps over many episodes.
	half := func(adl.StepID) float64 { return 0.5 }
	kept := 0
	const trials = 500
	for i := 0; i < trials; i++ {
		ep, err := s.DetectedEpisode(half)
		if err != nil {
			t.Fatal(err)
		}
		kept += len(ep)
	}
	rate := float64(kept) / float64(trials*4)
	if rate < 0.45 || rate > 0.55 {
		t.Errorf("kept rate = %v, want ~0.5", rate)
	}
}

// Done reports whether the routine completed.
func (a *Actor) Done() bool { return a.done }

// Position returns the current routine index (the next step to perform).
func (a *Actor) Position() int { return a.pos }

// Waiting reports whether the actor is stuck (frozen or just used a wrong
// tool) and needs a prompt to proceed.
func (a *Actor) Waiting() bool { return a.waiting }
