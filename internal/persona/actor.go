package persona

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"coreda/internal/adl"
	"coreda/internal/sim"
)

// Prompt is the actor's perception of a reminder from the system: which
// tool it points at and whether it was a minimal or specific reminder.
type Prompt struct {
	Tool     adl.ToolID
	Specific bool
}

// ActorStats counts what the actor did during a session.
type ActorStats struct {
	CorrectSteps    int
	WrongTools      int
	Freezes         int
	PromptsReceived int
	PromptsComplied int
	PromptsIgnored  int
}

// ActorConfig wires an Actor into a simulation.
type ActorConfig struct {
	// Profile is the user being simulated.
	Profile *Profile
	// Activity is the ADL being performed.
	Activity *adl.Activity
	// Perform physically uses a tool: the integration layer enqueues the
	// gesture waveform into the tool's sensor node and returns how long
	// the performance occupies the user.
	Perform func(step adl.Step) time.Duration
	// RNG drives all behavioural randomness.
	RNG *rand.Rand
	// OnDone is called when the routine completes (may be nil).
	OnDone func()
}

// Actor is a closed-loop simulated user: it performs its routine in
// simulated time, errs according to its profile, and reacts to prompts
// from the reminding subsystem. It is the counterpart of Mr. Tanaka in
// Figure 1 of the paper.
type Actor struct {
	cfg     ActorConfig
	sched   *sim.Scheduler
	routine adl.Routine
	pos     int
	waiting bool // erred or frozen; progress requires a prompt
	busy    bool // currently performing a gesture
	done    bool
	epoch   int // incremented by Begin; stale callbacks from a previous
	// session check it and die instead of corrupting the new one

	// pending holds the latest prompt that arrived while the actor was
	// mid-gesture; it is acted on when the gesture finishes (people
	// notice a blinking LED once their hands are free).
	pending *Prompt

	// Stats accumulates behaviour counts.
	Stats ActorStats
}

// NewActor creates an actor; call Begin to start the session.
func NewActor(cfg ActorConfig, sched *sim.Scheduler) (*Actor, error) {
	if cfg.Profile == nil || cfg.Activity == nil || cfg.Perform == nil || cfg.RNG == nil {
		return nil, fmt.Errorf("persona: ActorConfig requires Profile, Activity, Perform and RNG")
	}
	return &Actor{cfg: cfg, sched: sched}, nil
}

// Begin starts one performance of the activity.
func (a *Actor) Begin() error {
	r, err := a.cfg.Profile.Routine(a.cfg.Activity.Name, a.cfg.RNG)
	if err != nil {
		return err
	}
	a.routine = r
	a.pos = 0
	a.done = false
	a.waiting = false
	a.busy = false
	a.pending = nil
	a.epoch++
	a.schedule(a.pause())
	return nil
}

// Busy reports whether the actor is mid-gesture.
func (a *Actor) Busy() bool { return a.busy }

// OnPrompt delivers a reminder to the actor. A complying actor performs
// the prompted tool's step; an ignoring actor stays stuck until
// re-prompted.
func (a *Actor) OnPrompt(p Prompt) {
	if a.done {
		return
	}
	if a.busy {
		cp := p
		a.pending = &cp
		return
	}
	a.Stats.PromptsReceived++
	if !a.cfg.Profile.Complies(p.Specific, a.cfg.RNG) {
		a.Stats.PromptsIgnored++
		return
	}
	a.Stats.PromptsComplied++
	step, ok := a.cfg.Activity.StepByID(adl.StepOf(p.Tool))
	if !ok {
		return // prompted a tool that is not part of this activity
	}
	a.waiting = false
	a.perform(step)
}

// schedule queues the attempt of the current routine position after d.
func (a *Actor) schedule(d time.Duration) {
	pos, epoch := a.pos, a.epoch
	a.sched.After(d, func() {
		if a.epoch != epoch || a.done || a.busy || a.waiting || a.pos != pos {
			return
		}
		a.attempt()
	})
}

// attempt decides how the actor approaches the current step: freeze, grab
// a wrong tool, or do it right.
func (a *Actor) attempt() {
	p := a.cfg.Profile
	switch {
	case a.cfg.RNG.Float64() < p.FreezeProb:
		// Freeze: do nothing. The system's idle timeout must notice.
		a.Stats.Freezes++
		a.waiting = true
	case a.cfg.RNG.Float64() < p.WrongToolProb:
		a.Stats.WrongTools++
		if wrong, ok := a.wrongStep(); ok {
			a.busy = true
			dur := a.cfg.Perform(wrong)
			epoch := a.epoch
			a.sched.After(dur, func() {
				if a.epoch != epoch {
					return
				}
				a.busy = false
				a.waiting = true // stuck until prompted to the right tool
				a.drainPending()
			})
			return
		}
		a.waiting = true
	default:
		step, _ := a.cfg.Activity.StepByID(a.routine[a.pos])
		a.perform(step)
	}
}

// perform executes a step's gesture and advances the routine if the step
// was the expected one.
func (a *Actor) perform(step adl.Step) {
	a.busy = true
	dur := a.cfg.Perform(step)
	expected := a.routine[a.pos]
	epoch := a.epoch
	a.sched.After(dur, func() {
		if a.epoch != epoch {
			return
		}
		a.busy = false
		if step.ID() != expected {
			// Performed some other tool (e.g. a prompt that does not
			// match the routine): no progress.
			a.waiting = true
			a.drainPending()
			return
		}
		a.Stats.CorrectSteps++
		a.pos++
		a.pending = nil // progress makes any queued prompt stale
		if a.pos >= len(a.routine) {
			a.done = true
			if a.cfg.OnDone != nil {
				a.cfg.OnDone()
			}
			return
		}
		a.schedule(a.pause())
	})
}

// drainPending acts on a prompt that arrived mid-gesture, now that the
// actor's hands are free and it is stuck.
func (a *Actor) drainPending() {
	if a.pending == nil {
		return
	}
	p := *a.pending
	a.pending = nil
	a.OnPrompt(p)
}

// wrongStep picks an out-of-order tool of the activity.
func (a *Actor) wrongStep() (adl.Step, bool) {
	expected := a.routine[a.pos]
	var prev adl.StepID
	if a.pos > 0 {
		prev = a.routine[a.pos-1]
	}
	var candidates []adl.Step
	for _, s := range a.cfg.Activity.Steps {
		if s.ID() != expected && s.ID() != prev {
			candidates = append(candidates, s)
		}
	}
	if len(candidates) == 0 {
		return adl.Step{}, false
	}
	return candidates[a.cfg.RNG.Intn(len(candidates))], true
}

// pause draws an inter-step pause from the profile.
func (a *Actor) pause() time.Duration {
	mean := a.cfg.Profile.PauseMean.Seconds()
	if mean <= 0 {
		mean = 1
	}
	d := mean * math.Exp(a.cfg.RNG.NormFloat64()*0.3)
	return time.Duration(d * float64(time.Second))
}
