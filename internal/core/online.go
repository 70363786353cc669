package core

import (
	"coreda/internal/adl"
	"coreda/internal/rl"
)

// OnlineSession drives a Planner from live step events — the learning
// procedure of Figure 3 of the paper: the agent acts (a prompt is chosen,
// and possibly delivered), the user transitions, the learner computes the
// reward and updates the policy. "Since Q-Learning has a reward mechanism,
// it does not require explicit feedback from care recipients or
// caregivers."
//
// Terminal rewards need hindsight (a step is only known to be terminal
// when the session completes), so each transition is held for one event
// before being learned.
//
// Idle pseudo-steps are triggers for the reminding subsystem, not routine
// progress; they do not advance the learned state chain.
type OnlineSession struct {
	p     *Planner
	learn bool

	prev, cur adl.StepID
	haveCur   bool

	// chosen is the action selected (or externally issued) at the
	// current state, awaiting its outcome. delivered marks that it was a
	// real prompt shown to the user (NotePrompt), not a hypothetical.
	chosen    rl.Action
	hasChosen bool
	delivered bool

	// held is the previous transition, deferred until we know whether
	// it completed the activity.
	held    *heldTransition
	stepSeq []adl.StepID
}

type heldTransition struct {
	s         rl.State
	a         rl.Action
	greedy    bool
	prompt    Prompt
	next      adl.StepID
	s2        rl.State
	delivered bool
}

// NewOnlineSession wraps a planner for online use. With learn false the
// session only predicts (frozen policy), which is how a converged system
// is deployed ("obviously it is not proper for elderly whose dementia will
// become worse" to keep adapting — section 3.2).
func NewOnlineSession(p *Planner, learn bool) *OnlineSession {
	s := &OnlineSession{p: p, learn: learn}
	s.Reset()
	return s
}

// Reset starts a new activity session.
func (o *OnlineSession) Reset() {
	o.prev = adl.StepIdle
	o.cur = adl.StepIdle
	o.haveCur = false
	o.hasChosen = false
	o.held = nil
	o.stepSeq = o.stepSeq[:0]
	if o.learn {
		o.p.learner.StartEpisode()
	}
}

// Current returns the last observed (prev, cur) pair.
func (o *OnlineSession) Current() (prev, cur adl.StepID, ok bool) {
	return o.prev, o.cur, o.haveCur
}

// Predict returns the prompt the current policy recommends for the
// session's present state. Before the first step it predicts from the
// virtual <idle, idle> state when the planner learns initial prompts, and
// abstains otherwise (the paper's behaviour).
func (o *OnlineSession) Predict() (Prompt, bool) {
	if !o.haveCur {
		if o.p.cfg.LearnInitialPrompt {
			return o.p.Predict(adl.StepIdle, adl.StepIdle)
		}
		return Prompt{}, false
	}
	return o.p.Predict(o.prev, o.cur)
}

// NotePrompt records that the reminding subsystem actually delivered p at
// the current state, overriding the session's hypothetical action so the
// learner credits what really happened.
func (o *OnlineSession) NotePrompt(p Prompt) {
	if !o.learn {
		return
	}
	if !o.haveCur && !o.p.cfg.LearnInitialPrompt {
		return
	}
	if a, ok := o.p.codec.Action(p); ok {
		o.chosen = a
		o.hasChosen = true
		o.delivered = true
	}
}

// DeliverablePrompt returns the prompt the system should actually show
// the user: the greedy tool (prompting a non-greedy tool would misdirect
// a patient, so tools are never explored on-line) with the level drawn
// from the exploration policy — levels are safe to explore, and without
// occasional level exploration the policy could never discover that a
// user who once ignored a minimal prompt now responds to them.
func (o *OnlineSession) DeliverablePrompt() (Prompt, bool) {
	p, ok := o.Predict()
	if !ok {
		return p, false
	}
	if o.learn && o.p.rng.Float64() < o.p.policy.Epsilon {
		if o.p.rng.Intn(2) == 0 {
			p.Level = Minimal
		} else {
			p.Level = Specific
		}
	}
	return p, true
}

// NoteFailedPrompt records that a delivered prompt went unanswered (the
// system re-triggered before any step happened). The prompt is learned as
// a self-loop: it produced no transition, earning the wrong-prompt reward
// and bootstrapping from the unchanged state. This is what lets the
// policy discover that minimal prompts do not work on a user who needs
// specific ones — failed reminders are negative evidence.
func (o *OnlineSession) NoteFailedPrompt(p Prompt) {
	if !o.learn {
		return
	}
	prev, cur := o.prev, o.cur
	if !o.haveCur {
		if !o.p.cfg.LearnInitialPrompt {
			return
		}
		prev, cur = adl.StepIdle, adl.StepIdle
	}
	a, ok := o.p.codec.Action(p)
	if !ok {
		return
	}
	s, ok := o.p.codec.State(prev, cur)
	if !ok {
		return
	}
	rc := o.p.learner.Config()
	target := o.p.cfg.Rewards.Wrong + rc.Gamma*o.p.table.BestValue(s)
	q := o.p.table.Get(s, a)
	// Compliance is a Bernoulli outcome, unlike the near-deterministic
	// routine transitions the main learning rate is tuned for; a gentler
	// step keeps one unlucky ignored prompt from erasing a level
	// preference built from many successes.
	alpha := rc.Alpha * 0.3
	o.p.table.Set(s, a, q+alpha*(target-q))
}

// Observe consumes the next real step event and returns the policy's
// prompt for the *new* state (what the user should do next). ok is false
// when the step is foreign to the activity or no positive-value
// prediction exists yet.
func (o *OnlineSession) Observe(step adl.StepID) (Prompt, bool) {
	if step == adl.StepIdle {
		return o.Predict() // idle does not advance the chain
	}
	if o.p.codec.stepIndex(step) < 0 {
		return Prompt{}, false
	}
	o.stepSeq = append(o.stepSeq, step)

	if !o.haveCur {
		if o.learn && o.p.cfg.LearnInitialPrompt {
			s0, _ := o.p.codec.State(adl.StepIdle, adl.StepIdle)
			s1, _ := o.p.codec.State(adl.StepIdle, step)
			a := o.chosen
			if !o.hasChosen {
				a = o.p.policy.Select(&o.p.table, s0, o.p.rng)
			}
			greedyA, _ := o.p.table.Best(s0)
			o.held = &heldTransition{
				s:         s0,
				a:         a,
				greedy:    a == greedyA,
				prompt:    o.p.codec.Decode(a),
				next:      step,
				s2:        s1,
				delivered: o.hasChosen && o.delivered,
			}
		}
		o.cur = step
		o.haveCur = true
		o.hasChosen = false
		o.selectAction()
		return o.Predict()
	}

	s, _ := o.p.codec.State(o.prev, o.cur)
	s2, _ := o.p.codec.State(o.cur, step)

	if o.learn {
		// The held (older) transition is now known to be non-terminal.
		o.flushHeld(false)
		a := o.chosen
		if !o.hasChosen {
			a = o.p.policy.Select(&o.p.table, s, o.p.rng)
		}
		greedyA, _ := o.p.table.Best(s)
		o.held = &heldTransition{
			s:         s,
			a:         a,
			greedy:    a == greedyA,
			prompt:    o.p.codec.Decode(a),
			next:      step,
			s2:        s2,
			delivered: o.hasChosen && o.delivered,
		}
	}

	o.prev, o.cur = o.cur, step
	o.hasChosen = false
	o.selectAction()
	return o.Predict()
}

// Complete ends the session: the held transition is learned as terminal
// and exploration is annealed.
func (o *OnlineSession) Complete() {
	if o.learn {
		o.flushHeld(true)
		if len(o.stepSeq) >= 2 {
			o.p.policy.Decay()
			o.p.Episodes++
		}
	}
	o.haveCur = false
	o.hasChosen = false
}

func (o *OnlineSession) selectAction() {
	if !o.learn {
		return
	}
	s, ok := o.p.codec.State(o.prev, o.cur)
	if !ok {
		return
	}
	o.chosen = o.p.policy.Select(&o.p.table, s, o.p.rng)
	o.hasChosen = true
	o.delivered = false
}

func (o *OnlineSession) flushHeld(terminal bool) {
	if o.held == nil {
		return
	}
	h := o.held
	o.held = nil
	r := o.p.cfg.Rewards.Of(h.prompt, h.next, terminal)
	o.p.learner.Observe(h.s, h.a, r, h.s2, terminal, h.greedy)
	o.p.counterfactual(h.s, h.a, h.next, terminal, h.s2, h.delivered)
	o.p.remember(transition{s: h.s, a: h.a, r: r, next: h.s2, terminal: terminal})
}
