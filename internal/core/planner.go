package core

import (
	"fmt"
	"math/rand"

	"coreda/internal/adl"
	"coreda/internal/rl"
	"coreda/internal/stats"
	"coreda/internal/store"
)

// Config parameterizes a Planner.
type Config struct {
	// RL holds the TD(λ) Q-learning hyperparameters. Zero value means
	// rl.DefaultConfig.
	RL rl.Config
	// Rewards is the reward function. Zero value means DefaultRewards.
	Rewards RewardConfig
	// Epsilon is the initial exploration rate (zero means 1.0 — the
	// paper: "We start from a random policy"). Because prompts do not
	// alter which step the user takes next during training, every action
	// must keep being sampled for its value to track the bootstrap;
	// generous exploration is free here and decays slowly.
	Epsilon float64
	// EpsilonDecay anneals exploration per episode (zero means 0.95).
	EpsilonDecay float64
	// EpsilonMin floors exploration (zero means 0.01).
	EpsilonMin float64
	// OptimisticInit is the initial Q value; a positive value speeds up
	// systematic exploration of untried prompts.
	OptimisticInit float64
	// LearnInitialPrompt additionally learns a prompt for the virtual
	// session-start state <idle, idle>, so a user who freezes before the
	// FIRST step can be reminded too. The paper cannot do this ("we need
	// them to trigger the start of prediction" — Table 4's missing first
	// rows); a deployed system that knows when a session begins can.
	// Default off: paper-faithful behaviour.
	LearnInitialPrompt bool
	// NoCounterfactual disables the counterfactual sweep. By default,
	// each observed transition also updates every alternative prompt:
	// the reward function is computed by the system itself (no external
	// feedback), so the reward each alternative *would* have received
	// against the user's actual next step is known. Without the sweep,
	// actions sampled early keep stale values as the bootstrap grows and
	// convergence needs several times more episodes — the off arm of the
	// fast-learning ablation.
	NoCounterfactual bool
	// ReplaySize enables experience replay (the paper's "fast learning"
	// future-work item) when positive: that many recent transitions are
	// retained and re-learned.
	ReplaySize int
	// ReplayPerEpisode is how many stored transitions are replayed after
	// each episode (zero with ReplaySize > 0 means 32).
	ReplayPerEpisode int
}

func (c *Config) fill() {
	if c.RL == (rl.Config{}) {
		c.RL = rl.DefaultConfig()
	}
	if c.Rewards == (RewardConfig{}) {
		c.Rewards = DefaultRewards()
	}
	if c.Epsilon == 0 {
		c.Epsilon = 1.0
	}
	if c.EpsilonDecay == 0 {
		c.EpsilonDecay = 0.95
	}
	if c.EpsilonMin == 0 {
		c.EpsilonMin = 0.01
	}
	if c.ReplaySize > 0 && c.ReplayPerEpisode == 0 {
		c.ReplayPerEpisode = 32
	}
}

// transition is one stored experience for replay.
type transition struct {
	s        rl.State
	a        rl.Action
	r        float64
	next     rl.State
	terminal bool
}

// Planner learns one user's routine of one activity and predicts prompts.
//
// What a planner learns with lives in its own struct, each piece once:
// the codec, the Q-table header, the learner (which holds the RL
// hyperparameters and the eligibility traces) and the ε-greedy policy
// (which holds the exploration schedule). The random stream is the
// caller's, and the experience-replay state is built only when replay is
// enabled.
type Planner struct {
	cfg     settings
	codec   codec
	table   rl.QTable
	learner rl.QLambda
	policy  rl.EpsilonGreedy
	rng     *rand.Rand
	// replay is the experience-replay state, nil unless
	// Config.ReplaySize is positive.
	replay *replayBuffer
	// Episodes counts training episodes consumed.
	Episodes int
}

// replayBuffer holds the transitions retained for experience replay and
// the replay settings.
type replayBuffer struct {
	size, perEpisode int
	t                []transition
}

// settings is the part of a Config a Planner reads after Init. The RL
// hyperparameters live in the learner, the exploration schedule in the
// policy and the initial Q value in the table, so none is kept twice.
type settings struct {
	Rewards            RewardConfig
	LearnInitialPrompt bool
	NoCounterfactual   bool
}

// NewPlanner creates a planner for the activity.
func NewPlanner(a *adl.Activity, cfg Config, rng *rand.Rand) (*Planner, error) {
	p := new(Planner)
	if err := p.Init(a, cfg, rng); err != nil {
		return nil, err
	}
	return p, nil
}

// Init builds the planner NewPlanner returns in place, on a zero
// Planner, so an owner can hold the planner by value. The Q-table's slot
// index is its one allocation until rows are written.
func (p *Planner) Init(a *adl.Activity, cfg Config, rng *rand.Rand) error {
	cfg.fill()
	if err := p.codec.init(a); err != nil {
		return err
	}
	p.table.Init(p.codec.NumStates(), p.codec.NumActions(), cfg.OptimisticInit)
	if err := p.learner.Init(cfg.RL, &p.table); err != nil {
		return err
	}
	p.cfg = settings{
		Rewards:            cfg.Rewards,
		LearnInitialPrompt: cfg.LearnInitialPrompt,
		NoCounterfactual:   cfg.NoCounterfactual,
	}
	if cfg.ReplaySize > 0 {
		p.replay = &replayBuffer{size: cfg.ReplaySize, perEpisode: cfg.ReplayPerEpisode}
	}
	p.policy = rl.EpsilonGreedy{Epsilon: cfg.Epsilon, DecayRate: cfg.EpsilonDecay, Min: cfg.EpsilonMin}
	p.rng = rng
	return nil
}

// Activity returns the activity this planner serves.
func (p *Planner) Activity() *adl.Activity { return p.codec.activity }

// Table exposes the learned Q-table (for persistence and inspection).
func (p *Planner) Table() *rl.QTable { return &p.table }

// Epsilon returns the current exploration rate.
func (p *Planner) Epsilon() float64 { return p.policy.Epsilon }

// Restore resets the planner's training progress to a checkpointed state:
// the episode count and the annealed exploration rate. Together with
// Table().SetValues this makes a reloaded planner byte-for-byte
// equivalent to the one that was saved — resumed training continues the
// annealing schedule instead of restarting exploration from scratch.
func (p *Planner) Restore(episodes int, epsilon float64) {
	if episodes >= 0 {
		p.Episodes = episodes
	}
	if epsilon > 0 {
		p.policy.Epsilon = epsilon
	}
}

// RestoreCheckpoint loads one checkpointed policy into the planner: its
// Q-values, copied into the planner's own table, and its training
// progress (see Restore). It is the one path from a checkpoint to a
// planner; the policy must have the activity's state/action shape.
func (p *Planner) RestoreCheckpoint(cp *store.CheckpointPolicy) error {
	if cp.States != p.table.NumStates() || cp.Actions != p.table.NumActions() {
		return fmt.Errorf("core: checkpoint policy shape %dx%d does not match activity (%dx%d)",
			cp.States, cp.Actions, p.table.NumStates(), p.table.NumActions())
	}
	if err := p.table.SetValues(cp.Q); err != nil {
		return err
	}
	p.Restore(cp.Episodes, cp.Epsilon)
	return nil
}

// TrainEpisode learns from one complete performance of the activity (the
// paper's unit of training data: "a complete process of an ADL").
//
// For each consecutive pair the planner acts (selects a prompt), receives
// the paper's reward against the user's actual next step, and applies the
// Watkins Q(λ) update.
func (p *Planner) TrainEpisode(steps []adl.StepID) error {
	if len(steps) < 2 {
		return fmt.Errorf("core: training episode needs at least 2 steps, got %d", len(steps))
	}
	p.learner.StartEpisode()
	if p.cfg.LearnInitialPrompt {
		s0, _ := p.codec.State(adl.StepIdle, adl.StepIdle)
		s1, ok := p.codec.State(adl.StepIdle, steps[0])
		if !ok {
			return fmt.Errorf("core: step 0 (%d) not in activity %q", steps[0], p.codec.activity.Name)
		}
		a := p.policy.Select(&p.table, s0, p.rng)
		greedyA, _ := p.table.Best(s0)
		r := p.cfg.Rewards.Of(p.codec.Decode(a), steps[0], false)
		p.learner.Observe(s0, a, r, s1, false, a == greedyA)
		p.counterfactual(s0, a, steps[0], false, s1, false)
	}
	prev := adl.StepIdle
	for i := 0; i+1 < len(steps); i++ {
		cur, next := steps[i], steps[i+1]
		s, ok := p.codec.State(prev, cur)
		if !ok {
			return fmt.Errorf("core: step %d (%d) not in activity %q", i, cur, p.codec.activity.Name)
		}
		s2, ok := p.codec.State(cur, next)
		if !ok {
			return fmt.Errorf("core: step %d (%d) not in activity %q", i+1, next, p.codec.activity.Name)
		}
		a := p.policy.Select(&p.table, s, p.rng)
		greedyA, _ := p.table.Best(s)
		terminal := i+2 == len(steps)
		r := p.cfg.Rewards.Of(p.codec.Decode(a), next, terminal)
		p.learner.Observe(s, a, r, s2, terminal, a == greedyA)
		p.counterfactual(s, a, next, terminal, s2, false)
		p.remember(transition{s: s, a: a, r: r, next: s2, terminal: terminal})
		prev = cur
	}
	p.policy.Decay()
	p.Episodes++
	p.replayPass()
	return nil
}

// counterfactual applies one-step updates to the alternative actions at s
// against the user's actual next step. During passive training the
// transition does not depend on the prompt, so every alternative's reward
// is known exactly. skipTakenTool must be true when a prompt was really
// delivered: the user may have complied with *that* prompt, so
// alternatives naming the same tool at another level cannot be credited
// counterfactually (their compliance would have differed).
func (p *Planner) counterfactual(s rl.State, taken rl.Action, next adl.StepID, terminal bool, s2 rl.State, skipTakenTool bool) {
	if p.cfg.NoCounterfactual {
		return
	}
	rc := p.learner.Config()
	alpha := rc.Alpha
	boot := 0.0
	if !terminal {
		boot = rc.Gamma * p.table.BestValue(s2)
	}
	takenTool := p.codec.Decode(taken).Tool
	for ai := 0; ai < p.codec.NumActions(); ai++ {
		a := rl.Action(ai)
		if a == taken {
			continue
		}
		prompt := p.codec.Decode(a)
		if skipTakenTool && prompt.Tool == takenTool {
			continue
		}
		target := p.cfg.Rewards.Of(prompt, next, terminal) + boot
		q := p.table.Get(s, a)
		p.table.Set(s, a, q+alpha*(target-q))
	}
}

// remember stores a transition in the replay buffer (if enabled).
func (p *Planner) remember(t transition) {
	rb := p.replay
	if rb == nil {
		return
	}
	if len(rb.t) < rb.size {
		rb.t = append(rb.t, t)
		return
	}
	rb.t[p.rng.Intn(len(rb.t))] = t
}

// replayPass re-learns stored transitions as one-step updates.
func (p *Planner) replayPass() {
	rb := p.replay
	if rb == nil || len(rb.t) == 0 {
		return
	}
	for i := 0; i < rb.perEpisode; i++ {
		t := rb.t[p.rng.Intn(len(rb.t))]
		p.learner.StartEpisode() // replay is one-step: no traces across draws
		p.learner.Observe(t.s, t.a, t.r, t.next, t.terminal, true)
	}
}

// Predict returns the greedy prompt for the state <prev, cur>, with ok
// false when the pair is foreign to the activity or the state has never
// produced positive value (i.e. the planner has nothing learned to say).
func (p *Planner) Predict(prev, cur adl.StepID) (Prompt, bool) {
	s, valid := p.codec.State(prev, cur)
	if !valid {
		return Prompt{}, false
	}
	a, v := p.table.Best(s)
	if v <= 0 {
		return Prompt{}, false
	}
	return p.codec.Decode(a), true
}

// Evaluate measures policy precision over validation episodes: the
// fraction of transitions whose predicted tool matches the actual next
// step. This is the y-axis of the paper's Figure 4.
func (p *Planner) Evaluate(episodes [][]adl.StepID) float64 {
	var c stats.Counter
	for _, steps := range episodes {
		prev := adl.StepIdle
		for i := 0; i+1 < len(steps); i++ {
			cur, next := steps[i], steps[i+1]
			prompt, ok := p.Predict(prev, cur)
			c.Observe(ok && adl.StepOf(prompt.Tool) == next)
			prev = cur
		}
	}
	return c.Rate()
}

// EvaluatePolicy returns the expected precision of the current ε-greedy
// *behaviour* policy (rather than the frozen greedy policy): with
// probability 1−ε the greedy prompt is issued, otherwise a uniformly
// random action whose tool is correct with probability 1/N. This is the
// y-axis of the paper's Figure 4 — a learning curve that keeps improving
// as both the Q ordering stabilizes and exploration anneals, exactly as a
// system trained by RL Toolbox would have reported.
func (p *Planner) EvaluatePolicy(episodes [][]adl.StepID) float64 {
	greedy := p.Evaluate(episodes)
	eps := p.policy.Epsilon
	chance := 1.0 / float64(len(p.codec.activity.Steps))
	return (1-eps)*greedy + eps*chance
}

// SamplePolicyPrecision estimates the behaviour-policy precision by
// actually sampling the ε-greedy policy once per transition of the
// validation episodes. Unlike EvaluatePolicy it is a Monte-Carlo
// measurement: the learning curves it produces carry the sampling noise a
// real evaluation (like the paper's) would show.
func (p *Planner) SamplePolicyPrecision(episodes [][]adl.StepID, rng *rand.Rand) float64 {
	var c stats.Counter
	for _, steps := range episodes {
		prev := adl.StepIdle
		for i := 0; i+1 < len(steps); i++ {
			cur, next := steps[i], steps[i+1]
			s, ok := p.codec.State(prev, cur)
			if !ok {
				c.Observe(false)
				prev = cur
				continue
			}
			a := p.policy.Select(&p.table, s, rng)
			c.Observe(adl.StepOf(p.codec.Decode(a).Tool) == next)
			prev = cur
		}
	}
	return c.Rate()
}

// LearningCurve trains on the given episodes one at a time, evaluating
// policy precision against eval after each, and returns the curve
// (Figure 4 of the paper). Training stops early only when stopAt > 0 and
// precision has reached stopAt.
func (p *Planner) LearningCurve(train, eval [][]adl.StepID, stopAt float64) (*stats.Curve, error) {
	curve := &stats.Curve{}
	for i, ep := range train {
		if err := p.TrainEpisode(ep); err != nil {
			return curve, err
		}
		precision := p.Evaluate(eval)
		curve.Append(i+1, precision)
		if stopAt > 0 && precision >= stopAt {
			break
		}
	}
	return curve, nil
}
