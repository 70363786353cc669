package rl

import "fmt"

// Config holds the learner hyperparameters.
type Config struct {
	// Alpha is the learning rate in (0, 1].
	Alpha float64
	// Gamma is the discount factor in [0, 1] — the paper's "converge
	// factor β" in its cumulative-reward definition.
	Gamma float64
	// Lambda is the eligibility-trace decay in [0, 1]; 0 degenerates to
	// one-step Q-learning / SARSA.
	Lambda float64
	// Traces selects accumulating or replacing traces.
	Traces TraceKind
}

// Validate checks the hyperparameters.
func (c Config) Validate() error {
	if c.Alpha <= 0 || c.Alpha > 1 {
		return fmt.Errorf("rl: alpha %v out of (0,1]", c.Alpha)
	}
	if c.Gamma < 0 || c.Gamma > 1 {
		return fmt.Errorf("rl: gamma %v out of [0,1]", c.Gamma)
	}
	if c.Lambda < 0 || c.Lambda > 1 {
		return fmt.Errorf("rl: lambda %v out of [0,1]", c.Lambda)
	}
	return nil
}

// DefaultConfig returns the hyperparameters used by the CoReDA
// reproduction experiments. Gamma is deliberately moderate: during
// training the prompt does not alter which step the user takes next, so
// the bootstrap term is action-independent and only the immediate-reward
// margins (100 vs 50 vs 0) order the actions — a large gamma buries those
// margins under the discounted terminal reward and slows convergence far
// past the iteration counts the paper reports.
func DefaultConfig() Config {
	// Alpha is high because the training signal is near-deterministic (a
	// fixed personal routine and a deterministic reward function): large
	// steps converge each sampled action in a couple of visits without
	// the variance penalty a stochastic task would incur.
	return Config{Alpha: 0.8, Gamma: 0.5, Lambda: 0.7, Traces: ReplacingTraces}
}

// QLambda implements Watkins's Q(λ): off-policy TD(λ) control. This is
// the "TD(λ) Q-Learning technique" of the paper.
//
// After a transition (s, a, r, s'):
//
//	δ  = r + γ·max_b Q(s',b) − Q(s,a)
//	e(s,a) ← visit
//	Q ← Q + α·δ·e             (all traced pairs)
//	e ← γλ·e  if a was greedy, else e ← 0
//
// Cutting traces after exploratory actions keeps the backup on-policy with
// respect to the greedy target, which is what makes it Watkins's variant.
//
// The learner holds the one copy of its hyperparameters (Config) and its
// traces by value, so an owner that embeds a QLambda carries no separate
// objects for either.
type QLambda struct {
	cfg    Config
	table  *QTable
	traces Traces
}

// NewQLambda creates a learner updating the given table in place.
func NewQLambda(cfg Config, table *QTable) (*QLambda, error) {
	l := new(QLambda)
	if err := l.Init(cfg, table); err != nil {
		return nil, err
	}
	return l, nil
}

// Init builds the learner NewQLambda returns in place, on a zero
// QLambda.
func (l *QLambda) Init(cfg Config, table *QTable) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	*l = QLambda{cfg: cfg, table: table, traces: Traces{kind: cfg.Traces}}
	return nil
}

// Config returns the learner's hyperparameters.
func (l *QLambda) Config() Config { return l.cfg }

// StartEpisode resets eligibility traces; call it at each episode start.
func (l *QLambda) StartEpisode() { l.traces.Reset() }

// Observe applies one transition. greedy must report whether a was the
// greedy action at s *before* this update (the policy layer knows whether
// it explored); terminal marks s' as absorbing, contributing no bootstrap
// value.
func (l *QLambda) Observe(s State, a Action, r float64, next State, terminal, greedy bool) {
	target := r
	if !terminal {
		target += l.cfg.Gamma * l.table.BestValue(next)
	}
	delta := target - l.table.Get(s, a)

	l.traces.Visit(s, a)
	alpha := l.cfg.Alpha
	l.traces.ForEach(func(ts State, ta Action, e float64) {
		l.table.Add(ts, ta, alpha*delta*e)
	})

	if greedy {
		l.traces.Decay(l.cfg.Gamma * l.cfg.Lambda)
	} else {
		l.traces.Reset()
	}
	if terminal {
		l.traces.Reset()
	}
}

// SARSALambda implements on-policy SARSA(λ), used as an algorithmic
// baseline in the ablation benches.
type SARSALambda struct {
	cfg    Config
	table  *QTable
	traces *Traces
}

// NewSARSALambda creates a SARSA(λ) learner updating table in place.
func NewSARSALambda(cfg Config, table *QTable) (*SARSALambda, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &SARSALambda{
		cfg:    cfg,
		table:  table,
		traces: NewTraces(cfg.Traces, table.NumActions()),
	}, nil
}

// StartEpisode resets eligibility traces.
func (l *SARSALambda) StartEpisode() { l.traces.Reset() }

// Observe applies one transition using the action actually taken next
// (on-policy bootstrap).
func (l *SARSALambda) Observe(s State, a Action, r float64, next State, nextA Action, terminal bool) {
	target := r
	if !terminal {
		target += l.cfg.Gamma * l.table.Get(next, nextA)
	}
	delta := target - l.table.Get(s, a)

	l.traces.Visit(s, a)
	alpha := l.cfg.Alpha
	l.traces.ForEach(func(ts State, ta Action, e float64) {
		l.table.Add(ts, ta, alpha*delta*e)
	})
	l.traces.Decay(l.cfg.Gamma * l.cfg.Lambda)
	if terminal {
		l.traces.Reset()
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
