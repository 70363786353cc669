package rl

import "math/rand"

// ExpectedSARSA implements Expected SARSA with eligibility traces: the
// bootstrap is the ε-greedy expectation over next actions instead of the
// maximum (Q-learning) or the sampled next action (SARSA). It trades a
// little bias for much lower update variance under exploration, which
// makes it a useful comparison point in the algorithm ablations.
type ExpectedSARSA struct {
	cfg    Config
	table  *QTable
	traces *Traces
	// Epsilon is the exploration rate of the behaviour policy whose
	// expectation is bootstrapped. Keep it in sync with the acting
	// policy.
	Epsilon float64
}

// NewExpectedSARSA creates a learner updating table in place.
func NewExpectedSARSA(cfg Config, table *QTable, epsilon float64) (*ExpectedSARSA, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &ExpectedSARSA{
		cfg:     cfg,
		table:   table,
		traces:  NewTraces(cfg.Traces, table.NumActions()),
		Epsilon: epsilon,
	}, nil
}

// StartEpisode resets eligibility traces.
func (l *ExpectedSARSA) StartEpisode() { l.traces.Reset() }

// expectedValue returns E_{a~ε-greedy}[Q(s,a)].
func (l *ExpectedSARSA) expectedValue(s State) float64 {
	n := l.table.NumActions()
	_, best := l.table.Best(s)
	sum := 0.0
	for a := 0; a < n; a++ {
		sum += l.table.Get(s, Action(a))
	}
	uniform := sum / float64(n)
	return (1-l.Epsilon)*best + l.Epsilon*uniform
}

// Observe applies one transition.
func (l *ExpectedSARSA) Observe(s State, a Action, r float64, next State, terminal bool) {
	target := r
	if !terminal {
		target += l.cfg.Gamma * l.expectedValue(next)
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

// DoubleQ implements tabular Double Q-learning (Hasselt 2010): two
// tables, each updated with the other's valuation of its own argmax,
// removing the positive maximization bias plain Q-learning has under
// noisy rewards.
type DoubleQ struct {
	cfg Config
	a   *QTable
	b   *QTable
	rng *rand.Rand
}

// NewDoubleQ allocates both tables with the given shape.
func NewDoubleQ(cfg Config, states, actions int, rng *rand.Rand) (*DoubleQ, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &DoubleQ{
		cfg: cfg,
		a:   NewQTable(states, actions, 0),
		b:   NewQTable(states, actions, 0),
		rng: rng,
	}, nil
}

// Combined returns a table of the two estimators' means; its greedy
// policy is Double Q's acting policy.
func (l *DoubleQ) Combined() *QTable {
	out := l.a.Clone()
	for s := 0; s < out.NumStates(); s++ {
		for a := 0; a < out.NumActions(); a++ {
			v := (l.a.Get(State(s), Action(a)) + l.b.Get(State(s), Action(a))) / 2
			out.Set(State(s), Action(a), v)
		}
	}
	return out
}

// Best returns the combined-estimate greedy action at s.
func (l *DoubleQ) Best(s State) (Action, float64) {
	bestA, bestV := Action(0), l.a.Get(s, 0)+l.b.Get(s, 0)
	for a := 1; a < l.a.NumActions(); a++ {
		if v := l.a.Get(s, Action(a)) + l.b.Get(s, Action(a)); v > bestV {
			bestA, bestV = Action(a), v
		}
	}
	return bestA, bestV / 2
}

// Observe applies one transition, updating one table chosen by coin flip
// with the other's estimate of its argmax.
func (l *DoubleQ) Observe(s State, a Action, r float64, next State, terminal bool) {
	update, other := l.a, l.b
	if l.rng.Intn(2) == 1 {
		update, other = l.b, l.a
	}
	target := r
	if !terminal {
		argmax, _ := update.Best(next)
		target += l.cfg.Gamma * other.Get(next, argmax)
	}
	delta := target - update.Get(s, a)
	update.Add(s, a, l.cfg.Alpha*delta)
}
