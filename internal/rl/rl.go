// Package rl is a tabular reinforcement-learning library implementing the
// algorithms CoReDA's planning subsystem needs: Watkins Q(λ) — "TD(λ)
// Q-Learning" in the paper's terminology — SARSA(λ), ε-greedy/softmax
// policies with decay schedules, eligibility traces, and value iteration
// for the MDP baseline.
//
// The paper used RL Toolbox 2.0; this package replaces it with a
// stdlib-only implementation exposing the same hyperparameter surface
// (α, γ, λ, ε, trace type).
package rl

import (
	"fmt"
	"math"
	"math/rand"
)

// State is a discrete state index in [0, NumStates).
type State int

// Action is a discrete action index in [0, NumActions).
type Action int

// QTable is a dense table of action values.
//
// The greedy argmax of each state is cached: Best answers from the cache,
// and Set/Add maintain it incrementally where the new value cannot change
// the winner, falling back to a lazy rescan (stale mark) only when the
// current best action's value drops. Predict/Observe hot paths therefore
// stop rescanning whole action rows. The cache reproduces the rescan's
// tie-break (lowest action index among maxima) exactly, so greedy
// behaviour — and every experiment number derived from it — is unchanged.
//
// The cache is one int32 per state: the winner's value is always
// q[s*actions+bestA[s]], so it is read from the table rather than kept
// twice, and -1 marks a stale entry.
type QTable struct {
	states  int
	actions int
	q       []float64

	bestA []int32 // cached greedy action per state; staleBest when unknown
}

// staleBest marks a bestA entry that must be rescanned.
const staleBest = -1

// NewQTable allocates a table of the given shape with every entry set to
// init. Optimistic initialization (init > 0) encourages systematic early
// exploration.
func NewQTable(states, actions int, init float64) *QTable {
	if states <= 0 || actions <= 0 || actions > math.MaxInt32 {
		panic(fmt.Sprintf("rl: invalid QTable shape %dx%d", states, actions))
	}
	t := &QTable{
		states:  states,
		actions: actions,
		q:       make([]float64, states*actions),
		bestA:   make([]int32, states), // every row is uniform: action 0 wins the tie
	}
	if init != 0 {
		for i := range t.q {
			t.q[i] = init
		}
	}
	return t
}

// NumStates returns the number of states.
func (t *QTable) NumStates() int { return t.states }

// NumActions returns the number of actions.
func (t *QTable) NumActions() int { return t.actions }

func (t *QTable) idx(s State, a Action) int {
	if s < 0 || int(s) >= t.states || a < 0 || int(a) >= t.actions {
		panic(fmt.Sprintf("rl: (%d,%d) out of %dx%d table", s, a, t.states, t.actions))
	}
	return int(s)*t.actions + int(a)
}

// Get returns Q(s,a).
func (t *QTable) Get(s State, a Action) float64 { return t.q[t.idx(s, a)] }

// Set assigns Q(s,a).
func (t *QTable) Set(s State, a Action, v float64) {
	i := t.idx(s, a)
	old := t.q[i]
	t.q[i] = v
	t.note(s, a, old, v)
}

// Add increments Q(s,a) by delta.
func (t *QTable) Add(s State, a Action, delta float64) {
	i := t.idx(s, a)
	old := t.q[i]
	t.q[i] += delta
	t.note(s, a, old, t.q[i])
}

// note maintains the argmax cache after Q(s,a) went from old to v. The
// only write that can demote the cached winner is lowering its own value
// (old was the best value); everything else either promotes (strictly
// greater, or equal at a lower index — the rescan's tie-break) or leaves
// the winner alone.
func (t *QTable) note(s State, a Action, old, v float64) {
	b := t.bestA[s]
	switch {
	case b == staleBest:
	case Action(b) == a:
		if v < old {
			t.bestA[s] = staleBest
		}
	default:
		if bv := t.q[int(s)*t.actions+int(b)]; v > bv || (v == bv && a < Action(b)) {
			t.bestA[s] = int32(a)
		}
	}
}

// Best returns the greedy action at s and its value. Ties break toward the
// lowest action index, so greedy behaviour is deterministic.
func (t *QTable) Best(s State) (Action, float64) {
	base := t.idx(s, 0)
	if b := t.bestA[s]; b != staleBest {
		return Action(b), t.q[base+int(b)]
	}
	bestA, bestV := Action(0), t.q[base]
	for a := 1; a < t.actions; a++ {
		if v := t.q[base+a]; v > bestV {
			bestA, bestV = Action(a), v
		}
	}
	t.bestA[s] = int32(bestA)
	return bestA, bestV
}

// BestValue returns max_a Q(s,a).
func (t *QTable) BestValue(s State) float64 {
	_, v := t.Best(s)
	return v
}

// Clone returns a deep copy of the table.
func (t *QTable) Clone() *QTable {
	return &QTable{
		states:  t.states,
		actions: t.actions,
		q:       append([]float64(nil), t.q...),
		bestA:   append([]int32(nil), t.bestA...),
	}
}

// MaxAbsDiff returns the largest absolute entry-wise difference between
// two same-shaped tables; it is a convergence signal.
func (t *QTable) MaxAbsDiff(other *QTable) float64 {
	if t.states != other.states || t.actions != other.actions {
		panic("rl: MaxAbsDiff on differently shaped tables")
	}
	m := 0.0
	for i := range t.q {
		if d := math.Abs(t.q[i] - other.q[i]); d > m {
			m = d
		}
	}
	return m
}

// Values returns a copy of the raw value slice (row-major by state). It is
// used by persistence.
func (t *QTable) Values() []float64 { return t.AppendValues(nil) }

// AppendValues appends a copy of the raw value slice (row-major by state)
// to dst and returns the extended slice, so incremental checkpointing can
// reuse one scratch buffer across saves instead of allocating a fresh
// copy per table.
func (t *QTable) AppendValues(dst []float64) []float64 { return append(dst, t.q...) }

// SetValues overwrites the table from a raw slice of len states*actions.
func (t *QTable) SetValues(v []float64) error {
	if len(v) != len(t.q) {
		return fmt.Errorf("rl: SetValues with %d values, table holds %d", len(v), len(t.q))
	}
	copy(t.q, v)
	for s := range t.bestA {
		t.bestA[s] = staleBest
	}
	return nil
}

// Policy selects actions from a Q-table.
type Policy interface {
	// Select picks an action for state s.
	Select(t *QTable, s State, rng *rand.Rand) Action
}

// Greedy always picks the best-valued action.
type Greedy struct{}

// Select implements Policy.
func (Greedy) Select(t *QTable, s State, _ *rand.Rand) Action {
	a, _ := t.Best(s)
	return a
}

// EpsilonGreedy explores uniformly with probability Epsilon and exploits
// otherwise. Call Decay after each episode to anneal Epsilon toward Min.
type EpsilonGreedy struct {
	// Epsilon is the current exploration probability.
	Epsilon float64
	// DecayRate multiplies Epsilon at each Decay call (1 = no decay).
	DecayRate float64
	// Min floors the annealed Epsilon.
	Min float64
}

// Select implements Policy.
func (p *EpsilonGreedy) Select(t *QTable, s State, rng *rand.Rand) Action {
	if rng.Float64() < p.Epsilon {
		return Action(rng.Intn(t.NumActions()))
	}
	a, _ := t.Best(s)
	return a
}

// Decay anneals Epsilon by DecayRate, flooring at Min.
func (p *EpsilonGreedy) Decay() {
	if p.DecayRate > 0 && p.DecayRate < 1 {
		p.Epsilon *= p.DecayRate
		if p.Epsilon < p.Min {
			p.Epsilon = p.Min
		}
	}
}

// Softmax samples actions with Boltzmann probabilities at the given
// temperature: higher temperature, more exploration.
type Softmax struct {
	// Temperature must be positive.
	Temperature float64
}

// Select implements Policy.
func (p Softmax) Select(t *QTable, s State, rng *rand.Rand) Action {
	temp := p.Temperature
	if temp <= 0 {
		temp = 1
	}
	n := t.NumActions()
	// Subtract the max for numerical stability.
	maxV := math.Inf(-1)
	for a := 0; a < n; a++ {
		if v := t.Get(s, Action(a)); v > maxV {
			maxV = v
		}
	}
	weights := make([]float64, n)
	total := 0.0
	for a := 0; a < n; a++ {
		w := math.Exp((t.Get(s, Action(a)) - maxV) / temp)
		weights[a] = w
		total += w
	}
	r := rng.Float64() * total
	for a := 0; a < n; a++ {
		r -= weights[a]
		if r <= 0 {
			return Action(a)
		}
	}
	return Action(n - 1)
}
