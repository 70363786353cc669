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
	"slices"
)

// State is a discrete state index in [0, NumStates).
type State int

// Action is a discrete action index in [0, NumActions).
type Action int

// QTable is a table of action values, stored row-sparse.
//
// A household reaches only a few of its activity's states (a trained
// tea-making policy touches 3 of 25), so a state's row holds storage only
// once it has been written. Each state keeps a narrow slot index (noRow
// when never written) into one packed slice of materialized rows, kept in
// first-write order. A row that was never written reads as init
// everywhere. A write materializes its row only when the new value
// differs from init bitwise (math.Float64bits), so a −0.0 or NaN written
// over init is held exactly as a dense table holds it. Values and
// AppendValues emit the dense row-major layout, so checkpoints do not
// depend on which rows are materialized.
//
// The greedy argmax of each materialized row is cached: Best answers from
// the cache, and Set/Add maintain it incrementally where the new value
// cannot change the winner, falling back to a lazy rescan (stale mark)
// only when the current best action's value drops. Predict/Observe hot
// paths therefore stop rescanning whole action rows. The cache reproduces
// the rescan's tie-break (lowest action index among maxima) exactly, so
// greedy behaviour — and every experiment number derived from it — is
// unchanged. A row never written is uniform, so its argmax is (0, init).
//
// The cache is one int32 per materialized row: the winner's value is
// always read from the row rather than kept twice, and -1 marks a stale
// entry.
type QTable struct {
	states  int
	actions int
	init    float64
	slot    []int16   // row index per state; noRow when never written
	q       []float64 // materialized rows, row-major, in first-write order
	bestA   []int32   // cached greedy action per materialized row; staleBest when unknown
}

const (
	// noRow marks a state whose row was never written.
	noRow = -1
	// staleBest marks a bestA entry that must be rescanned.
	staleBest = -1
)

// NewQTable returns a table of the given shape with every entry set to
// init. Optimistic initialization (init > 0) encourages systematic early
// exploration. No row is materialized until a write moves it off init.
// The slot index is an int16, so a table holds at most 32768 states.
func NewQTable(states, actions int, init float64) *QTable {
	t := new(QTable)
	t.Init(states, actions, init)
	return t
}

// Init builds the table NewQTable returns in place, on a zero QTable, so
// an owner can hold the table header by value: only the slot index (and,
// once rows are written, the packed rows and their argmax cache) is
// allocated.
func (t *QTable) Init(states, actions int, init float64) {
	if states <= 0 || states > math.MaxInt16+1 || actions <= 0 || actions > math.MaxInt32 {
		panic(fmt.Sprintf("rl: invalid QTable shape %dx%d", states, actions))
	}
	slot := make([]int16, states)
	for s := range slot {
		slot[s] = noRow
	}
	*t = QTable{states: states, actions: actions, init: init, slot: slot}
}

// NumStates returns the number of states.
func (t *QTable) NumStates() int { return t.states }

// NumActions returns the number of actions.
func (t *QTable) NumActions() int { return t.actions }

// check panics unless (s,a) lies inside the table.
func (t *QTable) check(s State, a Action) {
	if uint(s) >= uint(t.states) || uint(a) >= uint(t.actions) {
		t.outOfRange(s, a)
	}
}

// outOfRange is check's cold path, kept out of line so that check
// inlines.
//
//go:noinline
func (t *QTable) outOfRange(s State, a Action) {
	panic(fmt.Sprintf("rl: (%d,%d) out of %dx%d table", s, a, t.states, t.actions))
}

// Get returns Q(s,a).
//
//coreda:hotpath
func (t *QTable) Get(s State, a Action) float64 {
	t.check(s, a)
	if r := t.slot[s]; r != noRow {
		return t.q[int(r)*t.actions+int(a)]
	}
	return t.init
}

// Set assigns Q(s,a).
//
//coreda:hotpath
func (t *QTable) Set(s State, a Action, v float64) {
	t.check(s, a)
	r := t.slot[s]
	if r == noRow {
		if math.Float64bits(v) == math.Float64bits(t.init) {
			return
		}
		r = t.materialize(s)
	}
	i := int(r)*t.actions + int(a)
	old := t.q[i]
	t.q[i] = v
	t.note(r, a, old, v)
}

// Add increments Q(s,a) by delta.
//
//coreda:hotpath
func (t *QTable) Add(s State, a Action, delta float64) {
	t.check(s, a)
	r := t.slot[s]
	if r == noRow {
		if math.Float64bits(t.init+delta) == math.Float64bits(t.init) {
			return
		}
		r = t.materialize(s)
	}
	i := int(r)*t.actions + int(a)
	old := t.q[i]
	t.q[i] = old + delta
	t.note(r, a, old, t.q[i])
}

// materialize gives state s a row of init values at the end of q and
// returns its slot. It is the table's one allocating step, kept out of
// line so that Set and Add stay small.
//
//go:noinline
func (t *QTable) materialize(s State) int16 {
	r := int16(len(t.bestA))
	n := len(t.q)
	t.q = append(t.q, make([]float64, t.actions)...)
	for i := n; i < len(t.q); i++ {
		t.q[i] = t.init
	}
	t.bestA = append(t.bestA, 0) // a uniform row: action 0 wins the tie
	t.slot[s] = r
	return r
}

// note maintains row r's argmax cache after Q(s,a) went from old to v.
// The only write that can demote the cached winner is lowering its own
// value (old was the best value); everything else either promotes
// (strictly greater, or equal at a lower index — the rescan's tie-break)
// or leaves the winner alone. A NaN is never greater than anything, so
// the rescan keeps a NaN only at action 0 and skips it elsewhere: a
// write of NaN, or of anything over the winner's NaN, marks the entry
// stale rather than guessing.
func (t *QTable) note(r int16, a Action, old, v float64) {
	b := t.bestA[r]
	switch {
	case b == staleBest:
	case Action(b) == a:
		if !(v >= old) {
			t.bestA[r] = staleBest
		}
	default:
		if bv := t.q[int(r)*t.actions+int(b)]; v > bv || (v == bv && a < Action(b)) {
			t.bestA[r] = int32(a)
		} else if math.IsNaN(v) {
			t.bestA[r] = staleBest
		}
	}
}

// Best returns the greedy action at s and its value. Ties break toward the
// lowest action index, so greedy behaviour is deterministic.
//
//coreda:hotpath
func (t *QTable) Best(s State) (Action, float64) {
	t.check(s, 0)
	r := t.slot[s]
	if r == noRow {
		return 0, t.init
	}
	if b := t.bestA[r]; b != staleBest {
		return Action(b), t.q[int(r)*t.actions+int(b)]
	}
	return t.rescan(r)
}

// rescan recomputes row r's argmax and caches it.
func (t *QTable) rescan(r int16) (Action, float64) {
	row := t.q[int(r)*t.actions : (int(r)+1)*t.actions]
	bestA, bestV := Action(0), row[0]
	for a := 1; a < len(row); a++ {
		if v := row[a]; v > bestV {
			bestA, bestV = Action(a), v
		}
	}
	t.bestA[r] = int32(bestA)
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
		init:    t.init,
		slot:    append([]int16(nil), t.slot...),
		q:       append([]float64(nil), t.q...),
		bestA:   append([]int32(nil), t.bestA...),
	}
}

// Values returns a copy of the values in the dense row-major layout
// (states×actions, by state). It is used by persistence.
func (t *QTable) Values() []float64 { return t.AppendValues(nil) }

// AppendValues appends the values in the dense row-major layout to dst
// and returns the extended slice, so incremental checkpointing can reuse
// one scratch buffer across saves instead of allocating a fresh copy per
// table. A row never written is emitted as init values.
func (t *QTable) AppendValues(dst []float64) []float64 {
	dst = slices.Grow(dst, t.states*t.actions)
	for _, r := range t.slot {
		if r == noRow {
			for a := 0; a < t.actions; a++ {
				dst = append(dst, t.init)
			}
			continue
		}
		dst = append(dst, t.q[int(r)*t.actions:(int(r)+1)*t.actions]...)
	}
	return dst
}

// SetValues overwrites the table from a dense row-major slice of len
// states*actions. Only rows holding a value other than init (bitwise)
// are materialized, into one slice sized for exactly those rows; a table
// whose storage already fits them allocates nothing.
func (t *QTable) SetValues(v []float64) error {
	if n := t.states * t.actions; len(v) != n {
		return fmt.Errorf("rl: SetValues with %d values, table holds %d", len(v), n)
	}
	// The first pass numbers the rows to keep, in state order; the
	// second copies them into storage sized for exactly that many.
	rows := 0
	for s := range t.slot {
		t.slot[s] = noRow
		if !t.uniformInit(v[s*t.actions : (s+1)*t.actions]) {
			t.slot[s] = int16(rows)
			rows++
		}
	}
	if cap(t.q) < rows*t.actions {
		t.q = make([]float64, 0, rows*t.actions)
	}
	if cap(t.bestA) < rows {
		t.bestA = make([]int32, 0, rows)
	}
	t.q, t.bestA = t.q[:0], t.bestA[:0]
	for s, r := range t.slot {
		if r != noRow {
			t.q = append(t.q, v[s*t.actions:(s+1)*t.actions]...)
			t.bestA = append(t.bestA, staleBest)
		}
	}
	return nil
}

// uniformInit reports whether every value of row is bitwise init.
func (t *QTable) uniformInit(row []float64) bool {
	init := math.Float64bits(t.init)
	for _, v := range row {
		if math.Float64bits(v) != init {
			return false
		}
	}
	return true
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

// Select picks the action for state s: uniform with probability Epsilon,
// else the best-valued one.
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
