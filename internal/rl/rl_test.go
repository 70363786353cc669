package rl

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestQTableBasics(t *testing.T) {
	q := NewQTable(3, 2, 0)
	if q.NumStates() != 3 || q.NumActions() != 2 {
		t.Fatal("shape")
	}
	q.Set(1, 1, 5)
	q.Add(1, 1, 2)
	if got := q.Get(1, 1); got != 7 {
		t.Errorf("Get = %v", got)
	}
	a, v := q.Best(1)
	if a != 1 || v != 7 {
		t.Errorf("Best = (%v, %v)", a, v)
	}
	if q.BestValue(0) != 0 {
		t.Error("BestValue of untouched state")
	}
}

func TestQTableOptimisticInit(t *testing.T) {
	q := NewQTable(2, 2, 10)
	if q.Get(1, 0) != 10 {
		t.Error("init not applied")
	}
}

func TestQTableGreedyTieBreaksLow(t *testing.T) {
	q := NewQTable(1, 4, 0)
	q.Set(0, 1, 3)
	q.Set(0, 3, 3)
	a, _ := q.Best(0)
	if a != 1 {
		t.Errorf("tie broke to %v, want 1", a)
	}
}

// TestQTableBestCacheMatchesRescan drives a table and its clones through
// random writes — Set, Add, whole-table SetValues, and Clone in both
// directions — and checks after every one that each table's cached
// argmax equals a from-scratch rescan with the lowest-index tie-break,
// the invariant that keeps every experiment number identical to the
// uncached implementation. A clone's cache is checked on its own: writes
// to the source must never show through it, nor the reverse.
func TestQTableBestCacheMatchesRescan(t *testing.T) {
	const states, actions = 7, 5
	rescan := func(q *QTable, s State) (Action, float64) {
		bestA, bestV := Action(0), q.Get(s, 0)
		for a := 1; a < actions; a++ {
			if v := q.Get(s, Action(a)); v > bestV {
				bestA, bestV = Action(a), v
			}
		}
		return bestA, bestV
	}
	// check reports a cached argmax that disagrees with the rescan; where
	// names the table and the write it follows.
	check := func(q *QTable, s State, where ...any) bool {
		wantA, wantV := rescan(q, s)
		gotA, gotV := q.Best(s)
		if gotA != wantA || gotV != wantV {
			t.Logf("%v state %d: cached (%d,%v), rescan (%d,%v)", where, s, gotA, gotV, wantA, wantV)
			return false
		}
		return true
	}

	// The winner lowered to an exact tie: with a lower-index rival the
	// rival takes over, with only higher-index rivals the winner keeps
	// its place.
	for _, tc := range []struct {
		row   []float64
		lower float64
		want  Action
	}{
		{row: []float64{3, 5, 3, 0, 0}, lower: 3, want: 0},
		{row: []float64{1, 5, 3, 3, 0}, lower: 3, want: 1},
		{row: []float64{1, 5, 3, 3, 0}, lower: 2, want: 2},
	} {
		q := NewQTable(1, actions, 0)
		for a, v := range tc.row {
			q.Set(0, Action(a), v)
		}
		if a, _ := q.Best(0); a != 1 {
			t.Fatalf("row %v: best %d before lowering, want 1", tc.row, a)
		}
		q.Set(0, 1, tc.lower)
		if a, _ := q.Best(0); a != tc.want {
			t.Errorf("row %v, winner lowered to %v: best action %d, want %d", tc.row, tc.lower, a, tc.want)
		}
	}

	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tables := [2]*QTable{NewQTable(states, actions, float64(rng.Intn(3)))}
		tables[1] = tables[0].Clone()
		vals := make([]float64, states*actions)
		for i := 0; i < 500; i++ {
			k := rng.Intn(2)
			q := tables[k]
			s := State(rng.Intn(states))
			a := Action(rng.Intn(actions))
			// Small integer steps force frequent exact ties.
			v := float64(rng.Intn(7) - 3)
			switch op := rng.Intn(20); {
			case op == 0:
				for j := range vals {
					vals[j] = float64(rng.Intn(5))
				}
				if err := q.SetValues(vals); err != nil {
					t.Fatal(err)
				}
			case op == 1:
				// Replace the other table with a clone of this one, so
				// stale and fresh cache entries alike are copied.
				tables[1-k] = q.Clone()
			case op < 11:
				q.Set(s, a, v)
			default:
				q.Add(s, a, v)
			}
			for j, q := range tables {
				if !check(q, State(rng.Intn(states)), "seed", seed, "step", i, "table", j) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestQTableCloneIsDeep(t *testing.T) {
	q := NewQTable(2, 2, 0)
	q.Set(0, 0, 1)
	c := q.Clone()
	c.Set(0, 0, 9)
	if q.Get(0, 0) != 1 {
		t.Error("clone shares storage")
	}
	if got := q.MaxAbsDiff(c); got != 8 {
		t.Errorf("MaxAbsDiff = %v", got)
	}
}

func TestQTableValuesRoundTrip(t *testing.T) {
	q := NewQTable(2, 3, 0)
	q.Set(1, 2, 4.5)
	vals := q.Values()
	q2 := NewQTable(2, 3, 0)
	if err := q2.SetValues(vals); err != nil {
		t.Fatal(err)
	}
	if q2.Get(1, 2) != 4.5 {
		t.Error("round trip lost value")
	}
	if err := q2.SetValues([]float64{1}); err == nil {
		t.Error("SetValues accepted wrong length")
	}
}

func TestQTablePanics(t *testing.T) {
	for _, fn := range []func(){
		func() { NewQTable(0, 1, 0) },
		func() { NewQTable(math.MaxInt16+2, 1, 0) },
		func() { NewQTable(1, 1, 0).Get(1, 0) },
		func() { NewQTable(1, 1, 0).Get(0, -1) },
		func() { NewQTable(1, 1, 0).MaxAbsDiff(NewQTable(2, 1, 0)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestEpsilonGreedy(t *testing.T) {
	q := NewQTable(1, 2, 0)
	q.Set(0, 1, 10)
	rng := rand.New(rand.NewSource(1))

	exploit := &EpsilonGreedy{Epsilon: 0}
	for i := 0; i < 20; i++ {
		if exploit.Select(q, 0, rng) != 1 {
			t.Fatal("epsilon 0 must be greedy")
		}
	}

	explore := &EpsilonGreedy{Epsilon: 1}
	zeros := 0
	for i := 0; i < 1000; i++ {
		if explore.Select(q, 0, rng) == 0 {
			zeros++
		}
	}
	if zeros < 400 || zeros > 600 {
		t.Errorf("epsilon 1 selected action 0 %d/1000 times, want ~500", zeros)
	}
}

func TestEpsilonGreedyDecay(t *testing.T) {
	p := &EpsilonGreedy{Epsilon: 1, DecayRate: 0.5, Min: 0.2}
	p.Decay()
	if p.Epsilon != 0.5 {
		t.Errorf("after one decay: %v", p.Epsilon)
	}
	for i := 0; i < 10; i++ {
		p.Decay()
	}
	if p.Epsilon != 0.2 {
		t.Errorf("floored epsilon = %v", p.Epsilon)
	}
	noDecay := &EpsilonGreedy{Epsilon: 0.3, DecayRate: 0}
	noDecay.Decay()
	if noDecay.Epsilon != 0.3 {
		t.Error("zero decay rate must not change epsilon")
	}
}

func TestTracesAccumulatingVsReplacing(t *testing.T) {
	acc := NewTraces(AccumulatingTraces, 2)
	acc.Visit(0, 1)
	acc.Visit(0, 1)
	if got := acc.Get(0, 1); got != 2 {
		t.Errorf("accumulating = %v, want 2", got)
	}
	rep := NewTraces(ReplacingTraces, 2)
	rep.Visit(0, 1)
	rep.Visit(0, 1)
	if got := rep.Get(0, 1); got != 1 {
		t.Errorf("replacing = %v, want 1", got)
	}
}

func TestTracesDecayAndDrop(t *testing.T) {
	tr := NewTraces(AccumulatingTraces, 2)
	tr.Visit(0, 0)
	tr.Decay(0.5)
	if got := tr.Get(0, 0); got != 0.5 {
		t.Errorf("decayed = %v", got)
	}
	for i := 0; i < 40; i++ {
		tr.Decay(0.5)
	}
	if tr.Active() != 0 {
		t.Errorf("Active = %d after heavy decay, want 0", tr.Active())
	}
	tr.Visit(1, 1)
	tr.Reset()
	if tr.Active() != 0 || tr.Get(1, 1) != 0 {
		t.Error("Reset did not clear")
	}
}

func TestConfigValidate(t *testing.T) {
	good := DefaultConfig()
	if err := good.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := []Config{
		{Alpha: 0, Gamma: 0.9, Lambda: 0.5},
		{Alpha: 1.5, Gamma: 0.9, Lambda: 0.5},
		{Alpha: 0.1, Gamma: -0.1, Lambda: 0.5},
		{Alpha: 0.1, Gamma: 1.1, Lambda: 0.5},
		{Alpha: 0.1, Gamma: 0.9, Lambda: -0.5},
		{Alpha: 0.1, Gamma: 0.9, Lambda: 1.5},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %d accepted: %+v", i, c)
		}
	}
	if _, err := NewQLambda(bad[0], NewQTable(1, 1, 0)); err == nil {
		t.Error("NewQLambda accepted bad config")
	}
	if _, err := NewSARSALambda(bad[0], NewQTable(1, 1, 0)); err == nil {
		t.Error("NewSARSALambda accepted bad config")
	}
}

// chainEnv is a deterministic corridor: states 0..n-1, action 1 moves
// right, action 0 moves left (clamped). Reaching state n-1 yields reward 1
// and ends the episode.
type chainEnv struct {
	n   int
	pos State
}

func (c *chainEnv) NumStates() int  { return c.n }
func (c *chainEnv) NumActions() int { return 2 }
func (c *chainEnv) Reset(_ *rand.Rand) State {
	c.pos = 0
	return 0
}
func (c *chainEnv) Step(a Action, _ *rand.Rand) (State, float64, bool) {
	switch a {
	case 1:
		c.pos++
	default:
		if c.pos > 0 {
			c.pos--
		}
	}
	if int(c.pos) == c.n-1 {
		return c.pos, 1, true
	}
	return c.pos, 0, false
}

func TestQLambdaLearnsChainToOptimal(t *testing.T) {
	const n = 6
	gamma := 0.9
	cfg := Config{Alpha: 0.5, Gamma: gamma, Lambda: 0.8, Traces: ReplacingTraces}
	table := NewQTable(n, 2, 0)
	learner, err := NewQLambda(cfg, table)
	if err != nil {
		t.Fatal(err)
	}
	tr := &Trainer{
		Env:     &chainEnv{n: n},
		Learner: learner,
		Policy:  &EpsilonGreedy{Epsilon: 0.3, DecayRate: 0.99, Min: 0.01},
		RNG:     rand.New(rand.NewSource(7)),
	}
	for i := 0; i < 500; i++ {
		tr.RunEpisode()
	}

	// Optimal: Q(s, right) = gamma^(n-2-s) for s in [0, n-2].
	for s := 0; s < n-1; s++ {
		want := math.Pow(gamma, float64(n-2-s))
		got := table.Get(State(s), 1)
		if math.Abs(got-want) > 0.15 {
			t.Errorf("Q(%d, right) = %v, want ~%v", s, got, want)
		}
		a, _ := table.Best(State(s))
		if a != 1 {
			t.Errorf("greedy action at %d = %v, want right", s, a)
		}
	}
}

func TestSARSALambdaLearnsChain(t *testing.T) {
	const n = 5
	cfg := Config{Alpha: 0.5, Gamma: 0.9, Lambda: 0.8, Traces: ReplacingTraces}
	table := NewQTable(n, 2, 0)
	learner, err := NewSARSALambda(cfg, table)
	if err != nil {
		t.Fatal(err)
	}
	env := &chainEnv{n: n}
	rng := rand.New(rand.NewSource(11))
	policy := &EpsilonGreedy{Epsilon: 0.3, DecayRate: 0.99, Min: 0.01}
	for ep := 0; ep < 500; ep++ {
		learner.StartEpisode()
		s := env.Reset(rng)
		a := policy.Select(table, s, rng)
		for step := 0; step < 1000; step++ {
			next, r, done := env.Step(a, rng)
			nextA := policy.Select(table, next, rng)
			learner.Observe(s, a, r, next, nextA, done)
			if done {
				break
			}
			s, a = next, nextA
		}
		policy.Decay()
	}
	for s := 0; s < n-1; s++ {
		a, _ := table.Best(State(s))
		if a != 1 {
			t.Errorf("greedy action at %d = %v, want right", s, a)
		}
	}
}

func TestQLambdaCutsTracesOnExploration(t *testing.T) {
	cfg := Config{Alpha: 0.5, Gamma: 0.9, Lambda: 0.9, Traces: AccumulatingTraces}
	table := NewQTable(3, 2, 0)
	table.Set(0, 1, 1) // make action 1 greedy at state 0
	learner, _ := NewQLambda(cfg, table)
	learner.StartEpisode()
	// Non-greedy action: traces must be cleared afterwards.
	learner.Observe(0, 0, 0, 1, false, false)
	if learner.traces.Active() != 0 {
		t.Errorf("traces after exploratory action = %d, want 0", learner.traces.Active())
	}
	// Greedy action: trace persists (decayed).
	learner.Observe(1, 0, 0, 2, false, true)
	if learner.traces.Active() != 1 {
		t.Errorf("traces after greedy action = %d, want 1", learner.traces.Active())
	}
	// Terminal clears regardless.
	learner.Observe(2, 0, 1, 0, true, true)
	if learner.traces.Active() != 0 {
		t.Errorf("traces after terminal = %d, want 0", learner.traces.Active())
	}
}

func TestLambdaZeroMatchesOneStepQLearning(t *testing.T) {
	// With λ=0 and replacing traces, a single Observe must equal the
	// textbook one-step update.
	cfg := Config{Alpha: 0.5, Gamma: 0.9, Lambda: 0, Traces: ReplacingTraces}
	table := NewQTable(2, 2, 0)
	table.Set(1, 0, 2) // bootstrap value
	learner, _ := NewQLambda(cfg, table)
	learner.StartEpisode()
	learner.Observe(0, 0, 1, 1, false, true)
	// Q(0,0) = 0 + 0.5 * (1 + 0.9*2 - 0) = 1.4
	if got := table.Get(0, 0); math.Abs(got-1.4) > 1e-12 {
		t.Errorf("Q(0,0) = %v, want 1.4", got)
	}
}

func TestValueIterationSolvesChain(t *testing.T) {
	const n = 5
	gamma := 0.9
	m := NewMDP(n, 2)
	for s := 0; s < n-1; s++ {
		left := s - 1
		if left < 0 {
			left = 0
		}
		reward := 0.0
		if s+1 == n-1 {
			reward = 1
		}
		m.AddTransition(State(s), 1, State(s+1), 1, reward)
		m.AddTransition(State(s), 0, State(left), 1, 0)
	}
	m.SetTerminal(State(n - 1))
	q := m.ValueIteration(gamma, 1e-9, 0)
	for s := 0; s < n-1; s++ {
		want := math.Pow(gamma, float64(n-2-s))
		if got := q.Get(State(s), 1); math.Abs(got-want) > 1e-6 {
			t.Errorf("Q(%d, right) = %v, want %v", s, got, want)
		}
		a, _ := q.Best(State(s))
		if a != 1 {
			t.Errorf("greedy at %d = %v", s, a)
		}
	}
}

func TestStochasticMDPValueIteration(t *testing.T) {
	// Two states; action 0 from state 0 reaches terminal 1 with p=0.5
	// (reward 1) or stays (reward 0). V(0) = 0.5 + 0.5*gamma*V(0)
	// => V(0) = 0.5 / (1 - 0.5*gamma).
	gamma := 0.9
	m := NewMDP(2, 1)
	m.AddTransition(0, 0, 1, 0.5, 1)
	m.AddTransition(0, 0, 0, 0.5, 0)
	m.SetTerminal(1)
	q := m.ValueIteration(gamma, 1e-10, 0)
	want := 0.5 / (1 - 0.5*gamma)
	if got := q.Get(0, 0); math.Abs(got-want) > 1e-6 {
		t.Errorf("Q(0,0) = %v, want %v", got, want)
	}
}

// TestValueIterationNegativeRewardAndMissingAction: a cost-only MDP
// converges from above (values fall during the sweeps), and an action
// without transitions is skipped rather than valued.
func TestValueIterationNegativeRewardAndMissingAction(t *testing.T) {
	m := NewMDP(2, 2)
	m.AddTransition(0, 0, 1, 1, -1) // action 1 has no transitions
	m.SetTerminal(1)
	q := m.ValueIteration(0.9, 1e-10, 0)
	if got := q.Get(0, 0); math.Abs(got+1) > 1e-9 {
		t.Errorf("Q(0,0) = %v, want -1", got)
	}
	if got := q.Get(0, 1); got != 0 {
		t.Errorf("Q(0,1) = %v, want the untouched 0", got)
	}
}

func TestNewMDPRejectsInvalidShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewMDP(0, 1) did not panic")
		}
	}()
	NewMDP(0, 1)
}

func TestLearningNeverProducesNaN(t *testing.T) {
	f := func(seed int64) bool {
		cfg := Config{Alpha: 0.9, Gamma: 0.99, Lambda: 0.95, Traces: AccumulatingTraces}
		table := NewQTable(4, 2, 0)
		learner, _ := NewQLambda(cfg, table)
		rng := rand.New(rand.NewSource(seed))
		learner.StartEpisode()
		for i := 0; i < 200; i++ {
			s := State(rng.Intn(4))
			a := Action(rng.Intn(2))
			next := State(rng.Intn(4))
			r := rng.Float64()*2000 - 1000
			learner.Observe(s, a, r, next, rng.Intn(10) == 0, rng.Intn(2) == 0)
		}
		for _, v := range table.Values() {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestTrainerEpisodeResultAndDecay(t *testing.T) {
	table := NewQTable(4, 2, 0)
	learner, _ := NewQLambda(DefaultConfig(), table)
	policy := &EpsilonGreedy{Epsilon: 0.5, DecayRate: 0.9, Min: 0.01}
	tr := &Trainer{
		Env:     &chainEnv{n: 4},
		Learner: learner,
		Policy:  policy,
		RNG:     rand.New(rand.NewSource(3)),
	}
	before := table.Clone()
	res := tr.RunEpisode()
	if res.Steps == 0 || res.Return != 1 {
		t.Errorf("result = %+v", res)
	}
	if policy.Epsilon != 0.45 {
		t.Errorf("epsilon after one episode = %v, want 0.45", policy.Epsilon)
	}
	if table.MaxAbsDiff(before) == 0 {
		t.Error("Q-table unchanged after learning from reward")
	}
}

func TestTrainerMaxStepsBoundsEpisode(t *testing.T) {
	table := NewQTable(100, 2, 0)
	learner, _ := NewQLambda(DefaultConfig(), table)
	tr := &Trainer{
		Env:      &chainEnv{n: 100},
		Learner:  learner,
		Policy:   &EpsilonGreedy{Epsilon: 1}, // pure random: will not finish in 5 steps
		RNG:      rand.New(rand.NewSource(4)),
		MaxSteps: 5,
	}
	res := tr.RunEpisode()
	if res.Steps != 5 {
		t.Errorf("Steps = %d, want 5", res.Steps)
	}
}

// MaxAbsDiff returns the largest absolute entry-wise difference between
// two same-shaped tables; it is a convergence signal.
func (t *QTable) MaxAbsDiff(other *QTable) float64 {
	if t.states != other.states || t.actions != other.actions {
		panic("rl: MaxAbsDiff on differently shaped tables")
	}
	m := 0.0
	for s := 0; s < t.states; s++ {
		for a := 0; a < t.actions; a++ {
			if d := math.Abs(t.Get(State(s), Action(a)) - other.Get(State(s), Action(a))); d > m {
				m = d
			}
		}
	}
	return m
}

// Get returns the trace of (s,a).
func (tr *Traces) Get(s State, a Action) float64 {
	for _, t := range tr.live {
		if t.s == int32(s) && t.a == int32(a) {
			return t.e
		}
	}
	return 0
}

// Active returns the number of non-zero traces.
func (tr *Traces) Active() int { return len(tr.live) }

// Env is an episodic environment with discrete states and actions.
type Env interface {
	// NumStates returns the size of the state space.
	NumStates() int
	// NumActions returns the size of the action space.
	NumActions() int
	// Reset starts a new episode and returns the initial state.
	Reset(rng *rand.Rand) State
	// Step applies an action and returns the next state, the reward and
	// whether the episode ended.
	Step(a Action, rng *rand.Rand) (next State, reward float64, done bool)
}

// Trainer runs Q(λ) episodes against an Env. CoReDA's planning subsystem
// drives the learner directly from live usage events instead.
type Trainer struct {
	Env     Env
	Learner *QLambda
	Policy  Policy
	RNG     *rand.Rand
	// MaxSteps bounds one episode (0 = 10_000).
	MaxSteps int
}

// EpisodeResult summarizes one training episode.
type EpisodeResult struct {
	Steps  int
	Return float64 // undiscounted sum of rewards
}

// RunEpisode plays one episode to termination (or MaxSteps).
func (t *Trainer) RunEpisode() EpisodeResult {
	limit := t.MaxSteps
	if limit <= 0 {
		limit = 10_000
	}
	t.Learner.StartEpisode()
	s := t.Env.Reset(t.RNG)
	var res EpisodeResult
	for i := 0; i < limit; i++ {
		a := t.Policy.Select(t.Learner.Table(), s, t.RNG)
		greedyA, _ := t.Learner.Table().Best(s)
		next, r, done := t.Env.Step(a, t.RNG)
		t.Learner.Observe(s, a, r, next, done, a == greedyA)
		res.Steps++
		res.Return += r
		if done {
			break
		}
		s = next
	}
	if p, ok := t.Policy.(*EpsilonGreedy); ok {
		p.Decay()
	}
	return res
}

// Table returns the table being learned.
func (l *QLambda) Table() *QTable { return l.table }

// Policy selects actions from a Q-table.
type Policy interface {
	// Select picks an action for state s.
	Select(t *QTable, s State, rng *rand.Rand) Action
}

// denseQTable is the reference for QTable's row-sparse layout: every
// state holds a row from the start, in one states×actions slice. It is
// the layout QTable had before it went row-sparse, with Best answered by
// the rescan the argmax cache must reproduce.
type denseQTable struct {
	states  int
	actions int
	q       []float64
}

func newDenseQTable(states, actions int, init float64) *denseQTable {
	t := &denseQTable{states: states, actions: actions, q: make([]float64, states*actions)}
	for i := range t.q {
		t.q[i] = init
	}
	return t
}

func (t *denseQTable) Get(s State, a Action) float64 { return t.q[int(s)*t.actions+int(a)] }

func (t *denseQTable) Set(s State, a Action, v float64) { t.q[int(s)*t.actions+int(a)] = v }

func (t *denseQTable) Add(s State, a Action, delta float64) { t.q[int(s)*t.actions+int(a)] += delta }

func (t *denseQTable) Best(s State) (Action, float64) {
	row := t.q[int(s)*t.actions : (int(s)+1)*t.actions]
	bestA, bestV := Action(0), row[0]
	for a := 1; a < len(row); a++ {
		if v := row[a]; v > bestV {
			bestA, bestV = Action(a), v
		}
	}
	return bestA, bestV
}

func (t *denseQTable) Clone() *denseQTable {
	return &denseQTable{states: t.states, actions: t.actions, q: append([]float64(nil), t.q...)}
}

func (t *denseQTable) SetValues(v []float64) { copy(t.q, v) }

func (t *denseQTable) AppendValues(dst []float64) []float64 { return append(dst, t.q...) }

// denseTraces is the reference for Traces' live-entry layout: a value
// slice indexed by key plus the list of live keys in first-visit order,
// the layout Traces had before it kept only live entries.
type denseTraces struct {
	kind    TraceKind
	actions int
	e       []float64 // value by key; 0 = not live
	active  []int     // live keys, in first-visit order
}

func (tr *denseTraces) Visit(s State, a Action) {
	k := int(s)*tr.actions + int(a)
	for k >= len(tr.e) {
		tr.e = append(tr.e, 0)
	}
	if tr.e[k] == 0 {
		tr.active = append(tr.active, k)
	}
	switch tr.kind {
	case ReplacingTraces:
		tr.e[k] = 1
	default:
		tr.e[k]++
	}
}

func (tr *denseTraces) Decay(factor float64) {
	kept := tr.active[:0]
	for _, k := range tr.active {
		v := tr.e[k] * factor
		if v < traceEpsilon {
			tr.e[k] = 0
		} else {
			tr.e[k] = v
			kept = append(kept, k)
		}
	}
	tr.active = kept
}

func (tr *denseTraces) Reset() {
	for _, k := range tr.active {
		tr.e[k] = 0
	}
	tr.active = tr.active[:0]
}

func (tr *denseTraces) ForEach(fn func(s State, a Action, e float64)) {
	for _, k := range tr.active {
		fn(State(k/tr.actions), Action(k%tr.actions), tr.e[k])
	}
}

// opReader hands out the bytes of a differential test's op stream,
// reading zeros once it runs dry.
type opReader []byte

func (r *opReader) next() int {
	if len(*r) == 0 {
		return 0
	}
	b := (*r)[0]
	*r = (*r)[1:]
	return int(b)
}

// diffValues are the values a differential op stream writes: exact
// ties, both zeros, NaN and the infinities among them.
var diffValues = []float64{0, math.Copysign(0, -1), 1, -1, 2, 3, 0.5, -3, math.NaN(), math.Inf(1), math.Inf(-1), 1e-300}

// diffInits are the init values a differential table starts from.
var diffInits = []float64{0, 1.5, -2, math.NaN(), math.Copysign(0, -1)}

// sameBits reports whether two values are bitwise equal, counting any
// two NaNs as equal: Go leaves the payload of a sum of two NaNs
// unspecified (the compiler may swap a commutative operation's
// operands), so the sparse and dense tables may differ there, and only
// there, without either being wrong. Signed zeros are told apart.
func sameBits(x, y float64) bool {
	return math.Float64bits(x) == math.Float64bits(y) || (math.IsNaN(x) && math.IsNaN(y))
}

// runQTableDiff drives two QTable/denseQTable pairs through the op
// stream — Set, Add, whole-table SetValues (all-init rows included), a
// Clone in either direction and Best queries — and after every op checks
// that each QTable's Get, Best and AppendValues are bitwise equal to its
// dense reference's. It returns a description of the first mismatch, or
// "" when there is none.
func runQTableDiff(ops []byte) string {
	const states, actions = 5, 4
	r := opReader(ops)
	init := diffInits[r.next()%len(diffInits)]
	value := func() float64 {
		if b := r.next() % (len(diffValues) + 1); b < len(diffValues) {
			return diffValues[b]
		}
		return init
	}
	sparse := [2]*QTable{NewQTable(states, actions, init)}
	dense := [2]*denseQTable{newDenseQTable(states, actions, init)}
	sparse[1], dense[1] = sparse[0].Clone(), dense[0].Clone()
	vals := make([]float64, states*actions)
	var got, want []float64
	prefix := []float64{math.Pi}
	for step := 0; len(r) > 0; step++ {
		op, k := r.next(), r.next()%2
		s, a := State(r.next()%states), Action(r.next()%actions)
		q, d := sparse[k], dense[k]
		var what string
		switch op % 5 {
		case 0:
			v := value()
			what = fmt.Sprintf("Set(%d,%d,%v)", s, a, v)
			q.Set(s, a, v)
			d.Set(s, a, v)
		case 1:
			v := value()
			what = fmt.Sprintf("Add(%d,%d,%v)", s, a, v)
			q.Add(s, a, v)
			d.Add(s, a, v)
		case 2:
			// Each row is all init or a mix, so SetValues meets rows it
			// must leave unmaterialized.
			for row := 0; row < states; row++ {
				mixed := r.next()%2 == 1
				for j := 0; j < actions; j++ {
					vals[row*actions+j] = init
					if mixed {
						vals[row*actions+j] = value()
					}
				}
			}
			what = fmt.Sprintf("SetValues(%v)", vals)
			if err := q.SetValues(vals); err != nil {
				return err.Error()
			}
			d.SetValues(vals)
		case 3:
			what = fmt.Sprintf("Clone of table %d", k)
			sparse[1-k], dense[1-k] = q.Clone(), d.Clone()
		default:
			what = "Best"
		}
		for j := range sparse {
			q, d := sparse[j], dense[j]
			for st := State(0); st < states; st++ {
				for ac := Action(0); ac < actions; ac++ {
					if g, w := q.Get(st, ac), d.Get(st, ac); !sameBits(g, w) {
						return fmt.Sprintf("step %d %s: table %d Get(%d,%d) = %v, dense %v", step, what, j, st, ac, g, w)
					}
				}
			}
			got, want = q.AppendValues(append(got[:0], prefix...)), d.AppendValues(append(want[:0], prefix...))
			if len(got) != len(want) {
				return fmt.Sprintf("step %d %s: table %d AppendValues len %d, dense %d", step, what, j, len(got), len(want))
			}
			for i := range got {
				if !sameBits(got[i], want[i]) {
					return fmt.Sprintf("step %d %s: table %d AppendValues[%d] = %v, dense %v", step, what, j, i, got[i], want[i])
				}
			}
		}
		// One Best query per op, on the state it named: querying every
		// state would rescan every stale entry and hide the cache's
		// incremental paths.
		ga, gv := q.Best(s)
		wa, wv := d.Best(s)
		if ga != wa || !sameBits(gv, wv) {
			return fmt.Sprintf("step %d %s: table %d Best(%d) = (%d,%v), dense (%d,%v)", step, what, k, s, ga, gv, wa, wv)
		}
	}
	return ""
}

// TestQTableMatchesDense drives the row-sparse table and the dense
// reference through random op streams and requires bitwise-equal
// reads after every op.
func TestQTableMatchesDense(t *testing.T) {
	for _, ops := range qtableDiffSeeds {
		if msg := runQTableDiff(ops); msg != "" {
			t.Fatalf("seed %v: %s", ops, msg)
		}
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ops := make([]byte, 2000)
		rng.Read(ops)
		if msg := runQTableDiff(ops); msg != "" {
			t.Logf("seed %d: %s", seed, msg)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// qtableDiffSeeds are hand-written op streams for the cases the dense
// equivalence hinges on: a write of exactly init, −0.0 written under
// init +0.0, NaN written and added, a non-zero init, and SetValues of
// all-init rows followed by writes to them.
var qtableDiffSeeds = [][]byte{
	// init 0: Set(1,2,init) materializes nothing, then Set(1,2,−0.0).
	{0, 0, 0, 1, 2, 12, 0, 0, 1, 2, 1},
	// init 0: Add(3,0,−0.0) keeps +0.0, Add(3,1,NaN) materializes.
	{0, 1, 0, 3, 0, 1, 1, 0, 3, 1, 8},
	// init 1.5: Set(0,3,1.5) is a no-op, Set(0,1,3) then Set(0,1,NaN)
	// demotes the winner to a NaN.
	{1, 0, 0, 0, 3, 12, 0, 0, 0, 1, 5, 0, 0, 0, 1, 8, 4, 0, 0, 0},
	// init −2: SetValues with rows 0 and 2 mixed and the rest all
	// init, then writes to an all-init row and a Clone.
	{2, 2, 0, 0, 0, 1, 2, 3, 4, 5, 0, 1, 6, 7, 8, 9, 0, 0, 0, 1, 4, 2, 2, 3, 3, 1, 0, 0},
	// init NaN: Set of the same NaN bits, Add to NaN, Best on a NaN row.
	{3, 0, 0, 2, 2, 12, 1, 0, 2, 2, 2, 4, 0, 2, 0},
}

// FuzzQTableMatchesDense feeds arbitrary op streams to the sparse/dense
// differential (see runQTableDiff).
func FuzzQTableMatchesDense(f *testing.F) {
	for _, ops := range qtableDiffSeeds {
		f.Add(ops)
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		if msg := runQTableDiff(ops); msg != "" {
			t.Fatal(msg)
		}
	})
}

// TestTracesMatchesDense drives live-entry traces and the dense
// reference through random visits, decays and resets under both trace
// kinds, and requires the same entries, values and order after every op.
func TestTracesMatchesDense(t *testing.T) {
	const states, actions = 6, 3
	type entry struct {
		s State
		a Action
		e float64
	}
	collect := func(dst []entry, forEach func(func(State, Action, float64))) []entry {
		dst = dst[:0]
		forEach(func(s State, a Action, e float64) { dst = append(dst, entry{s, a, e}) })
		return dst
	}
	factors := []float64{0.35, 0.5, 0.9, 1, traceEpsilon, 1e-7, 0}
	for _, kind := range []TraceKind{AccumulatingTraces, ReplacingTraces} {
		f := func(seed int64) bool {
			rng := rand.New(rand.NewSource(seed))
			tr, ref := NewTraces(kind, actions), &denseTraces{kind: kind, actions: actions}
			var got, want []entry
			for step := 0; step < 400; step++ {
				switch op := rng.Intn(10); {
				case op < 6:
					s, a := State(rng.Intn(states)), Action(rng.Intn(actions))
					tr.Visit(s, a)
					ref.Visit(s, a)
				case op < 9:
					factor := factors[rng.Intn(len(factors))]
					tr.Decay(factor)
					ref.Decay(factor)
				default:
					tr.Reset()
					ref.Reset()
				}
				got, want = collect(got, tr.ForEach), collect(want, ref.ForEach)
				if len(got) != len(want) || tr.Active() != len(want) {
					t.Logf("kind %d seed %d step %d: %d live (Active %d), dense %d", kind, seed, step, len(got), tr.Active(), len(want))
					return false
				}
				for i := range got {
					if got[i].s != want[i].s || got[i].a != want[i].a || !sameBits(got[i].e, want[i].e) {
						t.Logf("kind %d seed %d step %d: entry %d = %+v, dense %+v", kind, seed, step, i, got[i], want[i])
						return false
					}
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
			t.Error(err)
		}
	}
}
