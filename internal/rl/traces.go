package rl

// TraceKind selects how eligibility traces accumulate.
type TraceKind int

// Trace kinds.
const (
	// AccumulatingTraces add 1 on each visit (classic TD(λ)).
	//coreda:vet-ignore testonly names the zero TraceKind, the Config default that Visit's default branch implements
	AccumulatingTraces TraceKind = iota
	// ReplacingTraces reset to 1 on each visit, which is more stable for
	// frequently revisited states.
	ReplacingTraces
)

// traceEpsilon is the magnitude below which a trace is dropped; it bounds
// the active set without measurably changing updates.
const traceEpsilon = 1e-6

// Traces is a sparse eligibility-trace table over (state, action) pairs.
//
// Storage is a dense value slice indexed by key plus a list of the live
// keys: Decay and ForEach touch only live entries, and Reset zeroes them
// without reallocating, so the per-update cost is O(active traces) with
// no map overhead and no steady-state allocation. A trace is live iff its
// value is non-zero (all trace values are positive by construction).
type Traces struct {
	kind    TraceKind
	actions int
	e       []float64 // value by key; 0 = not live
	active  []int     // live keys, in first-visit order
}

// NewTraces returns empty traces for a table with the given action count.
func NewTraces(kind TraceKind, actions int) *Traces {
	return &Traces{kind: kind, actions: actions}
}

func (tr *Traces) key(s State, a Action) int { return int(s)*tr.actions + int(a) }

// grow ensures the dense slice covers key k. The state space is fixed per
// learner, so growth happens only on the first visits of a run.
func (tr *Traces) grow(k int) {
	if k < len(tr.e) {
		return
	}
	n := len(tr.e)*2 + 1
	if n <= k {
		n = k + 1
	}
	e := make([]float64, n)
	copy(e, tr.e)
	tr.e = e
}

// Visit marks (s,a) as just taken.
func (tr *Traces) Visit(s State, a Action) {
	k := tr.key(s, a)
	tr.grow(k)
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

// Decay multiplies every live trace by factor, dropping entries that fall
// below the cutoff.
func (tr *Traces) Decay(factor float64) {
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

// Reset clears all traces (start of an episode, or after a non-greedy
// action in Watkins Q(λ)) without releasing storage.
func (tr *Traces) Reset() {
	for _, k := range tr.active {
		tr.e[k] = 0
	}
	tr.active = tr.active[:0]
}

// ForEach calls fn for every non-zero trace. Every live key is visited
// exactly once, so the table updates it drives are order-independent.
func (tr *Traces) ForEach(fn func(s State, a Action, e float64)) {
	for _, k := range tr.active {
		fn(State(k/tr.actions), Action(k%tr.actions), tr.e[k])
	}
}
