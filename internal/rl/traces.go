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
// Storage is one slice of the live (pair, value) entries, in first-visit
// order. The live set is a handful of entries, because Watkins's Q(λ)
// resets traces on exploration and a trace decays below the cutoff within
// a few dozen steps, so Visit finds an entry by linear scan. Decay and
// ForEach touch only live entries, and Reset truncates without
// reallocating, so the per-update cost is O(live traces) with no
// steady-state allocation. A trace is live iff its value is non-zero (all
// trace values are positive by construction).
type Traces struct {
	kind TraceKind
	live []trace // in first-visit order
}

// trace is one live eligibility trace.
type trace struct {
	s, a int32
	e    float64
}

// NewTraces returns empty traces for a table with the given action count.
// Entries are keyed by their (state, action) pair, so the traces keep
// no copy of the count.
func NewTraces(kind TraceKind, actions int) *Traces {
	return &Traces{kind: kind}
}

// Visit marks (s,a) as just taken.
//
//coreda:hotpath
func (tr *Traces) Visit(s State, a Action) {
	i := 0
	for ; i < len(tr.live); i++ {
		if tr.live[i].s == int32(s) && tr.live[i].a == int32(a) {
			break
		}
	}
	if i == len(tr.live) {
		tr.live = append(tr.live, trace{s: int32(s), a: int32(a)})
	}
	switch tr.kind {
	case ReplacingTraces:
		tr.live[i].e = 1
	default:
		tr.live[i].e++
	}
}

// Decay multiplies every live trace by factor, dropping entries that fall
// below the cutoff.
//
//coreda:hotpath
func (tr *Traces) Decay(factor float64) {
	kept := tr.live[:0]
	for _, t := range tr.live {
		if t.e *= factor; t.e < traceEpsilon {
			continue
		}
		kept = append(kept, t)
	}
	tr.live = kept
}

// Reset clears all traces (start of an episode, or after a non-greedy
// action in Watkins Q(λ)) without releasing storage.
func (tr *Traces) Reset() { tr.live = tr.live[:0] }

// ForEach calls fn for every live trace, in first-visit order. Every live
// pair is visited exactly once, so the table updates it drives are
// order-independent.
//
//coreda:hotpath
func (tr *Traces) ForEach(fn func(s State, a Action, e float64)) {
	for _, t := range tr.live {
		fn(State(t.s), Action(t.a), t.e)
	}
}
