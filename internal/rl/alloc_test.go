package rl

import (
	"testing"

	"coreda/internal/testutil"
)

// TestQTableAllocBudget locks the learning hot path at zero allocations:
// reads and writes on materialized rows, reads and init-valued writes on
// rows never written, a warm trace sweep, and SetValues into a table
// whose storage already fits. Materializing a row is the table's one
// allocating step, and none of these takes it.
func TestQTableAllocBudget(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("race instrumentation allocates; alloc budgets are enforced by the no-race pass (scripts/check.sh)")
	}
	const states, actions = 25, 8
	q := NewQTable(states, actions, 0)
	q.Set(3, 1, 5) // materialize row 3; row 4 stays unwritten
	tr := NewTraces(ReplacingTraces, actions)
	for a := Action(0); a < 4; a++ {
		tr.Visit(3, a)
	}
	vals := q.Values()
	vals[3*actions+5] = 1 // still only row 3 off init: q's storage fits it
	var sum float64
	for _, tc := range []struct {
		name string
		fn   func()
	}{
		{"Get materialized", func() { sum += q.Get(3, 1) }},
		{"Get unmaterialized", func() { sum += q.Get(4, 1) }},
		{"Set materialized", func() { q.Set(3, 2, sum) }},
		{"Set unmaterialized to init", func() { q.Set(4, 2, 0) }},
		{"Add materialized", func() { q.Add(3, 2, 1) }},
		{"Add unmaterialized by zero", func() { q.Add(4, 2, 0) }},
		{"Best materialized", func() { _, v := q.Best(3); sum += v }},
		{"Best unmaterialized", func() { _, v := q.Best(4); sum += v }},
		{"Traces sweep", func() {
			for a := Action(0); a < 4; a++ {
				tr.Visit(3, a)
			}
			tr.ForEach(func(s State, a Action, e float64) { q.Add(s, a, 1e-3*e) })
			tr.Decay(0.35)
		}},
		{"SetValues within capacity", func() {
			if err := q.SetValues(vals); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		if n := testing.AllocsPerRun(100, tc.fn); n != 0 {
			t.Errorf("%s: %.0f allocs, want 0", tc.name, n)
		}
	}
	if q.Get(4, 2) != 0 {
		t.Error("an init-valued write changed an unmaterialized row")
	}
}
