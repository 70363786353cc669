package adl

import (
	"fmt"
)

// Routine is one user's personal step order for an activity. The paper's
// first design criterion ("keep the dementia patients do ADLs as they did
// before") requires the system to learn these personal orders rather than
// impose the canonical one.
type Routine []StepID

// Clone returns a copy of the routine.
func (r Routine) Clone() Routine {
	c := make(Routine, len(r))
	copy(c, r)
	return c
}

// Equal reports whether two routines are step-for-step identical.
func (r Routine) Equal(other Routine) bool {
	if len(r) != len(other) {
		return false
	}
	for i := range r {
		if r[i] != other[i] {
			return false
		}
	}
	return true
}

// Next returns the step following the step at position i, or StepIdle if i
// is the last position.
func (r Routine) Next(i int) StepID {
	if i < 0 || i+1 >= len(r) {
		return StepIdle
	}
	return r[i+1]
}

// Index returns the first position of step s in the routine, or -1.
func (r Routine) Index(s StepID) int {
	for i, id := range r {
		if id == s {
			return i
		}
	}
	return -1
}

// Terminal returns the last step of the routine, or StepIdle if empty.
func (r Routine) Terminal() StepID {
	if len(r) == 0 {
		return StepIdle
	}
	return r[len(r)-1]
}

// Validate checks that the routine is a permutation of the activity's
// canonical steps: every step appears exactly once and belongs to the
// activity.
func (r Routine) Validate(a *Activity) error {
	if len(r) != len(a.Steps) {
		return fmt.Errorf("adl: routine for %q has %d steps, activity has %d", a.Name, len(r), len(a.Steps))
	}
	seen := make(map[StepID]bool, len(r))
	for i, id := range r {
		if id == StepIdle {
			return fmt.Errorf("adl: routine for %q contains idle step at position %d", a.Name, i)
		}
		if _, ok := a.StepByID(id); !ok {
			return fmt.Errorf("adl: routine for %q contains unknown step %d at position %d", a.Name, id, i)
		}
		if seen[id] {
			return fmt.Errorf("adl: routine for %q repeats step %d", a.Name, id)
		}
		seen[id] = true
	}
	return nil
}

// EditDistance returns the Levenshtein distance between two step
// sequences — how many insertions, deletions or substitutions turn one
// into the other. Routine discovery uses it to absorb sensing noise: an
// episode with one missed detection is distance 1 from its true routine.
func EditDistance(a, b Routine) int {
	// One-row dynamic program.
	prev := make([]int, len(b)+1)
	cur := make([]int, len(b)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(a); i++ {
		cur[0] = i
		for j := 1; j <= len(b); j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			cur[j] = min3(prev[j]+1, cur[j-1]+1, prev[j-1]+cost)
		}
		prev, cur = cur, prev
	}
	return prev[len(b)]
}

func min3(a, b, c int) int {
	if b < a {
		a = b
	}
	if c < a {
		a = c
	}
	return a
}

// RoutineSet holds the multiple personal routines one user may have for a
// single activity (the paper's future-work item 1: "multi-routine plan",
// motivated by ADLs like dressing).
type RoutineSet struct {
	// Activity names the activity these routines belong to.
	Activity string
	// Routines are the alternative step orders.
	Routines []Routine
}

// Validate checks every routine against the activity and that no two
// routines are identical.
func (rs *RoutineSet) Validate(a *Activity) error {
	if rs.Activity != a.Name {
		return fmt.Errorf("adl: routine set for %q validated against activity %q", rs.Activity, a.Name)
	}
	if len(rs.Routines) == 0 {
		return fmt.Errorf("adl: routine set for %q is empty", rs.Activity)
	}
	for i, r := range rs.Routines {
		if err := r.Validate(a); err != nil {
			return fmt.Errorf("adl: routine %d: %w", i, err)
		}
		for j := 0; j < i; j++ {
			if r.Equal(rs.Routines[j]) {
				return fmt.Errorf("adl: routines %d and %d of %q are identical", j, i, rs.Activity)
			}
		}
	}
	return nil
}

// Match returns the index of the routine whose prefix matches the observed
// step sequence, and the number of matching prefix steps. Ties are broken
// toward the lower index. An empty observation matches routine 0 with
// length 0.
func (rs *RoutineSet) Match(observed []StepID) (index, matched int) {
	best, bestLen := 0, -1
	for i, r := range rs.Routines {
		n := prefixMatch(r, observed)
		if n > bestLen {
			best, bestLen = i, n
		}
	}
	if bestLen < 0 {
		return 0, 0
	}
	return best, bestLen
}

func prefixMatch(r Routine, observed []StepID) int {
	n := 0
	for i := 0; i < len(observed) && i < len(r); i++ {
		if observed[i] != r[i] {
			break
		}
		n++
	}
	return n
}
