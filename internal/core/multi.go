package core

import (
	"fmt"
	"math/rand"
	"sort"

	"coreda/internal/adl"
	"coreda/internal/rl"
	"coreda/internal/store"
)

// DiscoverRoutines clusters complete training episodes into distinct
// routines with exact matching: every unique step sequence with at least
// minSupport occurrences becomes a routine, ordered by frequency (most
// common first). This implements the discovery half of the paper's
// future-work item 1 ("multi-routine plan ... for some ADLs, such as
// dressing, one user may have multiple routines").
func DiscoverRoutines(episodes [][]adl.StepID, minSupport int) []adl.Routine {
	return DiscoverRoutinesTolerant(episodes, minSupport, 0)
}

// DiscoverRoutinesTolerant is DiscoverRoutines with sensing noise
// tolerance: an episode within edit distance maxDist of an existing
// cluster's routine counts toward that cluster instead of founding a new
// one (Table 3: detection is imperfect, so recorded episodes occasionally
// miss a step). Clusters are founded greedily in episode order; with
// maxDist 0 this degenerates to exact matching.
func DiscoverRoutinesTolerant(episodes [][]adl.StepID, minSupport, maxDist int) []adl.Routine {
	if minSupport < 1 {
		minSupport = 1
	}
	type cluster struct {
		routine adl.Routine
		count   int
		first   int // order of first appearance, for deterministic ties
	}
	var clusters []*cluster
	for i, ep := range episodes {
		r := adl.Routine(ep)
		var best *cluster
		bestDist := maxDist + 1
		for _, c := range clusters {
			if d := adl.EditDistance(c.routine, r); d < bestDist {
				best, bestDist = c, d
			}
		}
		if best != nil {
			best.count++
			continue
		}
		clusters = append(clusters, &cluster{routine: r.Clone(), count: 1, first: i})
	}
	kept := clusters[:0]
	for _, c := range clusters {
		if c.count >= minSupport {
			kept = append(kept, c)
		}
	}
	sort.Slice(kept, func(i, j int) bool {
		if kept[i].count != kept[j].count {
			return kept[i].count > kept[j].count
		}
		return kept[i].first < kept[j].first
	})
	out := make([]adl.Routine, len(kept))
	for i, c := range kept {
		out[i] = c.routine
	}
	return out
}

// MultiPlanner maintains one Planner per routine of a user who performs
// an activity in several distinct orders, identifying the active routine
// online from the observed prefix.
type MultiPlanner struct {
	activity *adl.Activity
	set      *adl.RoutineSet
	planners []*Planner
}

// NewMultiPlanner creates one sub-planner per routine.
func NewMultiPlanner(a *adl.Activity, cfg Config, rng *rand.Rand, routines []adl.Routine) (*MultiPlanner, error) {
	if len(routines) == 0 {
		return nil, fmt.Errorf("core: MultiPlanner needs at least one routine")
	}
	set := &adl.RoutineSet{Activity: a.Name, Routines: routines}
	if err := set.Validate(a); err != nil {
		return nil, err
	}
	m := &MultiPlanner{activity: a, set: set}
	for range routines {
		p, err := NewPlanner(a, cfg, rng)
		if err != nil {
			return nil, err
		}
		m.planners = append(m.planners, p)
	}
	return m, nil
}

// Routines returns the routine set being modelled.
func (m *MultiPlanner) Routines() []adl.Routine { return m.set.Routines }

// Planner returns the sub-planner for routine index i.
func (m *MultiPlanner) Planner(i int) *Planner { return m.planners[i] }

// TrainEpisode routes one complete episode to the sub-planner of the
// routine it matches best (longest prefix).
func (m *MultiPlanner) TrainEpisode(steps []adl.StepID) error {
	idx, _ := m.set.Match(steps)
	return m.planners[idx].TrainEpisode(steps)
}

// Identify returns the routine index the observed prefix most likely
// belongs to and how many steps of it matched.
func (m *MultiPlanner) Identify(observed []adl.StepID) (index, matched int) {
	return m.set.Match(observed)
}

// Predict identifies the active routine from the observed prefix, then
// delegates the prediction for <prev, cur> to that routine's planner.
func (m *MultiPlanner) Predict(observed []adl.StepID, prev, cur adl.StepID) (Prompt, bool) {
	idx, _ := m.set.Match(observed)
	return m.planners[idx].Predict(prev, cur)
}

// SavePolicies persists every routine's learned policy — Q-values plus
// training progress — to one file.
func (m *MultiPlanner) SavePolicies(path, user string) error {
	tables := make([]*rl.QTable, len(m.planners))
	states := make([]store.TrainState, len(m.planners))
	for i, p := range m.planners {
		tables[i] = p.Table()
		states[i] = store.TrainState{Episodes: p.Episodes, Epsilon: p.Epsilon()}
	}
	return store.SaveMultiPolicy(path, user, m.activity.Name, m.set.Routines, tables, states)
}

// LoadMultiPlanner restores a multi-routine planner saved by SavePolicies.
//
//coreda:vet-ignore testonly reads back what the public coreda.MultiPlanner.SavePolicies writes
func LoadMultiPlanner(path string, a *adl.Activity, cfg Config, rng *rand.Rand) (*MultiPlanner, error) {
	var c store.Checkpoint
	if err := store.LoadFile(path, &c); err != nil {
		return nil, err
	}
	if c.Activity != a.Name {
		return nil, fmt.Errorf("core: multi-policy is for activity %q, want %q", c.Activity, a.Name)
	}
	m, err := NewMultiPlanner(a, cfg, rng, store.DecodeRoutines(c.Routines))
	if err != nil {
		return nil, err
	}
	for i, p := range m.planners {
		if err := p.RestoreCheckpoint(&c.Policies[i]); err != nil {
			return nil, fmt.Errorf("core: multi-policy %d: %w", i, err)
		}
	}
	return m, nil
}

// Evaluate measures prediction precision over complete validation
// episodes, identifying the routine from the growing prefix at each step
// — so early steps of ambiguous routines count against the score exactly
// as they would mislead a deployed system.
func (m *MultiPlanner) Evaluate(episodes [][]adl.StepID) float64 {
	total, hits := 0, 0
	for _, steps := range episodes {
		prev := adl.StepIdle
		for i := 0; i+1 < len(steps); i++ {
			cur, next := steps[i], steps[i+1]
			prompt, ok := m.Predict(steps[:i+1], prev, cur)
			total++
			if ok && adl.StepOf(prompt.Tool) == next {
				hits++
			}
			prev = cur
		}
	}
	if total == 0 {
		return 0
	}
	return float64(hits) / float64(total)
}
