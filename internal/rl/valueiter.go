package rl

import "fmt"

// MDP is an explicit tabular Markov decision process: transition
// probabilities and rewards given as dense tables. It backs the
// Boger-style MDP planner baseline (their hand-washing system plans over a
// known MDP rather than learning from experience).
type MDP struct {
	states  int
	actions int
	// p[s][a] lists the possible transitions from s under a.
	p [][][]Transition
	// terminal marks absorbing states.
	terminal []bool
}

// Transition is one (next state, probability, reward) outcome.
type Transition struct {
	Next   State
	Prob   float64
	Reward float64
}

// NewMDP allocates an MDP with no transitions.
func NewMDP(states, actions int) *MDP {
	if states <= 0 || actions <= 0 {
		panic(fmt.Sprintf("rl: invalid MDP shape %dx%d", states, actions))
	}
	p := make([][][]Transition, states)
	for s := range p {
		p[s] = make([][]Transition, actions)
	}
	return &MDP{states: states, actions: actions, p: p, terminal: make([]bool, states)}
}

// AddTransition registers an outcome of taking a in s.
func (m *MDP) AddTransition(s State, a Action, next State, prob, reward float64) {
	m.p[s][a] = append(m.p[s][a], Transition{Next: next, Prob: prob, Reward: reward})
}

// SetTerminal marks s as absorbing; its value is fixed at zero.
func (m *MDP) SetTerminal(s State) { m.terminal[int(s)] = true }

// ValueIteration solves the MDP to the given tolerance and returns the
// optimal Q-table. maxIters bounds the sweep count (0 = 10_000).
func (m *MDP) ValueIteration(gamma, tol float64, maxIters int) *QTable {
	if maxIters <= 0 {
		maxIters = 10_000
	}
	v := make([]float64, m.states)
	q := NewQTable(m.states, m.actions, 0)
	for iter := 0; iter < maxIters; iter++ {
		maxDelta := 0.0
		for s := 0; s < m.states; s++ {
			if m.terminal[s] {
				continue
			}
			bestV := 0.0
			hasAction := false
			for a := 0; a < m.actions; a++ {
				ts := m.p[s][a]
				if len(ts) == 0 {
					continue
				}
				qa := 0.0
				for _, t := range ts {
					qa += t.Prob * (t.Reward + gamma*v[int(t.Next)])
				}
				q.Set(State(s), Action(a), qa)
				if !hasAction || qa > bestV {
					bestV = qa
					hasAction = true
				}
			}
			if hasAction {
				if d := abs(bestV - v[s]); d > maxDelta {
					maxDelta = d
				}
				v[s] = bestV
			}
		}
		if maxDelta < tol {
			break
		}
	}
	return q
}
