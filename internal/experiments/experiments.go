// Package experiments regenerates every table and figure of the CoReDA
// paper's evaluation (section 3), plus the ablations DESIGN.md calls for.
// Each experiment returns a structured result that cmd/coreda-bench
// renders next to the paper's reported numbers and bench_test.go wraps in
// testing.B benchmarks.
package experiments

import (
	"math/rand"

	"coreda/internal/adl"
	"coreda/internal/persona"
	"coreda/internal/stats"
)

// PaperTable3 holds the extract precisions reported in Table 3 of the
// paper, keyed by step name.
var PaperTable3 = map[string]float64{
	"Put toothpaste on the brush": 0.90,
	"Brush the teeth":             1.00,
	"Gargle with water":           1.00,
	"Dry with a towel":            0.85,
	"Put tea-leaf into kettle":    1.00,
	"Pour hot water into kettle":  0.80,
	"Pour tea into tea cup":       1.00,
	"Drink a cup of tea":          0.90,
}

// PaperFigure4 holds the convergence iterations reported for Figure 4.
var PaperFigure4 = map[string]map[string]int{
	"tooth-brushing": {"95": 49, "98": 91},
	"tea-making":     {"95": 56, "98": 98},
}

// PaperTable4 holds the predict precisions of Table 4 (100 % everywhere
// except the first step of each ADL, which has no result).
var PaperTable4 = map[string]float64{
	"Brush the teeth":            1.00,
	"Gargle with water":          1.00,
	"Dry with a towel":           1.00,
	"Pour hot water into kettle": 1.00,
	"Pour tea into tea cup":      1.00,
	"Drink a cup of tea":         1.00,
}

// evalActivities returns the two ADLs of the paper's evaluation.
func evalActivities() []*adl.Activity {
	return []*adl.Activity{adl.ToothBrushing(), adl.TeaMaking()}
}

// cleanTrainingSet builds n clean episodes of the persona's routine.
func cleanTrainingSet(a *adl.Activity, p *persona.Profile, rng *rand.Rand, n int) ([][]adl.StepID, error) {
	seq := &persona.Sequencer{Profile: p, Activity: a, RNG: rng}
	return seq.TrainingSet(n)
}

// convergenceOf smooths a noisy curve and reports the iterations at which
// it converges at the two thresholds of Figure 4.
func convergenceOf(curve *stats.Curve) map[string]int {
	smoothed := curve.Smoothed(5)
	out := map[string]int{"95": 0, "98": 0}
	if it, ok := smoothed.ConvergedAt(0.95); ok {
		out["95"] = it
	}
	if it, ok := smoothed.ConvergedAt(0.98); ok {
		out["98"] = it
	}
	return out
}
