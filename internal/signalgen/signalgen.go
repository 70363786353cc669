// Package signalgen produces synthetic sensor waveforms standing in for
// the accelerometer and pressure traces that the paper's authors collected
// from real tools (PAVENET nodes on tea-boxes, kettles, toothbrushes, ...).
//
// The generator is parametric in gesture duration and intensity. Together
// with the node's 3-of-10 threshold rule this reproduces the mechanism
// behind Table 3 of the paper: short, weak gestures ("dry with a towel",
// "pour hot water into kettle") sometimes fail to put three samples of a
// one-second window over the detection threshold and are missed.
//
// All randomness flows through an explicit *rand.Rand so experiments are
// reproducible from a seed.
package signalgen

import (
	"math"
	"math/rand"
	"time"

	"coreda/internal/adl"
)

// Generator synthesizes sensor sample series.
type Generator struct {
	rate  int     // samples per second (PAVENET: 10)
	noise float64 // Gaussian noise stddev on the excitation scalar
	rng   *rand.Rand
}

// DefaultNoise is the default excitation noise standard deviation, in
// threshold units (the detection threshold is 1.0).
const DefaultNoise = 0.18

// New returns a generator emitting rate samples per second with the given
// excitation noise, drawing randomness from rng.
func New(rate int, noise float64, rng *rand.Rand) *Generator {
	if rate <= 0 {
		rate = 10
	}
	if noise < 0 {
		noise = DefaultNoise
	}
	return &Generator{rate: rate, noise: noise, rng: rng}
}

// Samples returns how many samples cover duration d at the generator rate
// (at least 1 for positive d).
func (g *Generator) Samples(d time.Duration) int {
	n := int(math.Round(d.Seconds() * float64(g.rate)))
	if n < 1 && d > 0 {
		n = 1
	}
	return n
}

// Rest produces n samples of a tool at rest: excitation is pure noise
// around zero (clamped non-negative, as magnitude deviation is).
func (g *Generator) Rest(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Abs(g.rng.NormFloat64() * g.noise * 0.5)
	}
	return out
}

// Gesture produces n samples of an active gesture with the given peak
// intensity (in threshold units; the detection threshold is 1.0). The
// envelope ramps up over the first fifth, sustains, and ramps down over the
// last fifth, which is how a pick-up / use / put-down motion excites an
// accelerometer.
func (g *Generator) Gesture(n int, intensity float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		e := envelope(i, n)
		// Within the sustain the signal wobbles: real gestures are not
		// constant-amplitude.
		wobble := 0.75 + 0.25*math.Abs(math.Sin(float64(i)*1.3))
		v := intensity*e*wobble + g.rng.NormFloat64()*g.noise
		if v < 0 {
			v = 0
		}
		out[i] = v
	}
	return out
}

// envelope is the attack/sustain/release amplitude profile.
func envelope(i, n int) float64 {
	if n <= 1 {
		return 1
	}
	edge := n / 5
	if edge < 1 {
		edge = 1
	}
	switch {
	case i < edge:
		return float64(i+1) / float64(edge+1)
	case i >= n-edge:
		return float64(n-i) / float64(edge+1)
	default:
		return 1
	}
}

// StepSignalKind synthesizes the excitation series of one performance of
// an activity step on a tool with the given sensor kind: a short rest
// lead-in, the gesture (duration jittered around the step's typical
// duration by the given relative stddev; a smooth press bump on pressure
// sensors, the oscillatory gesture envelope on everything else), and a
// rest tail. It returns the series and the index range
// [gestureLo, gestureHi) of the gesture within it.
func (g *Generator) StepSignalKind(step adl.Step, kind adl.SensorKind, durJitter float64) (series []float64, gestureLo, gestureHi int) {
	d := step.TypicalDuration.Seconds()
	if durJitter > 0 {
		d *= math.Exp(g.rng.NormFloat64() * durJitter)
	}
	if d < 0.2 {
		d = 0.2
	}
	n := g.Samples(time.Duration(d * float64(time.Second)))
	var body []float64
	if kind == adl.SensorPressure {
		body = g.PressurePress(n, step.Intensity)
	} else {
		body = g.Gesture(n, step.Intensity)
	}
	lead := g.Rest(g.Samples(500 * time.Millisecond))
	tail := g.Rest(g.Samples(500 * time.Millisecond))

	series = make([]float64, 0, len(lead)+len(body)+len(tail))
	series = append(series, lead...)
	gestureLo = len(series)
	series = append(series, body...)
	gestureHi = len(series)
	series = append(series, tail...)
	return series, gestureLo, gestureHi
}

// PressurePress produces n samples of a press on a pressure sensor (the
// electronic pot of Table 2): a smooth half-sine bump of the given peak
// intensity plus noise.
func (g *Generator) PressurePress(n int, intensity float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		v := intensity*math.Sin(math.Pi*float64(i+1)/float64(n+1)) + g.rng.NormFloat64()*g.noise
		if v < 0 {
			v = 0
		}
		out[i] = v
	}
	return out
}
