package sensornet

import "math/rand"

// SampleSource yields successive sensor excitation samples to a node's
// sampling loop. Implementations decide what the "tool" is physically
// doing at each tick.
type SampleSource interface {
	// Next returns the next excitation sample (threshold units).
	Next() float64
}

// SliceSource replays a pre-generated series, then reports rest noise
// forever. It is how experiment harnesses feed signalgen output to a node.
type SliceSource struct {
	series []float64
	pos    int
	rng    *rand.Rand
	noise  float64
}

// NewSliceSource returns a source replaying series; once exhausted it
// emits rest noise with the given stddev drawn from rng (nil rng emits
// zeros).
func NewSliceSource(series []float64, noise float64, rng *rand.Rand) *SliceSource {
	return &SliceSource{series: series, rng: rng, noise: noise}
}

// Next implements SampleSource.
func (s *SliceSource) Next() float64 {
	if s.pos < len(s.series) {
		v := s.series[s.pos]
		s.pos++
		return v
	}
	if s.rng == nil {
		return 0
	}
	v := s.rng.NormFloat64() * s.noise * 0.5
	if v < 0 {
		v = -v
	}
	return v
}

// Enqueue appends more samples to be replayed after the current series.
func (s *SliceSource) Enqueue(series []float64) {
	// Drop the already-consumed prefix to keep memory bounded in long
	// simulations.
	if s.pos > 0 && s.pos == len(s.series) {
		s.series = s.series[:0]
		s.pos = 0
	}
	s.series = append(s.series, series...)
}

// Remaining returns how many queued samples have not been consumed yet.
func (s *SliceSource) Remaining() int { return len(s.series) - s.pos }

// Flush discards every queued sample: after a node crash the samples a
// dead node would have taken are gone, not stored. The source resumes
// emitting rest noise.
func (s *SliceSource) Flush() {
	s.series = s.series[:0]
	s.pos = 0
}
