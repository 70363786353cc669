// Package stats provides the small statistical toolkit used by the CoReDA
// experiments: running moments, precision counters, confusion matrices,
// Wilson score intervals and learning-curve series.
package stats

import (
	"fmt"
	"math"
)

// Running accumulates count, mean and variance of a stream of observations
// using Welford's online algorithm. The zero value is ready to use.
type Running struct {
	n    int
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add records one observation.
func (r *Running) Add(x float64) {
	r.n++
	if r.n == 1 {
		r.min, r.max = x, x
	} else {
		if x < r.min {
			r.min = x
		}
		if x > r.max {
			r.max = x
		}
	}
	delta := x - r.mean
	r.mean += delta / float64(r.n)
	r.m2 += delta * (x - r.mean)
}

// N returns the number of observations.
func (r *Running) N() int { return r.n }

// Mean returns the sample mean, or 0 with no observations.
func (r *Running) Mean() float64 { return r.mean }

// Var returns the unbiased sample variance (n-1 denominator), or 0 for
// fewer than two observations.
func (r *Running) Var() float64 {
	if r.n < 2 {
		return 0
	}
	return r.m2 / float64(r.n-1)
}

// StdDev returns the sample standard deviation.
func (r *Running) StdDev() float64 { return math.Sqrt(r.Var()) }

// String summarizes the accumulator.
func (r *Running) String() string {
	return fmt.Sprintf("n=%d mean=%.4g sd=%.4g min=%.4g max=%.4g", r.n, r.Mean(), r.StdDev(), r.min, r.max)
}

// Counter tallies successes over trials and reports a proportion. It backs
// the extract-precision and predict-precision tables.
type Counter struct {
	Hits   int
	Trials int
}

// Observe records one trial, counting it as a hit when ok is true.
func (c *Counter) Observe(ok bool) {
	c.Trials++
	if ok {
		c.Hits++
	}
}

// Rate returns Hits/Trials, or 0 when no trials were recorded.
func (c *Counter) Rate() float64 {
	if c.Trials == 0 {
		return 0
	}
	return float64(c.Hits) / float64(c.Trials)
}

// Percent returns the rate as a percentage.
func (c *Counter) Percent() float64 { return 100 * c.Rate() }

// Wilson returns the Wilson score interval for the proportion at the given
// z (use 1.96 for 95 % confidence). With no trials it returns (0, 1).
func (c *Counter) Wilson(z float64) (lo, hi float64) {
	if c.Trials == 0 {
		return 0, 1
	}
	n := float64(c.Trials)
	p := c.Rate()
	z2 := z * z
	denom := 1 + z2/n
	center := (p + z2/(2*n)) / denom
	half := z / denom * math.Sqrt(p*(1-p)/n+z2/(4*n*n))
	lo = center - half
	hi = center + half
	// The Wilson interval always contains the point estimate; guard the
	// boundary cases (p = 0 or 1) against floating-point rounding placing
	// lo an epsilon above p (or hi below it).
	if lo > p {
		lo = p
	}
	if hi < p {
		hi = p
	}
	if lo < 0 {
		lo = 0
	}
	if hi > 1 {
		hi = 1
	}
	return lo, hi
}
