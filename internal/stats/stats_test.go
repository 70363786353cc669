package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func TestRunningMomentsAgainstClosedForm(t *testing.T) {
	var r Running
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	for _, x := range xs {
		r.Add(x)
	}
	if r.N() != len(xs) {
		t.Fatalf("N = %d", r.N())
	}
	if got, want := r.Mean(), 5.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("Mean = %v, want %v", got, want)
	}
	// Sample variance with n-1 denominator: sum sq dev = 32, / 7.
	if got, want := r.Var(), 32.0/7.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("Var = %v, want %v", got, want)
	}
	if got := r.Min(); got != 2 {
		t.Errorf("Min = %v", got)
	}
	if got := r.Max(); got != 9 {
		t.Errorf("Max = %v", got)
	}
	if r.String() == "" {
		t.Error("String() empty")
	}
}

func TestRunningEdgeCases(t *testing.T) {
	var r Running
	if r.Mean() != 0 || r.Var() != 0 || r.StdDev() != 0 {
		t.Error("zero-value Running should report zeros")
	}
	r.Add(3)
	if r.Var() != 0 {
		t.Error("variance of single observation should be 0")
	}
	if r.Min() != 3 || r.Max() != 3 {
		t.Error("min/max of single observation")
	}
}

func TestRunningMatchesNaiveComputation(t *testing.T) {
	// Property: Welford's method agrees with the two-pass formula.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(100)
		xs := make([]float64, n)
		var r Running
		for i := range xs {
			xs[i] = rng.NormFloat64()*10 + 5
			r.Add(xs[i])
		}
		mean := 0.0
		for _, x := range xs {
			mean += x
		}
		mean /= float64(n)
		ss := 0.0
		for _, x := range xs {
			ss += (x - mean) * (x - mean)
		}
		wantVar := ss / float64(n-1)
		return math.Abs(r.Mean()-mean) < 1e-9 && math.Abs(r.Var()-wantVar) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCounter(t *testing.T) {
	var c Counter
	if c.Rate() != 0 {
		t.Error("empty counter rate should be 0")
	}
	for i := 0; i < 8; i++ {
		c.Observe(true)
	}
	for i := 0; i < 2; i++ {
		c.Observe(false)
	}
	if got := c.Rate(); got != 0.8 {
		t.Errorf("Rate = %v", got)
	}
	if got := c.Percent(); got != 80 {
		t.Errorf("Percent = %v", got)
	}
}

func TestWilsonInterval(t *testing.T) {
	c := Counter{Hits: 8, Trials: 10}
	lo, hi := c.Wilson(1.96)
	if !(lo < 0.8 && 0.8 < hi) {
		t.Errorf("interval (%v, %v) should contain the point estimate", lo, hi)
	}
	// Known value: 8/10 at 95 % gives roughly (0.49, 0.94).
	if math.Abs(lo-0.49) > 0.02 || math.Abs(hi-0.943) > 0.02 {
		t.Errorf("interval (%v, %v) far from reference (0.49, 0.94)", lo, hi)
	}
	var empty Counter
	lo, hi = empty.Wilson(1.96)
	if lo != 0 || hi != 1 {
		t.Errorf("empty interval = (%v, %v), want (0, 1)", lo, hi)
	}
}

// TestWilsonIntervalBoundaryRounding pins the clamps for p = 0 and
// p = 1, where floating-point rounding would otherwise leave a bound an
// epsilon outside [0, 1] or the interval an epsilon off the point
// estimate (the computed value is in each case's comment).
func TestWilsonIntervalBoundaryRounding(t *testing.T) {
	for _, tc := range []struct {
		hits, trials int
		lo, hi       float64
	}{
		{0, 11, 0, 0.2588}, // lo = +2.8e-17, above p
		{0, 1, 0, 0.7935},  // lo = -5.6e-17, below 0
		{6, 6, 0.6097, 1},  // hi = 1 - 1.1e-16, below p
		{5, 5, 0.5655, 1},  // hi = 1 + 2.2e-16, above 1
	} {
		c := &Counter{Hits: tc.hits, Trials: tc.trials}
		lo, hi := c.Wilson(1.96)
		if tc.lo == 0 && lo != 0 || tc.hi == 1 && hi != 1 {
			t.Errorf("%d of %d: interval (%g, %g), want the exact boundary", tc.hits, tc.trials, lo, hi)
		}
		if math.Abs(lo-tc.lo) > 1e-4 || math.Abs(hi-tc.hi) > 1e-4 {
			t.Errorf("%d of %d: interval (%.4f, %.4f), want (%.4f, %.4f)", tc.hits, tc.trials, lo, hi, tc.lo, tc.hi)
		}
	}
}

func TestWilsonIntervalIsAlwaysValid(t *testing.T) {
	f := func(hits, extra uint8) bool {
		c := Counter{Hits: int(hits), Trials: int(hits) + int(extra)}
		if c.Trials == 0 {
			return true
		}
		lo, hi := c.Wilson(1.96)
		p := c.Rate()
		return lo >= 0 && hi <= 1 && lo <= p && p <= hi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCurveConvergedAt(t *testing.T) {
	tests := []struct {
		name      string
		y         []float64
		threshold float64
		wantIter  int
		wantOK    bool
	}{
		{"simple", []float64{0.2, 0.5, 0.9, 0.96, 0.97, 0.99}, 0.95, 4, true},
		{"never", []float64{0.2, 0.5, 0.6}, 0.95, 0, false},
		{"dips back below", []float64{0.96, 0.2, 0.96, 0.97}, 0.95, 3, true},
		{"always above", []float64{0.96, 0.97, 0.98}, 0.95, 1, true},
		{"last below", []float64{0.96, 0.97, 0.5}, 0.95, 0, false},
		{"empty", nil, 0.95, 0, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			var c Curve
			for i, y := range tt.y {
				c.Append(i+1, y)
			}
			iter, ok := c.ConvergedAt(tt.threshold)
			if iter != tt.wantIter || ok != tt.wantOK {
				t.Errorf("ConvergedAt = (%d, %v), want (%d, %v)", iter, ok, tt.wantIter, tt.wantOK)
			}
		})
	}
}

func TestCurveAUC(t *testing.T) {
	var c Curve
	c.Append(0, 0)
	c.Append(10, 1)
	if got, want := c.AUC(), 0.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("AUC = %v, want %v", got, want)
	}
	var flat Curve
	flat.Append(1, 0.7)
	if got := flat.AUC(); got != 0.7 {
		t.Errorf("single-point AUC = %v", got)
	}
}

func TestCurveSmoothed(t *testing.T) {
	var c Curve
	for i, y := range []float64{0, 1, 0, 1, 0} {
		c.Append(i, y)
	}
	s := c.Smoothed(3)
	if s.Len() != c.Len() {
		t.Fatalf("smoothed length %d", s.Len())
	}
	// Centered window at index 2 covers (1+0+1)/3.
	if math.Abs(s.Y[2]-(2.0/3.0)) > 1e-12 {
		t.Errorf("Y[2] = %v", s.Y[2])
	}
	// Smoothing with window 1 (and even windows round up) is identity.
	id := c.Smoothed(1)
	for i := range c.Y {
		if id.Y[i] != c.Y[i] {
			t.Errorf("window-1 smoothing changed Y[%d]", i)
		}
	}
}

func TestCurveASCIIPlot(t *testing.T) {
	var c Curve
	for i := 0; i < 20; i++ {
		c.Append(i, float64(i)/19)
	}
	out := c.ASCIIPlot(40, 8)
	if out == "" || out == "(empty curve)\n" {
		t.Fatal("plot empty")
	}
	var empty Curve
	if got := empty.ASCIIPlot(40, 8); got != "(empty curve)\n" {
		t.Errorf("empty plot = %q", got)
	}
}

func TestDurations(t *testing.T) {
	d := new(Durations)
	if d.N(1) != 0 || d.Mean(1) != 0 {
		t.Error("empty tracker should report zeros")
	}
	for i := 0; i < 10; i++ {
		d.Observe(1, 4*time.Second)
	}
	if d.N(1) != 10 {
		t.Errorf("N = %d", d.N(1))
	}
	if got := d.Mean(1); got != 4*time.Second {
		t.Errorf("Mean = %v", got)
	}
	if got := len(d.Keys()); got != 1 {
		t.Errorf("Keys = %d", got)
	}
}

func TestDurationsTimeout(t *testing.T) {
	d := new(Durations)
	floor, ceil := 5*time.Second, time.Minute

	// Below minSamples: floor.
	d.Observe(7, 2*time.Second)
	if got := d.Timeout(7, 2, 5, floor, ceil); got != floor {
		t.Errorf("undersampled timeout = %v, want floor %v", got, floor)
	}

	// Constant 10 s observations: mean 10, sd 0 -> 10 s.
	for i := 0; i < 20; i++ {
		d.Observe(8, 10*time.Second)
	}
	if got := d.Timeout(8, 2, 5, floor, ceil); got != 10*time.Second {
		t.Errorf("timeout = %v, want 10s", got)
	}

	// Clamped to ceiling.
	for i := 0; i < 20; i++ {
		d.Observe(9, 5*time.Minute)
	}
	if got := d.Timeout(9, 2, 5, floor, ceil); got != ceil {
		t.Errorf("timeout = %v, want ceil %v", got, ceil)
	}

	// Short durations clamp to floor.
	for i := 0; i < 20; i++ {
		d.Observe(10, time.Second)
	}
	if got := d.Timeout(10, 2, 5, floor, ceil); got != floor {
		t.Errorf("timeout = %v, want floor %v", got, floor)
	}
}

func TestDurationsConcurrent(t *testing.T) {
	d := new(Durations)
	done := make(chan struct{})
	for g := 0; g < 8; g++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 1000; i++ {
				d.Observe(uint32(i%4), time.Duration(i)*time.Millisecond)
			}
		}()
	}
	for g := 0; g < 8; g++ {
		<-done
	}
	total := 0
	for _, k := range d.Keys() {
		total += d.N(k)
	}
	if total != 8000 {
		t.Errorf("total observations = %d, want 8000", total)
	}
}

// Len returns the number of points.
func (c *Curve) Len() int { return len(c.X) }

// AUC returns the area under the curve by trapezoidal rule over the
// recorded X range, normalized by the X span so the result is a mean value.
// It is used by the ablation benches to compare learning speeds.
func (c *Curve) AUC() float64 {
	if len(c.X) < 2 {
		return c.Final()
	}
	area := 0.0
	for i := 1; i < len(c.X); i++ {
		dx := float64(c.X[i] - c.X[i-1])
		area += dx * (c.Y[i] + c.Y[i-1]) / 2
	}
	span := float64(c.X[len(c.X)-1] - c.X[0])
	if span == 0 {
		return c.Final()
	}
	return area / span
}

// N returns the number of observations for a key.
func (d *Durations) N(key uint32) int {
	d.mu.Lock()
	defer d.mu.Unlock()
	if r := d.find(key); r != nil {
		return r.N()
	}
	return 0
}

// Mean returns the mean duration observed for a key (0 if none).
func (d *Durations) Mean(key uint32) time.Duration {
	d.mu.Lock()
	defer d.mu.Unlock()
	if r := d.find(key); r != nil {
		return time.Duration(r.Mean() * float64(time.Second))
	}
	return 0
}

// Keys returns every key with at least one observation.
func (d *Durations) Keys() []uint32 {
	d.mu.Lock()
	defer d.mu.Unlock()
	keys := make([]uint32, 0, len(d.e))
	for _, e := range d.e {
		keys = append(keys, e.key)
	}
	return keys
}

// Min returns the smallest observation, or 0 with no observations.
func (r *Running) Min() float64 { return r.min }

// Max returns the largest observation, or 0 with no observations.
func (r *Running) Max() float64 { return r.max }

// Final returns the last recorded value, or 0 when empty.
func (c *Curve) Final() float64 {
	if len(c.Y) == 0 {
		return 0
	}
	return c.Y[len(c.Y)-1]
}
