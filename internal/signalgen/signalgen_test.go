package signalgen

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"coreda/internal/adl"
)

func newGen(seed int64) *Generator {
	return New(10, DefaultNoise, rand.New(rand.NewSource(seed)))
}

func TestSamples(t *testing.T) {
	g := newGen(1)
	tests := []struct {
		d    time.Duration
		want int
	}{
		{time.Second, 10},
		{2500 * time.Millisecond, 25},
		{40 * time.Millisecond, 1}, // rounds to 0 but clamps to 1
		{0, 0},
	}
	for _, tt := range tests {
		if got := g.Samples(tt.d); got != tt.want {
			t.Errorf("Samples(%v) = %d, want %d", tt.d, got, tt.want)
		}
	}
}

func TestNewDefaults(t *testing.T) {
	g := New(0, -1, rand.New(rand.NewSource(1)))
	if g.Rate() != 10 {
		t.Errorf("default rate = %d", g.Rate())
	}
	if g.noise != DefaultNoise {
		t.Errorf("default noise = %v", g.noise)
	}
}

func TestRestStaysLow(t *testing.T) {
	g := newGen(2)
	series := g.Rest(1000)
	over := 0
	for _, v := range series {
		if v < 0 {
			t.Fatal("negative excitation at rest")
		}
		if v > 1.0 {
			over++
		}
	}
	// Rest noise sigma is 0.09; exceeding 1.0 is a >10-sigma event.
	if over != 0 {
		t.Errorf("%d rest samples above detection threshold", over)
	}
}

func TestGestureExceedsThresholdInSustain(t *testing.T) {
	g := newGen(3)
	series := g.Gesture(40, 2.0) // strong 4-second gesture
	over := 0
	for _, v := range series {
		if v > 1.0 {
			over++
		}
	}
	if over < 20 {
		t.Errorf("only %d/40 samples above threshold for a strong gesture", over)
	}
}

func TestEnvelopeShape(t *testing.T) {
	n := 50
	if envelope(0, n) >= envelope(5, n) {
		t.Error("attack should ramp up")
	}
	if envelope(n/2, n) != 1 {
		t.Error("sustain should be 1")
	}
	if envelope(n-1, n) >= envelope(n-10, n) {
		t.Error("release should ramp down")
	}
	if envelope(0, 1) != 1 {
		t.Error("single-sample envelope should be 1")
	}
}

func TestStepSignalStructure(t *testing.T) {
	g := newGen(4)
	step := adl.Step{Name: "x", Tool: 21, TypicalDuration: 3 * time.Second, Intensity: 2.0}
	series, lo, hi := g.StepSignal(step, 0)
	if lo != 5 {
		t.Errorf("gesture start = %d, want 5 (500 ms lead-in at 10 Hz)", lo)
	}
	if hi-lo != 30 {
		t.Errorf("gesture length = %d samples, want 30", hi-lo)
	}
	if len(series) != hi+5 {
		t.Errorf("series length = %d, want %d", len(series), hi+5)
	}
}

func TestStepSignalDurationJitterIsClamped(t *testing.T) {
	g := newGen(5)
	step := adl.Step{Name: "x", Tool: 21, TypicalDuration: 100 * time.Millisecond, Intensity: 1.0}
	for i := 0; i < 100; i++ {
		_, lo, hi := g.StepSignal(step, 0.5)
		if hi-lo < 2 { // 0.2 s floor at 10 Hz
			t.Fatalf("gesture shorter than the 0.2 s floor: %d samples", hi-lo)
		}
	}
}

func TestPressurePressBumpShape(t *testing.T) {
	g := New(10, 0, rand.New(rand.NewSource(8))) // no noise: pure bump
	series := g.PressurePress(11, 2.0)
	peak := series[5]
	if math.Abs(peak-2.0) > 0.1 {
		t.Errorf("mid-press value = %v, want ~2.0", peak)
	}
	if series[0] >= peak || series[10] >= peak {
		t.Error("press should peak in the middle")
	}
}

func TestAllSeriesNonNegative(t *testing.T) {
	f := func(seed int64, n uint8, intensity float64) bool {
		if math.IsNaN(intensity) || math.IsInf(intensity, 0) {
			return true
		}
		intensity = math.Mod(math.Abs(intensity), 5)
		g := newGen(seed)
		count := int(n%100) + 1
		for _, series := range [][]float64{
			g.Rest(count),
			g.Gesture(count, intensity),
			g.PressurePress(count, intensity),
		} {
			for _, v := range series {
				if v < 0 || math.IsNaN(v) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestDeterminismFromSeed(t *testing.T) {
	a := newGen(42).Gesture(50, 1.5)
	b := newGen(42).Gesture(50, 1.5)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("sample %d differs across identical seeds", i)
		}
	}
}

// Rate returns the sample rate in Hz.
func (g *Generator) Rate() int { return g.rate }

// StepSignal is StepSignalKind on an accelerometer-instrumented tool.
func (g *Generator) StepSignal(step adl.Step, durJitter float64) (series []float64, gestureLo, gestureHi int) {
	return g.StepSignalKind(step, adl.SensorAccelerometer, durJitter)
}
