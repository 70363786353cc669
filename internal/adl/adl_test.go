package adl

import (
	"math/rand"
	"testing"
	"time"

	"coreda/internal/testutil"
)

func TestLibraryValidates(t *testing.T) {
	for _, a := range library() {
		a := a
		t.Run(a.Name, func(t *testing.T) {
			if err := a.Validate(); err != nil {
				t.Fatalf("Validate() = %v, want nil", err)
			}
		})
	}
}

func TestTable2Instrumentation(t *testing.T) {
	// The sensor-per-tool assignments must match Table 2 of the paper.
	tests := []struct {
		activity *Activity
		tool     ToolID
		want     SensorKind
	}{
		{ToothBrushing(), ToolPasteTube, SensorAccelerometer},
		{ToothBrushing(), ToolBrush, SensorAccelerometer},
		{ToothBrushing(), ToolCup, SensorAccelerometer},
		{ToothBrushing(), ToolTowel, SensorAccelerometer},
		{TeaMaking(), ToolTeaBox, SensorAccelerometer},
		{TeaMaking(), ToolPot, SensorPressure},
		{TeaMaking(), ToolKettle, SensorAccelerometer},
		{TeaMaking(), ToolTeaCup, SensorAccelerometer},
	}
	for _, tt := range tests {
		tool, ok := tt.activity.Tool(tt.tool)
		if !ok {
			t.Errorf("%s: tool %d not declared", tt.activity.Name, tt.tool)
			continue
		}
		if tool.Sensor != tt.want {
			t.Errorf("%s tool %q: sensor = %v, want %v", tt.activity.Name, tool.Name, tool.Sensor, tt.want)
		}
	}
}

func TestActivityStepLookup(t *testing.T) {
	a := TeaMaking()
	s, ok := a.StepByTool(ToolPot)
	if !ok {
		t.Fatal("StepByTool(ToolPot) not found")
	}
	if s.Name != "Pour hot water into kettle" {
		t.Errorf("step name = %q", s.Name)
	}
	if s.ID() != StepOf(ToolPot) {
		t.Errorf("step ID = %d, want %d", s.ID(), StepOf(ToolPot))
	}
	if _, ok := a.StepByTool(ToolBrush); ok {
		t.Error("StepByTool(ToolBrush) found in tea-making")
	}
	if got := a.TerminalStep(); got != StepOf(ToolTeaCup) {
		t.Errorf("TerminalStep() = %d, want %d", got, StepOf(ToolTeaCup))
	}
}

func TestValidateRejectsBrokenActivities(t *testing.T) {
	valid := func() *Activity { return TeaMaking() }
	tests := []struct {
		name   string
		break_ func(*Activity)
	}{
		{"empty name", func(a *Activity) { a.Name = "" }},
		{"no steps", func(a *Activity) { a.Steps = nil }},
		{"reserved tool", func(a *Activity) { a.Steps[0].Tool = NoTool }},
		{"undeclared tool", func(a *Activity) { a.Steps[0].Tool = 99 }},
		{"duplicate tool", func(a *Activity) { a.Steps[1].Tool = a.Steps[0].Tool }},
		{"zero duration", func(a *Activity) { a.Steps[2].TypicalDuration = 0 }},
		{"zero intensity", func(a *Activity) { a.Steps[2].Intensity = 0 }},
		{"unused declared tool", func(a *Activity) {
			a.Tools[77] = Tool{ID: 77, Name: "ghost", Sensor: SensorAccelerometer}
		}},
		{"mismatched map key", func(a *Activity) {
			tl := a.Tools[ToolPot]
			tl.ID = 78
			a.Tools[ToolPot] = tl
		}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			a := valid()
			tt.break_(a)
			if err := a.Validate(); err == nil {
				t.Fatal("Validate() = nil, want error")
			}
		})
	}
}

// TestValidateReportsLowestBadTool checks that the declared-tool checks,
// which walk the tool map in its randomized order, still report the
// lowest offending tool on every call.
func TestValidateReportsLowestBadTool(t *testing.T) {
	a := TeaMaking()
	for _, id := range []ToolID{79, 77, 78} {
		a.Tools[id] = Tool{ID: id, Name: "ghost", Sensor: SensorAccelerometer}
	}
	want := `adl: activity "tea-making" declares unused tool 77 ("ghost")`
	for i := 0; i < 20; i++ {
		if err := a.Validate(); err == nil || err.Error() != want {
			t.Fatalf("Validate() = %v, want %s", err, want)
		}
	}
}

func TestActivityEqual(t *testing.T) {
	a := TeaMaking()
	if !a.Equal(a) || !a.Equal(TeaMaking()) {
		t.Fatal("identical activities compare unequal")
	}
	for name, change := range map[string]func(*Activity){
		"name":      func(b *Activity) { b.Name = "coffee" },
		"step":      func(b *Activity) { b.Steps[2].Intensity *= 2 },
		"order":     func(b *Activity) { b.Steps[0], b.Steps[1] = b.Steps[1], b.Steps[0] },
		"no steps":  func(b *Activity) { b.Steps = nil },
		"tool":      func(b *Activity) { tl := b.Tools[ToolPot]; tl.Picture = "other.png"; b.Tools[ToolPot] = tl },
		"extra":     func(b *Activity) { b.Tools[77] = Tool{ID: 77} },
		"swap tool": func(b *Activity) { delete(b.Tools, ToolPot); b.Tools[77] = Tool{ID: 77} },
	} {
		b := TeaMaking()
		change(b)
		if a.Equal(b) || b.Equal(a) {
			t.Errorf("%s: changed activity compares equal", name)
		}
	}
	if a.Equal(nil) {
		t.Error("activity equals nil")
	}
}

// TestActivityCheckAllocs pins Equal and Validate of a valid activity to
// zero allocations: a fleet runs both on its admission path.
func TestActivityCheckAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("race instrumentation allocates; alloc budgets are enforced by the no-race pass (scripts/check.sh)")
	}
	a, b := TeaMaking(), TeaMaking()
	if n := testing.AllocsPerRun(100, func() {
		if !a.Equal(b) {
			t.Fatal("unequal")
		}
	}); n != 0 {
		t.Errorf("Equal allocates %v times per call, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		if err := a.Validate(); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("Validate allocates %v times per call, want 0", n)
	}
}

func TestStepToolConversion(t *testing.T) {
	if ToolOf(StepIdle) != NoTool {
		t.Error("ToolOf(StepIdle) != NoTool")
	}
	for id := ToolID(1); id < 100; id++ {
		if ToolOf(StepOf(id)) != id {
			t.Fatalf("round trip failed for %d", id)
		}
	}
}

func TestRoutineBasics(t *testing.T) {
	a := TeaMaking()
	r := a.CanonicalRoutine()
	if err := r.Validate(a); err != nil {
		t.Fatalf("canonical routine invalid: %v", err)
	}
	if r.Terminal() != StepOf(ToolTeaCup) {
		t.Errorf("Terminal() = %d", r.Terminal())
	}
	if got := r.Next(0); got != StepOf(ToolPot) {
		t.Errorf("Next(0) = %d, want pot", got)
	}
	if got := r.Next(len(r) - 1); got != StepIdle {
		t.Errorf("Next(last) = %d, want idle", got)
	}
	if got := r.Next(-1); got != StepIdle {
		t.Errorf("Next(-1) = %d, want idle", got)
	}
	if got := r.Index(StepOf(ToolKettle)); got != 2 {
		t.Errorf("Index(kettle) = %d, want 2", got)
	}
	if got := r.Index(StepOf(ToolBrush)); got != -1 {
		t.Errorf("Index(brush) = %d, want -1", got)
	}
	c := r.Clone()
	c[0] = StepOf(ToolTeaCup)
	if r[0] == c[0] {
		t.Error("Clone() shares backing array")
	}
}

func TestRoutineValidateRejects(t *testing.T) {
	a := TeaMaking()
	tests := []struct {
		name string
		r    Routine
	}{
		{"short", Routine{StepOf(ToolTeaBox)}},
		{"idle inside", Routine{StepIdle, StepOf(ToolPot), StepOf(ToolKettle), StepOf(ToolTeaCup)}},
		{"unknown step", Routine{StepOf(ToolBrush), StepOf(ToolPot), StepOf(ToolKettle), StepOf(ToolTeaCup)}},
		{"repeat", Routine{StepOf(ToolTeaBox), StepOf(ToolTeaBox), StepOf(ToolKettle), StepOf(ToolTeaCup)}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := tt.r.Validate(a); err == nil {
				t.Fatal("Validate() = nil, want error")
			}
		})
	}
}

func TestRoutineSetValidate(t *testing.T) {
	a := Dressing()
	r1 := a.CanonicalRoutine()
	r2 := r1.Clone()
	r2[2], r2[3] = r2[3], r2[2] // shoes before socks? swap socks/shoes order
	rs := &RoutineSet{Activity: a.Name, Routines: []Routine{r1, r2}}
	if err := rs.Validate(a); err != nil {
		t.Fatalf("Validate() = %v", err)
	}

	dup := &RoutineSet{Activity: a.Name, Routines: []Routine{r1, r1.Clone()}}
	if err := dup.Validate(a); err == nil {
		t.Error("duplicate routines accepted")
	}
	empty := &RoutineSet{Activity: a.Name}
	if err := empty.Validate(a); err == nil {
		t.Error("empty routine set accepted")
	}
	wrong := &RoutineSet{Activity: "other", Routines: []Routine{r1}}
	if err := wrong.Validate(a); err == nil {
		t.Error("wrong activity name accepted")
	}
}

func TestRoutineSetMatch(t *testing.T) {
	a := Dressing()
	r1 := a.CanonicalRoutine() // shirt trousers socks shoes
	r2 := Routine{r1[0], r1[2], r1[1], r1[3]}
	rs := &RoutineSet{Activity: a.Name, Routines: []Routine{r1, r2}}

	tests := []struct {
		name        string
		observed    []StepID
		wantIndex   int
		wantMatched int
	}{
		{"empty", nil, 0, 0},
		{"shared prefix", []StepID{r1[0]}, 0, 1},
		{"routine 1", []StepID{r1[0], r1[1]}, 0, 2},
		{"routine 2", []StepID{r1[0], r1[2]}, 1, 2},
		{"full routine 2", []StepID{r2[0], r2[1], r2[2], r2[3]}, 1, 4},
		{"divergent", []StepID{r1[3]}, 0, 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			idx, n := rs.Match(tt.observed)
			if idx != tt.wantIndex || n != tt.wantMatched {
				t.Errorf("Match(%v) = (%d, %d), want (%d, %d)", tt.observed, idx, n, tt.wantIndex, tt.wantMatched)
			}
		})
	}
}

func TestStepDurationsEncodeTable3Difficulty(t *testing.T) {
	// The two steps the paper reports as hardest to extract must be the
	// shortest in their activities.
	tb := ToothBrushing()
	towel, _ := tb.StepByTool(ToolTowel)
	for _, s := range tb.Steps {
		if s.Tool != ToolTowel && s.TypicalDuration <= towel.TypicalDuration {
			t.Errorf("tooth-brushing: %q (%v) not longer than towel (%v)", s.Name, s.TypicalDuration, towel.TypicalDuration)
		}
	}
	tm := TeaMaking()
	pot, _ := tm.StepByTool(ToolPot)
	for _, s := range tm.Steps {
		if s.Tool != ToolPot && s.TypicalDuration <= pot.TypicalDuration {
			t.Errorf("tea-making: %q (%v) not longer than pot (%v)", s.Name, s.TypicalDuration, pot.TypicalDuration)
		}
	}
}

func TestSensorKindString(t *testing.T) {
	tests := []struct {
		k    SensorKind
		want string
	}{
		{SensorAccelerometer, "accelerometer"},
		{SensorPressure, "pressure"},
		{SensorBrightness, "brightness"},
		{SensorTemperature, "temperature"},
		{SensorMotion, "motion"},
		{SensorKind(42), "SensorKind(42)"},
	}
	for _, tt := range tests {
		if got := tt.k.String(); got != tt.want {
			t.Errorf("String(%d) = %q, want %q", int(tt.k), got, tt.want)
		}
	}
}

func TestLibraryToolIDsGloballyUnique(t *testing.T) {
	seen := map[ToolID]string{}
	for _, a := range library() {
		for id := range a.Tools {
			if other, dup := seen[id]; dup {
				t.Errorf("tool %d declared by both %s and %s", id, other, a.Name)
			}
			seen[id] = a.Name
		}
	}
}

func TestTypicalDurationsArePositiveAndSubMinute(t *testing.T) {
	for _, a := range library() {
		for _, s := range a.Steps {
			if s.TypicalDuration <= 0 || s.TypicalDuration > time.Minute {
				t.Errorf("%s %q: implausible duration %v", a.Name, s.Name, s.TypicalDuration)
			}
		}
	}
}

func TestEditDistance(t *testing.T) {
	a := Routine{1, 2, 3, 4}
	tests := []struct {
		name string
		b    Routine
		want int
	}{
		{"identical", Routine{1, 2, 3, 4}, 0},
		{"one substitution", Routine{1, 9, 3, 4}, 1},
		{"one deletion", Routine{1, 2, 4}, 1},
		{"one insertion", Routine{1, 2, 3, 9, 4}, 1},
		{"swap adjacent", Routine{1, 3, 2, 4}, 2},
		{"empty", Routine{}, 4},
		{"disjoint", Routine{5, 6, 7, 8}, 4},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := EditDistance(a, tt.b); got != tt.want {
				t.Errorf("EditDistance = %d, want %d", got, tt.want)
			}
			// Symmetry.
			if got := EditDistance(tt.b, a); got != tt.want {
				t.Errorf("EditDistance reversed = %d, want %d", got, tt.want)
			}
		})
	}
}

func TestEditDistanceMetricProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	randRoutine := func() Routine {
		n := 1 + rng.Intn(6)
		r := make(Routine, n)
		for i := range r {
			r[i] = StepID(1 + rng.Intn(5))
		}
		return r
	}
	for trial := 0; trial < 200; trial++ {
		a, b, c := randRoutine(), randRoutine(), randRoutine()
		dab, dbc, dac := EditDistance(a, b), EditDistance(b, c), EditDistance(a, c)
		if EditDistance(a, a) != 0 {
			t.Fatal("d(a,a) != 0")
		}
		if dab != EditDistance(b, a) {
			t.Fatal("not symmetric")
		}
		if dac > dab+dbc {
			t.Fatalf("triangle inequality violated: d(a,c)=%d > %d+%d", dac, dab, dbc)
		}
	}
}

// library returns every activity in the standard library.
func library() []*Activity {
	return []*Activity{ToothBrushing(), TeaMaking(), HandWashing(), Medication(), Dressing()}
}
