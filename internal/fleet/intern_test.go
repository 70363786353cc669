package fleet

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"coreda"
	"coreda/internal/adl"
	"coreda/internal/store"
)

// interned returns the fleet's shared entry for the named activity.
func (f *Fleet) interned(name string) *sharedActivity {
	f.acts.mu.Lock()
	defer f.acts.mu.Unlock()
	return f.acts.byName[name]
}

// activityOf returns the activity the household's tenant runs and the
// shared entry it holds, admitting the tenant if needed.
func activityOf(t *testing.T, f *Fleet, household string) (*coreda.Activity, *sharedActivity) {
	t.Helper()
	var (
		a *coreda.Activity
		e *sharedActivity
	)
	if err := f.Do(household, func(tn *Tenant) error {
		a, e = tn.System.Planner().Activity(), tn.act
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return a, e
}

// sharedSum checksums an interned entry: the activity's name, steps and
// tools (in ascending ID order) and the encoded routine.
func sharedSum(e *sharedActivity) string {
	h := sha256.New()
	a := e.activity
	fmt.Fprintf(h, "%q %d\n", a.Name, len(a.Steps))
	for _, s := range a.Steps {
		fmt.Fprintf(h, "%#v\n", s)
	}
	for _, id := range adl.SortedToolIDs(a.Tools) {
		fmt.Fprintf(h, "%#v\n", a.Tools[id])
	}
	fmt.Fprintf(h, "%v\n", e.enc)
	return hex.EncodeToString(h.Sum(nil))
}

// TestInternedActivityIsNeverWritten runs 1000 soak households — each
// NewSystem call building a fresh tea-making activity, every tenant
// evicted and re-admitted mid-life — over one interned activity, and
// checks that the shared activity and its encoded routine are
// byte-for-byte what they were before the run: shared structures are
// read-only.
func TestInternedActivityIsNeverWritten(t *testing.T) {
	soak := SoakConfig{Seed: 3, Households: 1000}
	cfg := testConfig(t, t.TempDir())
	cfg.IdleEvict = 10 * time.Minute // the soak's default: its mid-life gap evicts every tenant
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	f.Start()
	defer f.Stop()

	first, _ := activityOf(t, f, SoakHousehold(0))
	e := f.interned(first.Name)
	if e == nil || e.activity != first {
		t.Fatalf("first tenant runs %p, interned entry %+v", first, e)
	}
	before := sharedSum(e)

	streams := make([][]Event, soak.Households)
	for i := range streams {
		for _, session := range SoakSessions(soak, SoakHousehold(i)) {
			streams[i] = append(streams[i], session...)
		}
	}
	delivered := 0
	for k := 0; ; k++ {
		more := false
		for _, s := range streams {
			if k < len(s) {
				more = true
				if err := f.Deliver(s[k]); err != nil {
					t.Fatal(err)
				}
				delivered++
			}
		}
		if !more {
			break
		}
	}
	st := f.Stats()
	if st.Evictions < soak.Households || st.Recovered < soak.Households {
		t.Fatalf("soak of %d events evicted %d and recovered %d tenants, want every household through the cycle", delivered, st.Evictions, st.Recovered)
	}
	for i := 0; i < soak.Households; i += 97 {
		a, te := activityOf(t, f, SoakHousehold(i))
		if a != e.activity || te != e {
			t.Fatalf("household %s runs activity %p (entry %p), want the interned %p", SoakHousehold(i), a, te, e.activity)
		}
	}
	if after := sharedSum(f.interned(first.Name)); after != before {
		t.Errorf("interned activity changed during the soak: checksum %s, was %s", after, before)
	}
}

// TestDivergentActivityIsNotInterned gives one household a tea-making
// activity with its first two steps swapped: same name, different
// routine. That household must keep its own activity and checkpoint its
// own routine, while the others keep sharing the interned one.
func TestDivergentActivityIsNotInterned(t *testing.T) {
	mem := store.NewMemBackend()
	cfg := testConfig(t, "")
	cfg.Backend = mem
	var odd *coreda.Activity
	cfg.NewSystem = func(household string) (coreda.SystemConfig, error) {
		a := adl.TeaMaking()
		if household == "odd" {
			a.Steps[0], a.Steps[1] = a.Steps[1], a.Steps[0]
			odd = a
		}
		return coreda.SystemConfig{Activity: a, UserName: household, Seed: SeedFor(7, household)}, nil
	}
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	f.Start()

	shared, e := activityOf(t, f, "even")
	oddAct, oddEntry := activityOf(t, f, "odd")
	if again, _ := activityOf(t, f, "even-2"); again != shared {
		t.Errorf("second canonical household runs %p, want the interned %p", again, shared)
	}
	if oddAct != odd || oddEntry == e || f.interned("tea-making") != e {
		t.Fatalf("divergent household runs %p (entry %p), want its own %p; interned entry %p", oddAct, oddEntry, odd, e)
	}
	for _, household := range []string{"even", "odd"} {
		if err := f.EvictNow(household); err != nil {
			t.Fatal(err)
		}
	}
	f.Stop()

	for household, want := range map[string]adl.Routine{
		"even": adl.TeaMaking().CanonicalRoutine(),
		"odd":  odd.CanonicalRoutine(),
	} {
		var c store.Checkpoint
		if err := store.LoadCheckpoint(mem, household, &c); err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprint(c.Routines); got != fmt.Sprint(store.EncodeRoutines([]adl.Routine{want})) {
			t.Errorf("%s checkpoint stores routines %s, want %v", household, got, want)
		}
	}
}

// TestSamePointerActivityIsShared covers NewSystem returning one
// activity pointer for every household, as coreda-fleet does. The
// activity here has a NaN step intensity, so it is unequal to any other
// activity, copies of itself included: its tenants can only share it
// through the pointer check, which must come before any content
// comparison.
func TestSamePointerActivityIsShared(t *testing.T) {
	nan := func() *coreda.Activity {
		a := adl.TeaMaking()
		a.Steps[0].Intensity = math.NaN()
		return a
	}
	one := nan()
	for _, tc := range []struct {
		name   string
		act    func() *coreda.Activity
		shared bool
	}{
		{"same pointer", func() *coreda.Activity { return one }, true},
		{"fresh copies", nan, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testConfig(t, "")
			cfg.NewSystem = func(household string) (coreda.SystemConfig, error) {
				return coreda.SystemConfig{Activity: tc.act(), UserName: household, Seed: SeedFor(7, household)}, nil
			}
			f, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			f.Start()
			defer f.Stop()
			_, first := activityOf(t, f, "h0")
			for i := 1; i < 8; i++ {
				_, e := activityOf(t, f, fmt.Sprintf("h%d", i))
				if (e == first) != tc.shared {
					t.Fatalf("household h%d holds entry %p, first household %p; want shared=%v", i, e, first, tc.shared)
				}
			}
		})
	}
}

// TestInternConcurrentFirstContact interns fresh copies of one activity
// from several goroutines at once into an empty table, as shards do when
// their first households arrive together: every caller must come away
// with the one entry the table kept.
func TestInternConcurrentFirstContact(t *testing.T) {
	var (
		acts    activityTable
		wg      sync.WaitGroup
		entries [8]*sharedActivity
	)
	for i := range entries {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			e, err := acts.intern(adl.TeaMaking())
			if err != nil {
				t.Error(err)
			}
			entries[i] = e
		}(i)
	}
	wg.Wait()
	kept := acts.byName["tea-making"]
	for i, e := range entries {
		if e != kept {
			t.Errorf("goroutine %d got entry %p, table kept %p", i, e, kept)
		}
	}
}
