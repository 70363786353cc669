package fleet

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"coreda"
	"coreda/internal/adl"
	"coreda/internal/store"
)

// testConfig is a minimal fleet over tea-making households checkpointed
// in dir, or in memory when dir is empty.
func testConfig(tb testing.TB, dir string) Config {
	var backend store.Backend = store.NewMemBackend()
	if dir != "" {
		b, err := store.NewDirBackend(dir)
		if err != nil {
			tb.Fatal(err)
		}
		backend = b
	}
	return Config{
		Shards:  2,
		Backend: backend,
		NewSystem: func(household string) (coreda.SystemConfig, error) {
			return coreda.SystemConfig{
				Activity: adl.TeaMaking(),
				UserName: household,
				Seed:     SeedFor(7, household),
			}, nil
		},
	}
}

// deliverSession drives one complete tea-making session (usage start/end
// for every step, in order) for a household, starting at base.
func deliverSession(t *testing.T, f *Fleet, household string, base time.Duration) time.Duration {
	t.Helper()
	activity := adl.TeaMaking()
	now := base
	for _, step := range activity.Steps {
		now += 5 * time.Second
		if err := f.Deliver(Event{
			Household: household,
			At:        now,
			Kind:      EventUsage,
			Usage:     coreda.UsageEvent{Tool: step.Tool, Kind: coreda.UsageStarted},
		}); err != nil {
			t.Fatal(err)
		}
		now += 2 * time.Second
		if err := f.Deliver(Event{
			Household: household,
			At:        now,
			Kind:      EventUsage,
			Usage:     coreda.UsageEvent{Tool: step.Tool, Kind: coreda.UsageEnded, Duration: 2 * time.Second},
		}); err != nil {
			t.Fatal(err)
		}
	}
	return now
}

func TestLazyAdmissionAndCheckpoint(t *testing.T) {
	dir := t.TempDir()
	f, err := New(testConfig(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	f.Start()
	deliverSession(t, f, "tanaka", 0)
	f.Flush()

	if _, err := os.Stat(filepath.Join(dir, "tanaka.ckpt")); err != nil {
		t.Fatalf("no checkpoint after Flush: %v", err)
	}
	var episodes int
	err = f.Do("tanaka", func(tn *Tenant) error {
		episodes = tn.System.Planner().Episodes
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if episodes != 1 {
		t.Errorf("episodes after one session = %d, want 1", episodes)
	}
	f.Stop()

	st := f.Stats()
	if st.Admissions != 1 || st.Recovered != 0 || st.Events != 8 || st.Checkpoints != 1 {
		t.Errorf("stats = %+v", st)
	}
	if st.Resident != 1 {
		t.Errorf("resident = %d, want 1", st.Resident)
	}
}

func TestEvictionAndReadmission(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig(t, dir)
	cfg.IdleEvict = time.Minute
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	f.Start()
	end := deliverSession(t, f, "sato", 0)

	// Idle past the deadline: the tenant must checkpoint and leave.
	if err := f.Deliver(Event{Household: "sato", At: end + 2*time.Minute, Kind: EventAdvance}); err != nil {
		t.Fatal(err)
	}
	st := f.Stats()
	if st.Evictions != 1 || st.Resident != 0 || st.Checkpoints != 1 {
		t.Fatalf("after idle gap: stats = %+v", st)
	}
	if _, err := os.Stat(filepath.Join(dir, "sato.ckpt")); err != nil {
		t.Fatalf("eviction wrote no checkpoint: %v", err)
	}

	// The next session re-admits from the checkpoint, training state
	// intact.
	deliverSession(t, f, "sato", end+3*time.Minute)
	var episodes int
	if err := f.Do("sato", func(tn *Tenant) error {
		episodes = tn.System.Planner().Episodes
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if episodes != 2 {
		t.Errorf("episodes after evict + re-admit + session = %d, want 2", episodes)
	}
	f.Stop()
	st = f.Stats()
	if st.Admissions != 2 || st.Recovered != 1 || st.RecoveryErrors != 0 {
		t.Errorf("final stats = %+v", st)
	}
}

func TestMidSessionTenantIsNotEvicted(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig(t, dir)
	cfg.IdleEvict = time.Minute
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	f.Start()
	defer f.Stop()

	// One step only: the session stays active.
	if err := f.Deliver(Event{
		Household: "abe",
		At:        time.Second,
		Kind:      EventUsage,
		Usage:     coreda.UsageEvent{Tool: adl.ToolTeaBox, Kind: coreda.UsageStarted},
	}); err != nil {
		t.Fatal(err)
	}
	if err := f.Deliver(Event{Household: "abe", At: 10 * time.Minute, Kind: EventAdvance}); err != nil {
		t.Fatal(err)
	}
	if st := f.Stats(); st.Evictions != 0 || st.Resident != 1 {
		t.Errorf("mid-session tenant evicted: %+v", st)
	}
}

// TestDegradedTenantIsNotEvicted pins a household with an offline tool
// in memory: re-admitted, it would come back with every tool online,
// and the server sends each transition only once. Its recovery makes it
// evictable again.
func TestDegradedTenantIsNotEvicted(t *testing.T) {
	cfg := testConfig(t, t.TempDir())
	cfg.IdleEvict = time.Minute
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	f.Start()
	defer f.Stop()
	nodeState := func(hh string, at time.Duration, online bool) {
		t.Helper()
		if err := f.Deliver(Event{Household: hh, At: at, Kind: EventNodeState, Tool: adl.ToolKettle, Online: online}); err != nil {
			t.Fatal(err)
		}
	}

	// "kon" loses its kettle node and gets it back; "ono" loses it.
	nodeState("kon", time.Second, false)
	nodeState("kon", 2*time.Second, true)
	nodeState("ono", 2*time.Second, false)
	if err := f.Advance(10 * time.Minute); err != nil {
		t.Fatal(err)
	}
	if st := f.Stats(); st.Evictions != 1 || st.Resident != 1 {
		t.Fatalf("after the idle gap: stats = %+v, want only the healthy tenant evicted", st)
	}
	var degraded bool
	if err := f.Do("ono", func(tn *Tenant) error {
		degraded = tn.System.Degraded()
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !degraded {
		t.Error("resident tenant lost its offline tool")
	}

	nodeState("ono", 11*time.Minute, true)
	if err := f.Advance(20 * time.Minute); err != nil {
		t.Fatal(err)
	}
	if st := f.Stats(); st.Evictions != 2 || st.Resident != 0 {
		t.Errorf("after recovery and another idle gap: stats = %+v, want both evicted", st)
	}
}

// TestCorruptCheckpointStartsFresh pins what an unusable checkpoint
// costs: the household starts fresh and the fleet counts one recovery
// error, whether the blob is torn or holds bytes of another format — a
// pre-CKPT JSON checkpoint copied under the .ckpt name is garbage to the
// decoder like any other.
func TestCorruptCheckpointStartsFresh(t *testing.T) {
	for name, data := range map[string][]byte{
		"torn": []byte("CKPT\x01torn"),
		"json": []byte(`{"version":1,"user":"ito","activity":"tea-making","states":1,"actions":1,"q":[0]}`),
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, "ito.ckpt"), data, 0o644); err != nil {
				t.Fatal(err)
			}
			f, err := New(testConfig(t, dir))
			if err != nil {
				t.Fatal(err)
			}
			f.Start()
			deliverSession(t, f, "ito", 0)
			f.Stop()
			st := f.Stats()
			if st.RecoveryErrors != 1 || st.Recovered != 0 || st.Admissions != 1 {
				t.Errorf("stats = %+v", st)
			}
			if st.Events != 8 {
				t.Errorf("events = %d, want 8 (traffic must flow despite the bad file)", st.Events)
			}
		})
	}
}

func TestDeliverRejectsInvalidHousehold(t *testing.T) {
	f, err := New(testConfig(t, t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	f.Start()
	defer f.Stop()
	for _, id := range []string{"", ".hidden", "a/b", "x y", string(make([]byte, 100))} {
		if err := f.Deliver(Event{Household: id, Kind: EventAdvance}); err == nil {
			t.Errorf("household %q accepted", id)
		}
	}
	if err := f.Deliver(Event{Household: "ok-1.A_b", Kind: EventAdvance}); err != nil {
		t.Errorf("legal household rejected: %v", err)
	}
}

func TestLifecycleGuards(t *testing.T) {
	f, err := New(testConfig(t, t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Deliver(Event{Household: "a", Kind: EventAdvance}); err == nil {
		t.Error("Deliver before Start accepted")
	}
	f.Start()
	f.Stop()
	f.Stop() // idempotent
	if err := f.Deliver(Event{Household: "a", Kind: EventAdvance}); err == nil {
		t.Error("Deliver after Stop accepted")
	}
	if err := f.Do("a", func(*Tenant) error { return nil }); err == nil {
		t.Error("Do after Stop accepted")
	}
}

func TestNewValidation(t *testing.T) {
	cfg := testConfig(t, "")
	cfg.Backend = nil
	if _, err := New(cfg); err == nil {
		t.Error("missing Backend accepted")
	}
	if _, err := New(Config{Backend: store.NewMemBackend()}); err == nil {
		t.Error("missing NewSystem accepted")
	}
}

func TestEvictNowCheckpointsAndReleases(t *testing.T) {
	dir := t.TempDir()
	f, err := New(testConfig(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	f.Start()
	defer f.Stop()
	deliverSession(t, f, "handoff-src", 0)

	if err := f.EvictNow("handoff-src"); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "handoff-src.ckpt")); err != nil {
		t.Fatalf("EvictNow wrote no checkpoint: %v", err)
	}
	st := f.Stats()
	if st.Evictions != 1 || st.Resident != 0 || st.Checkpoints != 1 {
		t.Errorf("after EvictNow: stats = %+v", st)
	}
	// Evicting a household that is not resident is a no-op.
	if err := f.EvictNow("never-admitted"); err != nil {
		t.Fatal(err)
	}
	// Re-admission restores the checkpointed learning.
	var episodes int
	if err := f.Do("handoff-src", func(tn *Tenant) error {
		episodes = tn.System.Planner().Episodes
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if episodes != 1 {
		t.Errorf("episodes after EvictNow + re-admit = %d, want 1", episodes)
	}
}

// TestAdmitRestoresBlobWrittenWhileRunning: admission asks the backend,
// so a checkpoint that lands in the store after New — the way a cluster
// replica write or an adoption does, behind the fleet's back — is
// restored on the household's first event.
func TestAdmitRestoresBlobWrittenWhileRunning(t *testing.T) {
	dir := t.TempDir()

	// First fleet learns one session and checkpoints it.
	f1, err := New(testConfig(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	f1.Start()
	deliverSession(t, f1, "migrant", 0)
	f1.Stop()

	// Second fleet starts over an empty dir; the blob arrives later,
	// out-of-band, as a cluster replica write would.
	dir2 := t.TempDir()
	f2, err := New(testConfig(t, dir2))
	if err != nil {
		t.Fatal(err)
	}
	f2.Start()
	defer f2.Stop()
	blob, err := os.ReadFile(filepath.Join(dir, "migrant.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir2, "migrant.ckpt"), blob, 0o644); err != nil {
		t.Fatal(err)
	}
	var episodes int
	if err := f2.Do("migrant", func(tn *Tenant) error {
		episodes = tn.System.Planner().Episodes
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if episodes != 1 {
		t.Errorf("episodes after admission = %d, want 1 (blob not restored)", episodes)
	}
	st := f2.Stats()
	if st.Recovered != 1 {
		t.Errorf("stats = %+v, want Recovered 1", st)
	}
}
