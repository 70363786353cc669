package fleet

// Tests for the checkpoint write path: a pinned soak digest,
// deterministic chaos job-failure injection, writeback failure
// surfacing on the bus, and shard-loop immunity to slow bus
// subscribers.

import (
	"errors"
	"strings"
	"testing"
	"time"

	"coreda/internal/notify"
	"coreda/internal/store"
)

// controlDigest is the policy digest of the Seed 11, 48-household,
// 4-session soak, at any shard count and any injected fault rate.
const controlDigest = "3dcb9e5891dd1d71b66fdb1f346b1d1bc172d1c39798f3f605d50cfa2ab92822"

// TestSoakControlParity pins what the checkpoint waves write: a soak
// that pushes every household through eviction, batched writeback and
// re-admission must reproduce the policy digest and counters captured
// when control writes still ran inline on the drain loop, before that
// path was retired.
func TestSoakControlParity(t *testing.T) {
	t.Parallel()
	wantStats := Stats{Events: 1536, Admissions: 96, Recovered: 48, Evictions: 48, Checkpoints: 96, Resident: 48}
	res, err := Soak(SoakConfig{
		Seed:       11,
		Households: 48,
		Sessions:   4,
		Shards:     4,
		Dir:        t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Digest != controlDigest {
		t.Errorf("digest %s, want %s", res.Digest, controlDigest)
	}
	if res.Stats != wantStats {
		t.Errorf("stats %+v, want %+v", res.Stats, wantStats)
	}
}

// TestSoakJobFailDigestStable: chaos job-failure injection exercises the
// retry path (JobRetries > 0) without perturbing a single policy byte.
func TestSoakJobFailDigestStable(t *testing.T) {
	t.Parallel()
	run := func(jobFail float64) SoakResult {
		res, err := Soak(SoakConfig{
			Seed:       11,
			Households: 48,
			Sessions:   4,
			Shards:     4,
			Dir:        t.TempDir(),
			JobFail:    jobFail,
		})
		if err != nil {
			t.Fatalf("soak (jobfail=%v): %v", jobFail, err)
		}
		return res
	}
	clean, faulty := run(0), run(0.5)
	if clean.Digest != faulty.Digest {
		t.Errorf("injection changed the digest: %s vs %s", clean.Digest, faulty.Digest)
	}
	if clean.Stats.JobRetries != 0 {
		t.Errorf("clean run retried %d jobs", clean.Stats.JobRetries)
	}
	if faulty.Stats.JobRetries == 0 {
		t.Error("JobFail=0.5 never exercised a retry")
	}
	// Outcomes must match exactly: injection may only move retry
	// counters.
	faultyStats := faulty.Stats
	faultyStats.JobRetries = clean.Stats.JobRetries
	if clean.Stats != faultyStats {
		t.Errorf("injection changed outcomes:\n clean  %+v\n faulty %+v", clean.Stats, faulty.Stats)
	}
}

// TestJobRetriesDeterministic: every checkpoint write, evictions
// included, draws its injection in wave order and goes through the
// retry path, so JobRetries is a pure function of seed and fault rate.
// With every first attempt failed, each checkpoint costs exactly one
// retry; at a partial rate, repeated runs count the same retries however
// the shard loop's batches fell. An injection asking for more failures
// than the retry budget holds is capped below it, so every write still
// lands and only the retry counter moves.
func TestJobRetriesDeterministic(t *testing.T) {
	t.Parallel()
	run := func(jobFail float64) SoakResult {
		res, err := Soak(SoakConfig{
			Seed:       11,
			Households: 48,
			Sessions:   4,
			Shards:     1,
			Dir:        t.TempDir(),
			JobFail:    jobFail,
		})
		if err != nil {
			t.Fatalf("soak (jobfail=%v): %v", jobFail, err)
		}
		return res
	}
	all := run(1.0)
	if all.Digest != controlDigest {
		t.Errorf("JobFail=1 digest %s, want %s", all.Digest, controlDigest)
	}
	if all.Stats.JobRetries != all.Stats.Checkpoints || all.Stats.Checkpoints == 0 {
		t.Errorf("JobFail=1: JobRetries %d, want one per checkpoint (%d)", all.Stats.JobRetries, all.Stats.Checkpoints)
	}
	want := run(0.5).Stats.JobRetries
	if want == 0 {
		t.Fatal("JobFail=0.5 never exercised a retry")
	}
	for i := 1; i < 5; i++ {
		if got := run(0.5).Stats.JobRetries; got != want {
			t.Fatalf("JobFail=0.5 run %d: JobRetries %d, want %d as in run 0", i, got, want)
		}
	}

	cfg := testConfig(t, t.TempDir())
	cfg.IdleEvict = time.Minute
	cfg.JobInject = func(int) func() int { return func() int { return 5 } }
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	f.Start()
	defer f.Stop()
	end := deliverSession(t, f, "sato", 0)
	deliverSession(t, f, "kato", 0)
	// sato goes idle and is evicted; kato stays resident and dirty.
	if err := f.Deliver(Event{Household: "sato", At: end + 2*time.Minute, Kind: EventAdvance}); err != nil {
		t.Fatal(err)
	}
	f.Flush()
	st := f.Stats()
	if st.Checkpoints != 2 || st.Evictions != 1 || st.WritebackFailures != 0 {
		t.Fatalf("over-budget injection changed an outcome: %+v", st)
	}
	if budget := ctlRetry().Attempts; st.JobRetries != 2*(budget-1) {
		t.Fatalf("over-budget injection: JobRetries %d, want %d per write", st.JobRetries, budget-1)
	}
}

// failingBackend fails PutStream for selected households — simulating a
// persistent write failure on an eviction writeback.
type failingBackend struct {
	store.Backend
	fail func(name string) bool
}

var errDiskGone = errors.New("injected: disk gone")

func (b *failingBackend) PutStream(name string, fsync bool) (store.BlobWriter, error) {
	if b.fail(name) {
		return nil, errDiskGone
	}
	return b.Backend.PutStream(name, fsync)
}

// TestWritebackFailedSurfaces: a queued eviction writeback that fails
// must resurrect the tenant (no learning lost), count a writeback
// failure, and publish notify.WritebackFailed — the event the cluster
// layer folds into degraded-mode accounting.
func TestWritebackFailedSurfaces(t *testing.T) {
	t.Parallel()
	bus := notify.NewBus()
	failed := bus.Subscribe(16, notify.WritebackFailed)
	broken := true
	cfg := testConfig(t, "")
	cfg.Backend = &failingBackend{
		Backend: store.NewMemBackend(),
		fail:    func(name string) bool { return broken && name == "sato" },
	}
	cfg.IdleEvict = time.Minute
	cfg.Bus = bus
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	f.Start()
	end := deliverSession(t, f, "sato", 0)
	if err := f.Deliver(Event{Household: "sato", At: end + 2*time.Minute, Kind: EventAdvance}); err != nil {
		t.Fatal(err)
	}
	f.Flush()

	st := f.Stats()
	if st.WritebackFailures == 0 {
		t.Fatalf("no writeback failure counted: %+v", st)
	}
	if st.Resident != 1 || st.Evictions != 0 {
		t.Fatalf("tenant not resurrected after failed writeback: %+v", st)
	}
	if st.JobRetries == 0 {
		t.Errorf("failed writeback never retried: %+v", st)
	}
	select {
	case ev := <-failed.C():
		if ev.Household != "sato" || !strings.Contains(ev.Err, "disk gone") {
			t.Errorf("WritebackFailed event %+v", ev)
		}
	default:
		t.Error("no WritebackFailed event on the bus")
	}

	// The disk comes back: the still-resident tenant checkpoints with
	// its learning intact.
	broken = false
	f.Stop()
	var c store.Checkpoint
	if err := store.LoadCheckpoint(cfg.Backend, "sato", &c); err != nil {
		t.Fatalf("no checkpoint after recovery: %v", err)
	}
	if len(c.Policies) == 0 || c.Policies[0].Episodes != 1 {
		t.Errorf("recovered checkpoint lost learning: %+v", c.Policies)
	}
}

// TestSlowSubscriberDoesNotBlockFleet: a bus listener that never drains
// must cost only dropped events — the soak (shard loops publishing from
// their drain paths) still completes.
func TestSlowSubscriberDoesNotBlockFleet(t *testing.T) {
	t.Parallel()
	bus := notify.NewBus()
	_ = bus.Subscribe(1) // all kinds, never read
	res, err := Soak(SoakConfig{
		Seed:       5,
		Households: 32,
		Sessions:   3,
		Shards:     4,
		Dir:        t.TempDir(),
		Bus:        bus,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Events == 0 {
		t.Fatal("soak delivered nothing")
	}
	if st := bus.Stats(); st.Dropped == 0 {
		t.Fatalf("slow subscriber not exercised: %+v", st)
	}
}

// TestBusEventStream: a drained subscriber sees the fleet's checkpoint
// waves and writeback failures, with counts consistent with the fleet's
// own stats, and no other kind.
func TestBusEventStream(t *testing.T) {
	t.Parallel()
	bus := notify.NewBus()
	l := bus.Subscribe(4096)
	counts := make(map[notify.Kind]int)
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		for ev := range l.C() {
			counts[ev.Kind]++
		}
	}()
	res, err := Soak(SoakConfig{
		Seed:       5,
		Households: 32,
		Sessions:   4,
		Shards:     2,
		Dir:        t.TempDir(),
		Bus:        bus,
	})
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	<-drained
	if bus.Stats().Dropped != 0 {
		t.Fatalf("buffer too small, events dropped: %+v", bus.Stats())
	}
	// Every wave writes at least one file.
	if waves := counts[notify.CheckpointDone]; waves == 0 || waves > res.Stats.Checkpoints {
		t.Errorf("%d CheckpointDone waves for %d checkpoints", waves, res.Stats.Checkpoints)
	}
	if counts[notify.WritebackFailed] != res.Stats.WritebackFailures {
		t.Errorf("%d WritebackFailed events, stats say %d", counts[notify.WritebackFailed], res.Stats.WritebackFailures)
	}
	for k, n := range counts {
		if k != notify.CheckpointDone && k != notify.WritebackFailed {
			t.Errorf("fleet published %d %v events", n, k)
		}
	}
}
