package fleet

import (
	"fmt"
	"sort"
	"testing"
	"time"
)

// sweepAdvance is the reference the due-time index is tested against:
// the exhaustive advance that pumps every resident tenant, in lexical
// household order, on every tick, whether or not it has due work. It is
// the shard's advanceAll with the index lookup replaced by a full walk,
// so the tick floor bookkeeping (tickSeq/tickAt) is kept identical. ids
// is reusable scratch (nil is fine); the grown slice is returned.
func sweepAdvance(s *shard, to time.Duration, ids []string) []string {
	s.tickSeq++
	if to > s.tickAt {
		s.tickAt = to
	}
	ids = ids[:0]
	for id := range s.tenants {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		t := s.tenants[id]
		if to > t.Sched.Now() {
			t.Sched.RunUntil(to)
		}
		if !s.maybeEvict(t) {
			s.refreshDue(t)
		}
	}
	return ids
}

// tick is one shard-wide clock pump to `to`: the production indexed
// advance, or — sweep set — the sweep reference, run on every shard loop
// as a control closure. Neither waits for the ticks to be dispatched.
func tick(f *Fleet, to time.Duration, sweep bool) {
	if !sweep {
		f.Advance(to)
		return
	}
	for _, s := range f.shards {
		s.in <- msg{fn: func(s *shard) { sweepAdvance(s, to, nil) }}
	}
}

// runAdvanceWorkload drives a fleet whose clock is pumped exclusively
// through Fleet.Advance ticks — the serving-layer pattern — over the
// soak's household streams, and returns the checkpoint digest. Sessions
// are delivered in rounds (session k of every household, round-robin)
// with a shard-wide tick after each round, and a final tick past the
// idle deadline so every tenant is evicted through the advance path
// rather than through Stop.
func runAdvanceWorkload(t *testing.T, shards int, sweep bool) (string, Stats) {
	t.Helper()
	cfg := testConfig(t, t.TempDir())
	cfg.Shards = shards
	cfg.IdleEvict = 10 * time.Minute

	const households = 12
	scfg := SoakConfig{Seed: 5, Sessions: 4, IdleEvict: cfg.IdleEvict}
	streams := make([][][]Event, households)
	rounds := 0
	for i := range streams {
		streams[i] = SoakSessions(scfg, SoakHousehold(i))
		if len(streams[i]) > rounds {
			rounds = len(streams[i])
		}
	}

	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	f.Start()
	var tmax time.Duration
	for k := 0; k < rounds; k++ {
		for _, sessions := range streams {
			if k >= len(sessions) {
				continue
			}
			for _, ev := range sessions[k] {
				if err := f.Deliver(ev); err != nil {
					t.Fatal(err)
				}
				if ev.At > tmax {
					tmax = ev.At
				}
			}
		}
		// Tick to the high-water mark of everything delivered so far:
		// non-decreasing, exactly like a serving pump on a monotone clock.
		tick(f, tmax, sweep)
		f.Stats() // barrier: the ticks have been dispatched
	}
	// Final ticks march every tenant past the idle deadline, so eviction
	// (and its queued writeback) happens through the advance path. Two
	// half-steps make the second tick a no-op for the indexed advance —
	// the due index must be empty once everyone is evicted.
	tmax += cfg.IdleEvict/2 + time.Second
	tick(f, tmax, sweep)
	tmax += cfg.IdleEvict/2 + time.Second
	tick(f, tmax, sweep)
	st := f.Stats()
	f.Stop()

	digest, err := Digest(cfg.Backend)
	if err != nil {
		t.Fatal(err)
	}
	return digest, st
}

// TestAdvanceParity is the indexed-vs-sweep determinism gate: the
// due-time index must produce byte-identical checkpoint digests to the
// exhaustive per-tick sweep reference, at 1, 4 and 8 shards. It also checks the
// workload actually exercised the advance path: every household was
// evicted by the final ticks, not by Stop's flush.
func TestAdvanceParity(t *testing.T) {
	var want string
	for _, shards := range []int{1, 4, 8} {
		for _, sweep := range []bool{false, true} {
			name := fmt.Sprintf("shards=%d/sweep=%v", shards, sweep)
			digest, st := runAdvanceWorkload(t, shards, sweep)
			if st.Evictions < 12 {
				t.Errorf("%s: %d evictions, want >= 12 (ticks did not drive eviction)", name, st.Evictions)
			}
			if st.Resident != 0 {
				t.Errorf("%s: %d tenants resident after final tick, want 0", name, st.Resident)
			}
			if want == "" {
				want = digest
				continue
			}
			if digest != want {
				t.Errorf("%s: digest %s, want %s (diverges from shards=1/indexed)", name, digest, want)
			}
		}
	}
}

// TestLateEventAfterTickParity pins the tick-floor semantics: an event
// stamped earlier than a tick that preceded it on the shard queue is
// processed at the tick time by both the indexed advance and the sweep. Without the lazy
// floor the indexed path — which never touches a no-due-work tenant —
// would process the event at its stale stamp, date lastEvent a tick
// earlier than the sweep does, and evict the tenant on a tick where the
// sweep keeps it resident.
func TestLateEventAfterTickParity(t *testing.T) {
	for _, sweep := range []bool{false, true} {
		cfg := testConfig(t, t.TempDir())
		cfg.Shards = 1
		cfg.IdleEvict = 10 * time.Minute
		f, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		f.Start()
		// A full session ends with the tenant inactive but holding one
		// trailing timer a little past the session end; a tick landing
		// before it finds the tenant with no due work, so the indexed
		// path skips it while the sweep raises its clock.
		now := deliverSession(t, f, "late", 0)
		tick(f, now+10*time.Second, sweep)
		// A late-stamped liveness event (stamped before the tick, legal:
		// per-household times are still non-decreasing). The sweep
		// processes — and dates lastEvent — at the tick, now+10s; the
		// floor must make the untouched indexed tenant do the same, not
		// use the stale now+5s stamp.
		if err := f.Deliver(Event{Household: "late", At: now + 5*time.Second, Kind: EventNodeState, Online: true}); err != nil {
			t.Fatal(err)
		}
		// IdleEvict+1s past the stale stamp but 5s short of it from the
		// floored one: the tenant must survive this tick in both modes.
		tick(f, now+5*time.Second+cfg.IdleEvict+time.Second, sweep)
		st := f.Stats()
		if st.Resident != 1 || st.Evictions != 0 {
			t.Errorf("sweep=%v: resident=%d evictions=%d after tick, want 1/0 (late event was not floored to the tick time)", sweep, st.Resident, st.Evictions)
		}
		f.Stop()
	}
}

// TestDueHeap unit-tests the intrusive due-time heap: push/pop ordering
// by (dueAt, ID), positional removal, reposition via refresh-style key
// changes, and the dueIdx bookkeeping invariant after every operation.
func TestDueHeap(t *testing.T) {
	s := &shard{}
	mk := func(id string, at time.Duration) *Tenant {
		return &Tenant{ID: id, dueAt: at, dueIdx: -1}
	}
	validate := func(stage string) {
		t.Helper()
		for i, tn := range s.due {
			if int(tn.dueIdx) != i {
				t.Fatalf("%s: due[%d].dueIdx = %d", stage, i, tn.dueIdx)
			}
			if i > 0 {
				parent := s.due[(i-1)/2]
				if dueLess(tn, parent) {
					t.Fatalf("%s: heap violated at %d: %s/%v under %s/%v", stage, i, tn.ID, tn.dueAt, parent.ID, parent.dueAt)
				}
			}
		}
	}

	// Ties on dueAt break by ID.
	a := mk("a", 5*time.Second)
	b := mk("b", 5*time.Second)
	c := mk("c", time.Second)
	d := mk("d", 9*time.Second)
	e := mk("e", 3*time.Second)
	for _, tn := range []*Tenant{d, b, a, e, c} {
		s.duePush(tn)
		validate("push")
	}
	if got := s.duePop(); got != c {
		t.Fatalf("pop 1 = %s", got.ID)
	}
	validate("pop")

	// Remove from the middle; the displaced element must be re-sifted.
	s.dueRemove(b)
	validate("remove")
	if b.dueIdx != -1 {
		t.Fatalf("removed tenant dueIdx = %d", b.dueIdx)
	}
	s.dueRemove(b) // double remove is a no-op
	validate("double remove")

	// Reposition: move the max to the front via a key change.
	d.dueAt = time.Millisecond
	s.dueFix(int(d.dueIdx))
	validate("fix")
	want := []string{"d", "e", "a"}
	for _, id := range want {
		got := s.duePop()
		validate("drain")
		if got.ID != id {
			t.Fatalf("drain order: got %s, want %s", got.ID, id)
		}
	}
	if len(s.due) != 0 {
		t.Fatalf("%d tenants left in heap", len(s.due))
	}
}
