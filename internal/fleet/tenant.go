package fleet

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"coreda"
	"coreda/internal/adl"
	"coreda/internal/rl"
	"coreda/internal/sim"
	"coreda/internal/store"
)

// Tenant is one resident household: a full CoReDA stack on its own
// virtual clock. It is owned by its shard's loop goroutine — fleet users
// only touch a Tenant inside Fleet.Do.
//
// The stack is held by value: a resident household is one allocation,
// plus its Q-table's slices and two small callback closures. A Tenant
// must not be copied.
type Tenant struct {
	// ID is the household ID; it doubles as the tenant's checkpoint
	// blob name in the fleet's storage backend.
	ID string

	// The shard loop's own fields come next, so that they share the
	// block's first cache line with ID: the due-time index compares
	// (dueAt, ID) on every sift without touching the stack behind them.

	// act is the household's activity and its encoded routine, shared
	// read-only with every tenant that runs an equal activity.
	act *sharedActivity
	// lastEvent is the virtual time of the last delivered event; the
	// idle-eviction clock measures from here.
	lastEvent time.Duration
	// dueAt/dueIdx are the tenant's slot in its shard's due-time index
	// (shard.due): dueAt is the earliest virtual time at which the tenant
	// has work — its next scheduler timer or its idle-eviction deadline —
	// and dueIdx is its position in the intrusive min-heap, -1 when the
	// tenant has no due work and is absent from the index. Owned by the
	// shard loop, like everything else here.
	dueAt  time.Duration
	dueIdx int32
	// tickSeq is the shard's tick count at this tenant's admission: ticks
	// up to it predate the tenant and are excluded from the clock floor
	// handle applies (see shard.tickSeq/tickAt).
	tickSeq uint64

	// Sched is the tenant's private virtual clock. All of the tenant's
	// timers (idle watchdogs, reminder escalation) live here, which is
	// what makes its behaviour independent of shard count and load.
	Sched sim.Scheduler
	// Hub routes the household's gateway traffic by tool.
	Hub coreda.Hub
	// System is the stack for the household's instrumented activity.
	System coreda.System
}

// recovery says how a tenant came up.
type recovery int

const (
	// recoveredFresh: no checkpoint in the backend, blank policy.
	recoveredFresh recovery = iota
	// recoveredCheckpoint: learned policy restored from the blob.
	recoveredCheckpoint
	// recoveredError: a checkpoint existed but was unusable (see
	// Tenant.restore); the tenant started fresh.
	recoveredError
)

// sharedActivity is one activity together with what is derived from it
// alone: its canonical routine in on-disk form. Routines never change
// after admission, so incremental checkpoints reuse the encoding instead
// of re-encoding per save.
type sharedActivity struct {
	activity *coreda.Activity
	enc      store.EncodedRoutines
}

func newSharedActivity(a *coreda.Activity) *sharedActivity {
	return &sharedActivity{
		activity: a,
		enc:      store.EncodeRoutines([]adl.Routine{a.CanonicalRoutine()}),
	}
}

// activityTable interns the activities a fleet's households run, one
// entry per activity name. Every household usually runs the same
// activity, yet Config.NewSystem may build a fresh copy for each; the
// table lets all of them share one copy and one encoded routine.
//
// Interned activities are read-only: tenants on every shard read them
// concurrently, and nothing may write to one after it is interned.
type activityTable struct {
	mu     sync.Mutex
	byName map[string]*sharedActivity
}

// intern returns the shared entry for a. The same pointer or an equal
// activity gets the interned entry; the first activity seen under a name
// is validated and becomes that entry. A same-named activity with
// different content is not interned: it gets a private entry, so the
// household keeps its own activity and its own encoding. Entries never
// change once added, so they are compared and encoded outside the lock.
func (t *activityTable) intern(a *coreda.Activity) (*sharedActivity, error) {
	t.mu.Lock()
	e, ok := t.byName[a.Name]
	t.mu.Unlock()
	if !ok {
		if err := a.Validate(); err != nil {
			return nil, err
		}
		e = t.add(newSharedActivity(a))
	}
	if e.activity.Equal(a) { // pointer-equal activities return at once
		return e, nil
	}
	return newSharedActivity(a), nil
}

// add interns e unless its name is taken (another shard interned the
// name first) and returns the table's entry for the name.
func (t *activityTable) add(e *sharedActivity) *sharedActivity {
	t.mu.Lock()
	defer t.mu.Unlock()
	if prev, ok := t.byName[e.activity.Name]; ok {
		return prev
	}
	if t.byName == nil {
		t.byName = make(map[string]*sharedActivity)
	}
	t.byName[e.activity.Name] = e
	return e
}

// newTenant builds the household stack, in one block, on the activity
// interned in acts. The stack starts fresh; see restore.
func newTenant(id string, cfg coreda.SystemConfig, acts *activityTable) (*Tenant, error) {
	if cfg.Activity == nil {
		return nil, fmt.Errorf("fleet: NewSystem config for %q has no activity", id)
	}
	act, err := acts.intern(cfg.Activity)
	if err != nil {
		return nil, err
	}
	cfg.Activity = act.activity
	t := &Tenant{ID: id, act: act, dueIdx: -1}
	t.Hub.Init(&t.Sched)
	if err := t.Hub.AddInto(&t.System, cfg); err != nil {
		return nil, err
	}
	return t, nil
}

// restore brings a new tenant's policy back from its checkpoint in the
// backend, decoding it into c, the shard's reused scratch, and reports
// how the tenant came up. With recoveredError the error says why the
// checkpoint was unusable; the tenant then runs fresh.
func (t *Tenant) restore(b store.Backend, c *store.Checkpoint) (recovery, error) {
	switch err := t.load(b, c); {
	case err == nil:
		return recoveredCheckpoint, nil
	case errors.Is(err, store.ErrNoCheckpoint):
		// No generation of the blob exists: a genuine fresh start, not a
		// recovery failure. Folding this into the load saves the
		// stat-per-admission probe the old existence check cost.
		return recoveredFresh, nil
	default:
		return recoveredError, err
	}
}

// load restores the learned policy and training progress from a
// checkpoint written by save. It decodes into c, the shard's reused
// scratch, and Planner.RestoreCheckpoint copies the Q-values out into
// the planner's own table, so nothing of c outlives the call.
func (t *Tenant) load(b store.Backend, c *store.Checkpoint) error {
	if err := store.LoadCheckpoint(b, t.ID, c); err != nil {
		return err
	}
	if c.Activity != t.act.activity.Name {
		return fmt.Errorf("fleet: checkpoint %s is for activity %q, tenant runs %q", t.ID, c.Activity, t.act.activity.Name)
	}
	if len(c.Policies) != 1 {
		return fmt.Errorf("fleet: checkpoint %s has %d policies, want 1", t.ID, len(c.Policies))
	}
	if err := t.System.Planner().RestoreCheckpoint(&c.Policies[0]); err != nil {
		return fmt.Errorf("fleet: checkpoint %s: %w", t.ID, err)
	}
	return nil
}

// saver is one checkpoint writer's reusable state: the encode buffers
// and the one-element argument slices a tenant's save hands to them, so
// a checkpoint allocates neither. A shard keeps one for its loop
// goroutine and one per wave writer; tenants keep none.
type saver struct {
	ms     store.MultiSaver
	tables [1]*rl.QTable
	states [1]store.TrainState
}

// save checkpoints the learned policy — Q-values plus the annealing
// state — through the backend's crash-safe rotation, reusing the
// writer's buffers and the tenant's cached routine encoding. fsync is
// false for incremental checkpoints and true for final flushes (see
// store.MultiSaver.Save).
func (t *Tenant) save(b store.Backend, sv *saver, fsync bool) error {
	p := t.System.Planner()
	sv.tables[0] = p.Table()
	sv.states[0] = store.TrainState{Episodes: p.Episodes, Epsilon: p.Epsilon()}
	err := sv.ms.Save(b, t.ID, t.ID, t.act.activity.Name, t.act.enc, sv.tables[:], sv.states[:], fsync)
	sv.tables[0] = nil // the writer outlives the tenant
	return err
}
