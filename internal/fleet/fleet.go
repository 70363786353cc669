// Package fleet is CoReDA's multi-tenant serving runtime: it multiplexes
// many households — each a full Hub + sim.Scheduler + learned policies —
// across a fixed pool of shard event loops, so one process serves
// thousands of homes instead of one.
//
// Concurrency model: households are hashed onto shards (ShardOf), and
// each shard runs exactly one goroutine that owns every tenant resident
// on it. A tenant therefore stays single-threaded, exactly as the
// Hub/System contract requires; the shard loop is the only place its
// scheduler is pumped. Tenants share no state, so a tenant's learned
// policy depends only on its own event sequence — which is why per-tenant
// policy files are byte-identical at any shard count (the repo's
// signature determinism guarantee, gated in scripts/check.sh).
//
// Tenants are admitted lazily: the first event for an unknown household
// builds its stack and, if a checkpoint blob exists in the storage
// backend (Config.Backend), restores the learned policy from it (crash
// recovery and idle-eviction recovery share this path). Idle tenants
// are evicted with a final checkpoint; periodic batch checkpointing
// streams every dirty tenant of a shard through the backend's atomic,
// generation-rotating writes.
//
// Like parrun for the experiments layer, fleet is a sanctioned
// concurrency boundary of the otherwise single-threaded simulation
// stack; everything a shard loop calls into obeys the single-threaded
// rule.
package fleet

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"coreda"
	"coreda/internal/notify"
	"coreda/internal/parrun"
	"coreda/internal/reminding"
	"coreda/internal/retry"
	"coreda/internal/sim"
	"coreda/internal/store"
	"coreda/internal/wire"
)

// ctlRetry is the checkpoint-write retry schedule: three attempts with
// a sub-millisecond backoff, enough to ride out transient filesystem
// hiccups without stretching a wave.
func ctlRetry() retry.Policy {
	return retry.Policy{Attempts: 3, Base: 250 * time.Microsecond, Cap: time.Millisecond, Jitter: 0.5}
}

// errInjected is the error a chaos-injected write attempt fails with.
var errInjected = errors.New("fleet: injected fault")

// Config parameterizes a Fleet.
type Config struct {
	// Shards is the number of shard event loops (and goroutines)
	// households are hashed across. Zero means runtime.GOMAXPROCS(0).
	Shards int
	// Backend is where checkpoints live, one blob per household (for a
	// directory of <household>.ckpt files, store.NewDirBackend).
	// Required.
	Backend store.Backend
	// NewSystem builds the system configuration for a household admitted
	// for the first time (or re-admitted after eviction). Required. The
	// returned config's Seed should be derived from the household ID
	// (see SeedFor) so every tenant learns on its own random stream.
	NewSystem func(household string) (coreda.SystemConfig, error)
	// LEDs, if non-nil, supplies the reminder-LED sink for each admitted
	// household (the serving layer wires node connections through this).
	// A non-nil SystemConfig.LEDs from NewSystem wins.
	LEDs func(household string) reminding.LEDs
	// IdleEvict evicts a tenant whose virtual clock has advanced this
	// far past its last event, checkpointing it first. Eviction is
	// driven purely by the tenant's own virtual time, so it happens
	// identically at any shard count. Zero disables eviction.
	IdleEvict time.Duration
	// OnLog receives human-readable event lines; may be nil. It is
	// called concurrently from the shard loops (and from a Server's
	// goroutines), each on the goroutine that logs, so it must be safe
	// for concurrent use; a slow sink delays only that goroutine.
	OnLog func(string)
	// Bus, if non-nil, receives control-plane events
	// (notify.CheckpointDone, WritebackFailed). Publishing never blocks
	// a shard loop; correctness never depends on delivery.
	Bus *notify.Bus
	// JobInject, if non-nil, supplies each shard's chaos injection hook
	// for checkpoint writes (see chaos.Plan.JobInjector). The hook is
	// called once per write of a wave, in wave order on the shard loop,
	// and returns how many of the write's first attempts fail; the count
	// is capped below the retry budget, so injection moves only
	// Stats.JobRetries, never an outcome.
	JobInject func(shard int) func() int
}

// EventKind says what a fleet event carries.
type EventKind int

// Event kinds.
const (
	// EventUsage is a tool-usage report for a household.
	EventUsage EventKind = iota + 1
	// EventNodeState is a node-liveness transition for a household tool.
	EventNodeState
	// EventAdvance only advances the household's virtual clock (firing
	// due timers, and the idle-eviction check) without delivering
	// traffic.
	EventAdvance
)

// Event is one unit of tenant traffic, routed to the owning shard.
type Event struct {
	// Household is the tenant the event belongs to.
	Household string
	// At is the event time on the household's virtual clock. Times must
	// be non-decreasing per household.
	At time.Duration
	// Kind selects which of the fields below is meaningful.
	Kind EventKind
	// Usage is the usage event (EventUsage). Its At field is overwritten
	// with the event's At.
	Usage coreda.UsageEvent
	// Tool and Online describe a node transition (EventNodeState).
	Tool   coreda.ToolID
	Online bool
}

// Stats aggregates fleet counters across shards.
type Stats struct {
	// Events counts usage events delivered to tenants.
	Events int
	// NodeStates counts node-liveness transitions delivered.
	NodeStates int
	// Admissions counts tenant spin-ups (first events and re-admissions
	// after eviction); Recovered counts the admissions that restored a
	// checkpoint file.
	Admissions int
	Recovered  int
	// Evictions counts idle tenants checkpointed and released.
	Evictions int
	// Checkpoints counts policy files written (evictions included).
	Checkpoints int
	// RecoveryErrors counts admissions whose checkpoint file (and its
	// backup) was unreadable; the tenant started fresh instead.
	RecoveryErrors int
	// Resident is the number of tenants in memory at snapshot time.
	Resident int
	// Dropped counts events discarded because their household ID was
	// invalid or admission failed.
	Dropped int
	// WritebackFailures counts eviction writebacks that failed after
	// retries; each resurrected its tenant and published a
	// notify.WritebackFailed event.
	WritebackFailures int
	// JobRetries counts extra checkpoint-write attempts beyond the first
	// (real failures plus chaos-injected ones).
	JobRetries int
}

func (s *Stats) add(o Stats) {
	s.Events += o.Events
	s.NodeStates += o.NodeStates
	s.Admissions += o.Admissions
	s.Recovered += o.Recovered
	s.Evictions += o.Evictions
	s.Checkpoints += o.Checkpoints
	s.RecoveryErrors += o.RecoveryErrors
	s.Resident += o.Resident
	s.Dropped += o.Dropped
	s.WritebackFailures += o.WritebackFailures
	s.JobRetries += o.JobRetries
}

// Fleet lifecycle states (Fleet.state).
const (
	fleetBuilt uint32 = iota
	fleetStarted
	fleetStopped
)

// Fleet is the sharded household runtime. Build with New, call Start,
// route traffic with Deliver, and Stop to drain and checkpoint.
type Fleet struct {
	cfg    Config
	shards []*shard
	// acts interns the households' activities (see activityTable).
	acts activityTable

	// state is the lifecycle flag, atomic so the per-event Deliver fast
	// path does not serialize every caller through a mutex. A caller that
	// read fleetStarted may still meet a shard loop a concurrent Stop has
	// ended; shard.send and shard.await turn that into errNotRunning.
	state atomic.Uint32
}

// msg is one shard-loop work item: an event, or a control closure (Do,
// flush, stop) run on the loop goroutine where tenants may be touched.
type msg struct {
	ev Event
	fn func(*shard)
}

// shard is one event loop and the tenants resident on it. All fields are
// owned by the loop goroutine after Start.
type shard struct {
	f       *Fleet
	idx     int
	in      chan msg
	done    chan struct{}
	quit    bool
	tenants map[string]*Tenant
	stats   Stats

	// dirty is the set of tenants with events since their last
	// checkpoint: batch checkpoints serialize only these households
	// instead of sweeping every resident. Invariant: a tenant is in dirty
	// iff its on-disk policy is behind its in-memory one.
	dirty map[string]*Tenant
	// flushIDs is the reusable scratch for writeWave's deterministic
	// (sorted) checkpoint order.
	flushIDs []string
	// due is the due-time tenant index: an intrusive min-heap over the
	// resident tenants that have any due work coming — a pending
	// scheduler timer, or an idle-eviction deadline — keyed by
	// (Tenant.dueAt, Tenant.ID). Tenants with neither (idle households
	// with eviction disabled, or fully quiesced) are simply absent, so
	// an advance tick never touches them. Maintained on admit, deliver,
	// Do, eviction and resurrection via refreshDue/dueRemove.
	due []*Tenant
	// tickSeq/tickAt record the shard-wide clock pumps: tickSeq counts
	// them and tickAt is the latest pump time. Together with
	// Tenant.tickSeq (the count snapshotted at admission) they give the
	// indexed advance the exact clock semantics of a full sweep (the
	// reference it is tested against) lazily: a sweep raises every
	// resident tenant's clock to the tick time, so an event stamped
	// earlier than a tick that preceded it on the shard queue is
	// processed at the tick time; the indexed advance leaves idle
	// tenants untouched and instead applies tickAt as a floor in handle
	// — but only for tenants admitted before the tick, because a sweep
	// never advanced tenants admitted after it.
	tickSeq uint64
	tickAt  time.Duration
	// evictq holds tenants already removed from the resident map whose
	// final checkpoint write is still pending: eviction writes are
	// batched at drain-batch boundaries (writeWave) so a sweep of
	// idle tenants pays one parallel write wave instead of one blocking
	// file rotation per event.
	evictq []*Tenant
	// saver holds the reusable checkpoint encode state of the loop
	// goroutine's own write (evictNow's fsynced checkpoint).
	saver saver
	// ckpt is admission's decode scratch: every checkpoint this shard
	// restores is decoded into it, reusing its slices (see Tenant.load).
	ckpt store.Checkpoint
	// free holds one saver per wave writer; a write checks a saver out
	// for its attempts and returns it before the wave completes, so the
	// pool is full between waves.
	free chan *saver
	// wave is the reusable scratch of writeWave's writes.
	wave []waveWrite
	// inject is the chaos hook from Config.JobInject (nil injects
	// nothing).
	inject func() int
}

// waveWrite is one checkpoint write of a wave.
type waveWrite struct {
	t     *Tenant
	evict bool // the tenant's final write before eviction
	// failN is how many of the first attempts chaos injection fails,
	// already capped below the retry budget.
	failN int
	// attempts is how many attempts the write took; a writer goroutine
	// sets it and the loop reads it after the wave.
	attempts int
}

// flushWriters is how many checkpoint files a batch flush writes
// concurrently. The work is blocking file I/O (create, write, fsync,
// rename), so overlapping it pays even on a single CPU.
const flushWriters = 8

// maxBatch bounds how many work items a shard loop dispatches before it
// writes the pending evictions. Without the cap a sustained
// producer would keep the drain loop spinning and defer queued eviction
// checkpoints indefinitely.
const maxBatch = 128

// New validates the configuration and builds the shard pool.
func New(cfg Config) (*Fleet, error) {
	if cfg.Shards <= 0 {
		cfg.Shards = runtime.GOMAXPROCS(0)
	}
	if cfg.NewSystem == nil {
		return nil, fmt.Errorf("fleet: Config.NewSystem is required")
	}
	if cfg.Backend == nil {
		return nil, fmt.Errorf("fleet: Config.Backend is required")
	}
	f := &Fleet{cfg: cfg}
	for i := 0; i < cfg.Shards; i++ {
		s := &shard{
			f:       f,
			idx:     i,
			in:      make(chan msg, 256),
			done:    make(chan struct{}),
			tenants: make(map[string]*Tenant),
			dirty:   make(map[string]*Tenant),
			free:    make(chan *saver, flushWriters),
		}
		if cfg.JobInject != nil {
			s.inject = cfg.JobInject(i)
		}
		for w := 0; w < flushWriters; w++ {
			s.free <- new(saver)
		}
		f.shards = append(f.shards, s)
	}
	return f, nil
}

// Shards returns the shard count households are hashed across.
func (f *Fleet) Shards() int { return len(f.shards) }

// Start spawns the shard event loops.
func (f *Fleet) Start() {
	if !f.state.CompareAndSwap(fleetBuilt, fleetStarted) {
		return
	}
	for _, s := range f.shards {
		go s.run()
	}
}

// errNotRunning is the error of a shard call outside Start..Stop.
var errNotRunning = errors.New("fleet: not running")

// route returns the shard owning household, or why the fleet cannot
// take work for it: an invalid household ID, or a fleet not running.
func (f *Fleet) route(household string) (*shard, error) {
	if !ValidHousehold(household) {
		return nil, fmt.Errorf("fleet: invalid household ID %q", household)
	}
	if f.state.Load() != fleetStarted {
		return nil, errNotRunning
	}
	return f.shards[ShardOf(household, len(f.shards))], nil
}

// call runs fn on the household's shard loop and waits for its result.
func (f *Fleet) call(household string, fn func(*shard) error) error {
	s, err := f.route(household)
	if err != nil {
		return err
	}
	return s.await(s.post(fn))
}

// post sends fn to the shard loop and returns the channel its result
// arrives on; see await. A loop that has quit gets nothing, and the
// channel holds errNotRunning at once.
func (s *shard) post(fn func(*shard) error) <-chan error {
	res := make(chan error, 1)
	if !s.send(msg{fn: func(s *shard) { res <- fn(s) }}) {
		res <- errNotRunning
	}
	return res
}

// send queues m for the shard loop, blocking while the queue is full
// (backpressure). It reports false when the loop has quit: a Stop that
// lands between a caller's lifecycle check and its send leaves a queue
// nothing drains, so a blocked sender must give up rather than wait
// forever. A message queued just as the loop quits is never run; a call
// learns that from await.
func (s *shard) send(m msg) bool {
	select {
	case s.in <- m:
		return true
	default:
	}
	select {
	case s.in <- m:
		return true
	case <-s.done:
		return false
	}
}

// await waits for the result of a closure posted to the shard. A loop
// that quit without running the closure never replies: await then
// returns errNotRunning.
func (s *shard) await(res <-chan error) error {
	select {
	case err := <-res:
		return err
	case <-s.done:
		// The loop may have replied just before quitting.
		select {
		case err := <-res:
			return err
		default:
			return errNotRunning
		}
	}
}

// Deliver routes one event to its household's shard, blocking while the
// shard's queue is full (backpressure). Events for the same household
// must come from one goroutine (or be externally ordered); their At
// values must be non-decreasing.
func (f *Fleet) Deliver(ev Event) error {
	s, err := f.route(ev.Household)
	if err != nil {
		return err
	}
	if !s.send(msg{ev: ev}) {
		return errNotRunning
	}
	return nil
}

// Do runs fn on the household's shard loop, admitting the tenant if it
// is not resident, and waits for it to finish. The tenant must not be
// retained after fn returns.
func (f *Fleet) Do(household string, fn func(*Tenant) error) error {
	return f.call(household, func(s *shard) error {
		t, err := s.admit(household)
		if err != nil {
			return err
		}
		err = fn(t)
		// fn may have armed or cancelled timers (started a session, say):
		// recompute the tenant's slot in the due-time index.
		s.refreshDue(t)
		return err
	})
}

// EvictNow forces one resident tenant out immediately: it writes the
// tenant's final checkpoint with an fsync, then releases the tenant, so
// its next event re-admits it from that checkpoint. A household that is
// not resident is a no-op (its checkpoint, if any, is already on disk).
func (f *Fleet) EvictNow(household string) error {
	return f.call(household, func(s *shard) error { return s.evictNow(household) })
}

// evictNow force-evicts one household on the loop goroutine, fsyncing
// its final checkpoint. It runs as a control closure, after dispatch
// wrote the pending evictions, so a household evicted earlier already
// has its final state on disk.
func (s *shard) evictNow(household string) error {
	t, ok := s.tenants[household]
	if !ok {
		return nil
	}
	if err := t.save(s.f.cfg.Backend, &s.saver, true); err != nil {
		return err
	}
	delete(s.dirty, household)
	s.stats.Checkpoints++
	s.publishCheckpointDone(1)
	delete(s.tenants, household)
	s.dueRemove(t)
	s.stats.Evictions++
	if s.f.cfg.OnLog != nil {
		s.f.log("shard %d: evicted %s (forced, fsynced)", s.idx, household)
	}
	return nil
}

// barrier runs fn on every shard loop and waits for all of them. It
// returns errNotRunning when a loop quit (a concurrent Stop) without
// running fn.
func (f *Fleet) barrier(fn func(*shard)) error {
	res := make([]<-chan error, len(f.shards))
	for i, s := range f.shards {
		res[i] = s.post(func(s *shard) error {
			fn(s)
			return nil
		})
	}
	var err error
	for i, s := range f.shards {
		if e := s.await(res[i]); e != nil {
			err = e
		}
	}
	return err
}

// Advance asks every shard to move its due tenants' virtual clocks to
// at least to, firing due timers and the idle-eviction check — the
// external clock pump, for serving layers (and idle benchmarks) driving
// the fleet off their own wall or virtual clock. It does not wait for
// the ticks to be processed; a Stats call is a barrier if the caller
// needs one. to values should be non-decreasing, and events delivered
// after an Advance should not be stamped before it (a monotone source
// clock gives both for free).
func (f *Fleet) Advance(to time.Duration) error {
	if f.state.Load() != fleetStarted {
		return errNotRunning
	}
	// The tick is a household-less EventAdvance message rather than a
	// control closure, so a pump tick allocates nothing (a closure would
	// heap-allocate its captured deadline).
	for _, s := range f.shards {
		if !s.send(msg{ev: Event{Kind: EventAdvance, At: to}}) {
			return errNotRunning
		}
	}
	return nil
}

// Flush checkpoints every dirty tenant on every shard (batch per-shard
// checkpointing) and waits for the writes to finish. Periodic flushes
// are incremental: only households with events since their last
// checkpoint are serialized, and the files are not fsynced (the atomic
// rename keeps them process-crash-safe; Stop takes the fsynced final
// checkpoint).
func (f *Fleet) Flush() {
	if f.state.Load() != fleetStarted {
		return
	}
	// A Stop racing the flush ends it early (errNotRunning); Stop writes
	// every dirty tenant itself.
	f.barrier(func(s *shard) { s.writeWave(false, true) })
}

// Stats snapshots the aggregated counters (a barrier across shards).
// Once Stop has begun it returns the final counters, after every shard
// loop has quit.
func (f *Fleet) Stats() Stats {
	if f.state.Load() == fleetStarted {
		var (
			mu  sync.Mutex
			out Stats
		)
		err := f.barrier(func(s *shard) {
			st := s.snapshot()
			mu.Lock()
			out.add(st)
			mu.Unlock()
		})
		if err == nil {
			return out
		}
	}
	// Not started, or a Stop is under way: a loop that quit has made its
	// last write to its counters, so each shard is read here once its loop
	// is done.
	if f.state.Load() == fleetStopped {
		for _, s := range f.shards {
			<-s.done
		}
	}
	var out Stats
	for _, s := range f.shards {
		out.add(s.snapshot())
	}
	return out
}

// snapshot is one shard's counter view.
func (s *shard) snapshot() Stats {
	st := s.stats
	st.Resident = len(s.tenants)
	return st
}

// Stop drains every shard, checkpoints all remaining dirty tenants
// (fsynced — the final checkpoint is the durable one), and joins the
// loops. Deliver/Do/Flush fail or no-op afterwards.
func (f *Fleet) Stop() {
	if !f.state.CompareAndSwap(fleetStarted, fleetStopped) {
		return
	}
	// Only this barrier ends a loop, so every loop runs it.
	f.barrier(func(s *shard) {
		s.writeWave(true, true)
		s.quit = true
	})
	for _, s := range f.shards {
		<-s.done
	}
}

// log formats a line for Config.OnLog on the calling goroutine. No
// fleet-wide lock is held across the sink, so a stuck log line stalls
// only the goroutine that logs it. Boxing the arguments allocates even
// when OnLog is nil, so the lines every admission and eviction logs are
// guarded by an OnLog check at the call.
func (f *Fleet) log(format string, args ...any) {
	if f.cfg.OnLog == nil {
		return
	}
	f.cfg.OnLog(fmt.Sprintf(format, args...))
}

// run is the shard event loop: the single goroutine owning this shard's
// tenants. After each blocking receive it drains whatever else is
// already queued (up to maxBatch items) before blocking again, so a
// burst of traffic pays one channel wakeup (and one scheduler round
// trip) instead of one per event. Eviction checkpoints queued during a
// batch are written — in parallel — at the batch boundary.
func (s *shard) run() {
	defer close(s.done)
	for !s.quit {
		s.dispatch(<-s.in)
	drain:
		for n := 1; !s.quit && n < maxBatch; n++ {
			select {
			case m := <-s.in:
				s.dispatch(m)
			default:
				break drain
			}
		}
		s.writeWave(false, false)
	}
}

// dispatch runs one work item on the loop goroutine. Control closures
// (Do, Flush, Stats, Stop) are synchronization points: queued
// eviction writes land before the closure runs, so an observer that
// has been through a barrier also sees the eviction checkpoints on disk.
func (s *shard) dispatch(m msg) {
	if m.fn != nil {
		s.writeWave(false, false)
		m.fn(s)
		return
	}
	if m.ev.Kind == EventAdvance && m.ev.Household == "" {
		// A shard-wide clock-pump tick (Fleet.Advance). Like control
		// closures it is a drain point, so eviction checkpoints cannot be
		// deferred past a tick. Deliver rejects empty households, so the
		// encoding cannot collide with tenant traffic.
		s.writeWave(false, false)
		s.advanceAll(m.ev.At)
		return
	}
	s.handle(m.ev)
}

// handle processes one event on the loop goroutine — the shard ingest
// path every delivered event funnels through.
//
//coreda:hotpath
func (s *shard) handle(ev Event) {
	t, err := s.admit(ev.Household)
	if err != nil {
		s.stats.Dropped++
		s.f.log("shard %d: admit %s: %v", s.idx, ev.Household, err)
		return
	}
	// The tenant clock never goes backwards: a late event is processed
	// at the tenant's current time (same policy as a real gateway, which
	// stamps arrival time). A shard-wide tick that preceded this event on
	// the queue is a floor too — the tenant may not have been touched by
	// the tick (the indexed advance skips non-due tenants), but a full
	// sweep would have raised its clock, and the indexed advance must
	// stay byte-identical to one.
	at := ev.At
	if now := t.Sched.Now(); at < now {
		at = now
	}
	if t.tickSeq != s.tickSeq && at < s.tickAt {
		at = s.tickAt
	}
	t.Sched.RunUntil(at)
	switch ev.Kind {
	case EventUsage:
		u := ev.Usage
		u.At = at
		t.Hub.HandleUsage(u)
		t.lastEvent = at
		s.dirty[t.ID] = t
		s.stats.Events++
	case EventNodeState:
		t.Hub.HandleNodeState(ev.Tool, ev.Online)
		t.lastEvent = at
		s.dirty[t.ID] = t
		s.stats.NodeStates++
	case EventAdvance:
		// Clock only; the eviction check below does the rest.
	}
	if !s.maybeEvict(t) {
		s.refreshDue(t)
	}
}

// admit returns the resident tenant, spinning it up from its checkpoint
// file (or fresh) on first contact.
func (s *shard) admit(household string) (*Tenant, error) {
	if t, ok := s.tenants[household]; ok {
		return t, nil
	}
	for _, t := range s.evictq {
		if t.ID != household {
			continue
		}
		// Its final checkpoint is still pending: write the eviction wave
		// first. A failed write resurrected the tenant; otherwise it is
		// re-admitted below from the file just written.
		s.writeWave(false, false)
		if t, ok := s.tenants[household]; ok {
			return t, nil
		}
		break
	}
	cfg, err := s.f.cfg.NewSystem(household)
	if err != nil {
		return nil, err
	}
	if cfg.LEDs == nil && s.f.cfg.LEDs != nil {
		cfg.LEDs = s.f.cfg.LEDs(household)
	}
	t, err := newTenant(household, cfg, &s.f.acts)
	if err != nil {
		return nil, err
	}
	// The backend alone says whether the household has a checkpoint: a
	// blob written by this fleet, a peer's replica or an operator's copy
	// all restore alike, and a miss means a fresh start.
	recovered, loadErr := t.restore(s.f.cfg.Backend, &s.ckpt)
	s.tenants[household] = t
	// Ticks before admission never applied to this tenant (a sweep only
	// touches residents), so the floor in handle must ignore them.
	t.tickSeq = s.tickSeq
	s.refreshDue(t)
	s.stats.Admissions++
	switch recovered {
	case recoveredCheckpoint:
		s.stats.Recovered++
		if s.f.cfg.OnLog != nil {
			s.f.log("shard %d: admitted %s from checkpoint (%d episodes)", s.idx, household, t.System.Planner().Episodes)
		}
	case recoveredFresh:
		if s.f.cfg.OnLog != nil {
			s.f.log("shard %d: admitted %s fresh", s.idx, household)
		}
	case recoveredError:
		s.stats.RecoveryErrors++
		s.f.log("shard %d: admitted %s fresh (checkpoint unusable: %v)", s.idx, household, loadErr)
	}
	return t, nil
}

// maybeEvict releases a tenant idle past the deadline on its own
// virtual clock, reporting whether it did. Mid-session and degraded
// tenants are kept: a session in flight pins the tenant, and so does an
// offline tool, since a re-admitted tenant would come back with every
// tool online and the server sends each transition only once. The
// eviction decision (and the resident-map removal) is immediate and
// purely virtual-time-driven — identical at any shard count — but the
// final checkpoint write of a dirty tenant is queued and batched at the
// next drain boundary, where a sweep of evictions becomes one parallel
// write wave. The file bytes
// are a pure function of the tenant's state at eviction, so deferring
// the write cannot change any policy file or the parity digest.
func (s *shard) maybeEvict(t *Tenant) bool {
	d := s.f.cfg.IdleEvict
	if d <= 0 || t.System.Active() || t.System.Degraded() {
		return false
	}
	if t.Sched.Now()-t.lastEvent < d {
		return false
	}
	delete(s.tenants, t.ID)
	s.dueRemove(t)
	s.stats.Evictions++
	if _, dirty := s.dirty[t.ID]; dirty {
		// The queued write carries the tenant's final state; dirty
		// membership moves with it.
		delete(s.dirty, t.ID)
		s.evictq = append(s.evictq, t)
		return true
	}
	if s.f.cfg.OnLog != nil {
		s.f.log("shard %d: evicted %s (idle %v)", s.idx, t.ID, t.Sched.Now()-t.lastEvent)
	}
	return true
}

// publishCheckpointDone announces a finished checkpoint wave of n files
// on the bus (no-op when nothing was written or no bus is wired).
func (s *shard) publishCheckpointDone(n int) {
	if n <= 0 {
		return
	}
	if bus := s.f.cfg.Bus; bus != nil {
		bus.Publish(notify.Event{Kind: notify.CheckpointDone, Shard: s.idx})
	}
}

// finishEvict completes one pending eviction after its checkpoint write
// returned. On failure the tenant is resurrected — it never left memory
// — and the failure counts as a writeback failure and is published on
// the bus (notify.WritebackFailed), where coreda-fleet logs it.
func (s *shard) finishEvict(t *Tenant, err error) {
	if err != nil {
		s.f.log("shard %d: evict %s: %v", s.idx, t.ID, err)
		s.tenants[t.ID] = t
		s.dirty[t.ID] = t
		s.refreshDue(t)
		s.stats.Evictions--
		s.stats.WritebackFailures++
		if bus := s.f.cfg.Bus; bus != nil {
			bus.Publish(notify.Event{Kind: notify.WritebackFailed, Household: t.ID, Shard: s.idx, Err: err.Error()})
		}
		return
	}
	s.stats.Checkpoints++
	if s.f.cfg.OnLog != nil {
		s.f.log("shard %d: evicted %s (idle %v)", s.idx, t.ID, t.Sched.Now()-t.lastEvent)
	}
}

// advanceAll pumps due tenants' clocks to `to`, firing their timers and
// the idle-eviction check. The indexed path pops the due-time heap: it
// touches exactly the tenants whose next timer or eviction deadline is
// <= to, in (due, household) order, and never wakes an idle household —
// a tick over a shard of quiesced tenants is a single heap peek.
//
// Termination: a popped tenant is reinserted only via refreshDue, and
// after RunUntil(to) its next timer is > to (RunUntil fires everything
// due, including timers armed by the fired callbacks), while an
// eviction deadline <= to would have evicted it (an Active or Degraded
// tenant has no eviction component at all). So every reinserted due is
// > to and the loop pops each due tenant exactly once per tick.
//
//coreda:hotpath
func (s *shard) advanceAll(to time.Duration) {
	s.tickSeq++
	if to > s.tickAt {
		s.tickAt = to
	}
	for len(s.due) > 0 && s.due[0].dueAt <= to {
		t := s.duePop()
		if to > t.Sched.Now() {
			t.Sched.RunUntil(to)
		}
		if !s.maybeEvict(t) {
			s.refreshDue(t)
		}
	}
}

// tenantDue computes the earliest virtual time at which t has work a
// clock pump must deliver: its next scheduler timer, or — when idle
// eviction is on and no session or offline tool pins it — its
// idle-eviction deadline.
// ok is false when the tenant has neither, i.e. it can sleep forever
// until external traffic arrives.
//
//coreda:hotpath
func (s *shard) tenantDue(t *Tenant) (time.Duration, bool) {
	next, ok := t.Sched.NextDue()
	if d := s.f.cfg.IdleEvict; d > 0 && !t.System.Active() && !t.System.Degraded() {
		if ev := t.lastEvent + d; !ok || ev < next {
			next, ok = ev, true
		}
	}
	return next, ok
}

// refreshDue recomputes t's due time and moves it to the right place in
// the shard's due-time index — inserting, repositioning or removing it.
// Called after anything that can change a tenant's timers or eviction
// deadline: admission, event delivery, Do closures, a clock pump, and
// resurrection after a failed eviction writeback.
//
//coreda:hotpath
func (s *shard) refreshDue(t *Tenant) {
	at, ok := s.tenantDue(t)
	if !ok {
		s.dueRemove(t)
		return
	}
	if t.dueIdx < 0 {
		t.dueAt = at
		s.duePush(t)
		return
	}
	if t.dueAt != at {
		t.dueAt = at
		s.dueFix(int(t.dueIdx))
	}
}

// The due-time index is a hand-rolled intrusive binary min-heap over
// *Tenant, ordered by (dueAt, ID); Tenant.dueIdx tracks each element's
// position so removal and reposition are O(log n) without a search.
// container/heap would box every element through its interface and
// allocate on the hot pump path. Every primitive below is hotalloc-
// gated: the only allocation in the whole index is duePush's amortized
// slice growth, which escape analysis does not (and should not) flag.

func dueLess(a, b *Tenant) bool {
	if a.dueAt != b.dueAt {
		return a.dueAt < b.dueAt
	}
	return a.ID < b.ID
}

//coreda:hotpath
func (s *shard) duePush(t *Tenant) {
	t.dueIdx = int32(len(s.due))
	s.due = append(s.due, t)
	s.dueUp(len(s.due) - 1)
}

//coreda:hotpath
func (s *shard) duePop() *Tenant {
	t := s.due[0]
	n := len(s.due) - 1
	s.dueSwap(0, n)
	s.due[n] = nil
	s.due = s.due[:n]
	if n > 0 {
		s.dueDown(0)
	}
	t.dueIdx = -1
	return t
}

// dueRemove detaches t from the index; a tenant not in it is a no-op.
//
//coreda:hotpath
func (s *shard) dueRemove(t *Tenant) {
	i := int(t.dueIdx)
	if i < 0 {
		return
	}
	n := len(s.due) - 1
	if i != n {
		s.dueSwap(i, n)
	}
	s.due[n] = nil
	s.due = s.due[:n]
	if i != n {
		s.dueFix(i)
	}
	t.dueIdx = -1
}

// dueFix restores heap order after the element at i changed its key.
//
//coreda:hotpath
func (s *shard) dueFix(i int) {
	if !s.dueDown(i) {
		s.dueUp(i)
	}
}

func (s *shard) dueUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !dueLess(s.due[i], s.due[parent]) {
			break
		}
		s.dueSwap(i, parent)
		i = parent
	}
}

// dueDown sifts the element at i toward the leaves, reporting whether
// it moved (so dueFix knows to try sifting up instead).
func (s *shard) dueDown(i int) bool {
	n := len(s.due)
	i0 := i
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		j := l
		if r := l + 1; r < n && dueLess(s.due[r], s.due[l]) {
			j = r
		}
		if !dueLess(s.due[j], s.due[i]) {
			break
		}
		s.dueSwap(i, j)
		i = j
	}
	return i > i0
}

func (s *shard) dueSwap(i, j int) {
	s.due[i], s.due[j] = s.due[j], s.due[i]
	s.due[i].dueIdx = int32(i)
	s.due[j].dueIdx = int32(j)
}

// writeWave writes one checkpoint wave: the pending evictions in
// eviction order, then, if dirty is set, every dirty tenant sorted by
// household (batch per-shard checkpointing; walking the dirty set
// rather than the resident map makes a periodic flush scale with how
// many households actually changed). The writes' chaos injections are
// drawn first, in wave order on the loop goroutine; parrun.Map then
// runs the writes on up to flushWriters goroutines, each under ctlRetry
// with a pooled saver; and the outcomes are applied back on the loop, in
// wave order. The loop blocks until every write returned, so who ran a
// write never decides what lands on disk or in the counters. A tenant
// whose eviction write fails is resurrected instead of losing its
// learning.
func (s *shard) writeWave(fsync, dirty bool) {
	w := s.wave[:0]
	for i, t := range s.evictq {
		w = append(w, waveWrite{t: t, evict: true})
		s.evictq[i] = nil
	}
	s.evictq = s.evictq[:0]
	if dirty && len(s.dirty) > 0 {
		s.flushIDs = s.flushIDs[:0]
		for id := range s.dirty {
			s.flushIDs = append(s.flushIDs, id)
		}
		sort.Strings(s.flushIDs)
		for _, id := range s.flushIDs {
			w = append(w, waveWrite{t: s.dirty[id]})
		}
	}
	s.wave = w
	if len(w) == 0 {
		return
	}
	pol := ctlRetry()
	if s.inject != nil {
		for i := range w {
			w[i].failN = min(max(s.inject(), 0), pol.Attempts-1)
		}
	}
	//coreda:vet-ignore droppederr fn never fails: each index returns its error as its value
	errs, _ := parrun.Map(len(w), flushWriters, func(i int) (error, error) {
		sv := <-s.free
		save := func(attempt int) error {
			w[i].attempts = attempt
			if attempt <= w[i].failN {
				return errInjected
			}
			return w[i].t.save(s.f.cfg.Backend, sv, fsync)
		}
		err := save(1)
		if err != nil {
			// Only a failed first attempt builds the write's jitter
			// stream, so a clean wave allocates none.
			first := err
			rng := sim.RNG(int64(s.idx), "fleet/ctl/job/"+strconv.Itoa(i))
			err = pol.Do(rng, func(attempt int) error {
				if attempt == 1 {
					return first
				}
				return save(attempt)
			})
		}
		s.free <- sv
		return err, nil
	})
	pre := s.stats.Checkpoints
	for i := range w {
		t, err := w[i].t, errs[i]
		s.stats.JobRetries += w[i].attempts - 1
		switch {
		case w[i].evict:
			s.finishEvict(t, err)
		case err != nil:
			s.f.log("shard %d: checkpoint %s: %v", s.idx, t.ID, err)
		default:
			delete(s.dirty, t.ID)
			s.stats.Checkpoints++
		}
		w[i] = waveWrite{}
	}
	s.publishCheckpointDone(s.stats.Checkpoints - pre)
}

// ValidHousehold reports whether id is usable as a household ID: 1 to
// wire.MaxHousehold bytes of letters, digits, '-', '_' or '.', not
// starting with a dot (IDs double as checkpoint file names).
func ValidHousehold(id string) bool {
	if len(id) == 0 || len(id) > wire.MaxHousehold || id[0] == '.' {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '-', c == '_', c == '.':
		default:
			return false
		}
	}
	return true
}
