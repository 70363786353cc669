package sensornet

import (
	"cmp"
	"reflect"
	"slices"
	"testing"
	"time"

	"coreda/internal/sim"
	"coreda/internal/testutil"
)

// transition records one node-state callback.
type transition struct {
	UID    uint16
	Online bool
	At     time.Duration
}

func newSupervisedNet(t *testing.T, beat time.Duration, uids ...uint16) (*sim.Scheduler, *Medium, *Gateway, []*Node, *[]transition) {
	t.Helper()
	sched := sim.New()
	m := perfectMedium(sched)
	g := NewGateway(sched, m, nil)
	var nodes []*Node
	for _, uid := range uids {
		n := NewNode(NodeConfig{UID: uid, Heartbeat: beat}, sched, m, NewSliceSource(nil, 0, nil))
		n.Start()
		nodes = append(nodes, n)
	}
	var trans []transition
	g.Supervise(beat, func(uid uint16, online bool) {
		trans = append(trans, transition{UID: uid, Online: online, At: sched.Now()})
	}, uids...)
	return sched, m, g, nodes, &trans
}

func TestSupervisionDeclaresCrashedNodeOffline(t *testing.T) {
	sched, _, g, nodes, trans := newSupervisedNet(t, time.Second, 7)

	sched.RunUntil(10 * time.Second)
	if len(*trans) != 0 {
		t.Fatalf("healthy node flagged: %+v", *trans)
	}
	if !g.Online(7) {
		t.Fatal("heartbeating node reported offline")
	}

	nodes[0].Crash()
	// The deadline is three missed beats: silence from 10s means the
	// sweep at 14s (last-seen ~10s, deadline 3s) declares the node dead.
	sched.RunUntil(20 * time.Second)
	if len(*trans) != 1 || (*trans)[0].Online || (*trans)[0].UID != 7 {
		t.Fatalf("transitions = %+v, want one offline for uid 7", *trans)
	}
	if (*trans)[0].At > 15*time.Second {
		t.Errorf("offline declared at %v, too late for a 3-beat deadline", (*trans)[0].At)
	}
	if g.Online(7) {
		t.Error("Online(7) after declaration")
	}
	if got := g.OfflineNodes(); !reflect.DeepEqual(got, []uint16{7}) {
		t.Errorf("OfflineNodes = %v", got)
	}
	if g.Stats.OfflineEvents != 1 {
		t.Errorf("OfflineEvents = %d", g.Stats.OfflineEvents)
	}

	// Recovery: the first heartbeat after reboot flips the node back.
	nodes[0].Reboot()
	sched.RunUntil(25 * time.Second)
	if len(*trans) != 2 || !(*trans)[1].Online {
		t.Fatalf("transitions = %+v, want a recovery", *trans)
	}
	if !g.Online(7) || len(g.OfflineNodes()) != 0 {
		t.Error("node not back online after reboot")
	}
	if g.Stats.OnlineEvents != 1 {
		t.Errorf("OnlineEvents = %d", g.Stats.OnlineEvents)
	}
}

func TestSupervisionOnlyWatchesRegisteredNodes(t *testing.T) {
	sched := sim.New()
	m := perfectMedium(sched)
	g := NewGateway(sched, m, nil)
	// Node exists but is never watched — and never even heartbeats.
	NewNode(NodeConfig{UID: 9}, sched, m, NewSliceSource(nil, 0, nil)).Start()
	var trans []transition
	g.Supervise(time.Second, func(uid uint16, online bool) {
		trans = append(trans, transition{UID: uid, Online: online})
	})

	sched.RunUntil(30 * time.Second)
	if len(trans) != 0 {
		t.Errorf("unwatched node produced transitions: %+v", trans)
	}
	if !g.Online(9) {
		t.Error("unwatched node reported offline")
	}
}

func TestDedupSurvivesReboot(t *testing.T) {
	// The node's sequence counter survives crash+reboot (EEPROM-backed on
	// the real module), so the gateway's duplicate suppression must keep
	// accepting post-reboot reports as fresh.
	sched := sim.New()
	m := perfectMedium(sched)
	var events []UsageEvent
	NewGateway(sched, m, collect(&events))

	src := NewSliceSource(nil, 0, nil)
	n := NewNode(NodeConfig{UID: 5}, sched, m, src)
	n.Start()

	hot := make([]float64, 20)
	for i := range hot {
		hot[i] = 2.0
	}
	src.Enqueue(hot)
	sched.RunUntil(10 * time.Second)
	if len(events) != 2 {
		t.Fatalf("pre-crash events = %d, want start+end", len(events))
	}

	n.Crash()
	sched.RunUntil(12 * time.Second)
	n.Reboot()
	src.Enqueue(hot)
	sched.RunUntil(25 * time.Second)
	if len(events) != 4 {
		t.Fatalf("post-reboot events = %d, want 4 (reboot must not trip dedup)", len(events))
	}
}

func TestCrashLosesQueuedGesture(t *testing.T) {
	sched := sim.New()
	m := perfectMedium(sched)
	var events []UsageEvent
	NewGateway(sched, m, collect(&events))
	src := NewSliceSource(nil, 0, nil)
	n := NewNode(NodeConfig{UID: 6}, sched, m, src)
	n.Start()

	// Crash with a gesture still queued: the physical motion happens, but
	// nobody is sampling — the samples must be flushed, not replayed after
	// reboot as a ghost usage from the past.
	hot := make([]float64, 50)
	for i := range hot {
		hot[i] = 2.0
	}
	src.Enqueue(hot)
	sched.RunUntil(1 * time.Second) // mid-gesture
	n.Crash()
	if src.Remaining() != 0 {
		t.Errorf("crash left %d samples queued", src.Remaining())
	}
	n.Reboot()
	before := len(events)
	sched.RunUntil(20 * time.Second)
	// Only the end of the pre-crash usage (if any) may trail in; no new
	// start may appear from flushed samples.
	for _, e := range events[before:] {
		if e.Kind == UsageStarted {
			t.Errorf("ghost usage start after reboot: %+v", e)
		}
	}
}

// TestSupervisor pins the rule on its own: expiry strictly after three
// intervals, in key order, once; one recovery per outage; frames from
// unwatched or forgotten nodes ignored.
func TestSupervisor(t *testing.T) {
	sup := NewSupervisor(time.Second, cmp.Compare[uint16])
	for _, uid := range []uint16{5, 3, 9} {
		sup.Watch(uid, 0)
	}
	sup.Frame(9, time.Second)
	if got := sup.Expire(3 * time.Second); len(got) != 0 {
		t.Errorf("Expire at exactly the deadline = %v, want none", got)
	}
	if got := sup.Expire(3*time.Second + 1); !slices.Equal(got, []uint16{3, 5}) {
		t.Errorf("Expire = %v, want [3 5]", got)
	}
	if got := sup.Expire(10 * time.Second); !slices.Equal(got, []uint16{9}) {
		t.Errorf("second Expire = %v, want only the newly silent [9]", got)
	}
	if !sup.Frame(3, 11*time.Second) || sup.Frame(3, 12*time.Second) {
		t.Error("recovery not reported exactly once")
	}
	if sup.Frame(7, 12*time.Second) {
		t.Error("frame from an unwatched node reported a recovery")
	}
	sup.Forget(5)
	if sup.Frame(5, 12*time.Second) {
		t.Error("frame from a forgotten node reported a recovery")
	}
	if got := sup.Expire(time.Hour); !slices.Equal(got, []uint16{3}) {
		t.Errorf("Expire after Forget = %v, want [3]", got)
	}
}

func TestGatewaySuperviseOnce(t *testing.T) {
	sched := sim.New()
	g := NewGateway(sched, perfectMedium(sched), nil)
	g.Supervise(0, nil, 1) // no-op: supervises nothing
	g.Supervise(time.Second, nil, 1)
	sched.RunUntil(10 * time.Second) // a nil handler is tolerated
	if g.Online(1) || g.Stats.OfflineEvents != 1 {
		t.Errorf("silent node: Online = %v, OfflineEvents = %d", g.Online(1), g.Stats.OfflineEvents)
	}
	defer func() {
		if recover() == nil {
			t.Error("second Supervise did not panic")
		}
	}()
	g.Supervise(time.Second, nil, 2)
}

// TestSupervisorAllocBudget pins the per-frame cost of supervision: a
// frame from a watched node, and a sweep that expires nothing, allocate
// nothing.
func TestSupervisorAllocBudget(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("race instrumentation allocates; alloc budgets are enforced by the no-race pass (scripts/check.sh)")
	}
	sup := NewSupervisor(time.Second, cmp.Compare[uint16])
	for uid := uint16(0); uid < 64; uid++ {
		sup.Watch(uid, 0)
	}
	var now time.Duration
	uid := uint16(0)
	if n := testing.AllocsPerRun(1000, func() {
		now += time.Millisecond
		uid = (uid + 7) % 64
		sup.Frame(uid, now)
		sup.Expire(now)
	}); n != 0 {
		t.Errorf("frame + empty sweep = %v allocs, want 0", n)
	}
}
