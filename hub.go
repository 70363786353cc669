package coreda

import (
	"fmt"

	"coreda/internal/adl"
	"coreda/internal/sim"
)

// Hub routes the usage events of one gateway to several Systems — one per
// instrumented activity — by the tool the event concerns. This is the
// multi-ADL deployment the paper's generalization criterion implies: one
// home, one radio network, many activities (tea in the kitchen, brushing
// in the bathroom), each with its own learned routine.
//
// Like System, a Hub is single-threaded: drive it from one scheduler.
type Hub struct {
	sched *sim.Scheduler
	// systems holds one System per activity, in the order added. A home
	// runs a few activities, so routing scans it and asks each
	// activity's own tool map, rather than keeping a name index and a
	// tool index per hub.
	systems []*System
	// first backs systems while the hub serves one activity, so a
	// one-activity home (every fleet household) allocates no slice.
	first   [1]*System
	unknown func(UnknownEvent) // handler for unroutable events
	// UnknownTools counts events for tools no activity claims.
	UnknownTools int
}

// UnknownKind says what kind of gateway traffic concerned an unclaimed
// tool.
type UnknownKind int

// Unknown traffic kinds.
const (
	// UnknownUsage is a usage event for an unclaimed tool.
	UnknownUsage UnknownKind = iota + 1
	// UnknownNodeState is a supervision transition for an unclaimed tool.
	UnknownNodeState
)

// UnknownEvent describes gateway traffic for a tool no activity claims —
// a usage event or a node-state transition. Both flow through the same
// handler so a deployment (e.g. a fleet tenant logging misconfigured
// nodes) observes every unroutable signal in one place.
type UnknownEvent struct {
	// Tool is the unclaimed tool the traffic concerned.
	Tool ToolID
	// Kind says which of the payload fields below is meaningful.
	Kind UnknownKind
	// Usage is the usage event (Kind == UnknownUsage).
	Usage UsageEvent
	// Online is the reported node state (Kind == UnknownNodeState).
	Online bool
}

// NewHub creates an empty hub on the scheduler.
func NewHub(sched *sim.Scheduler) *Hub {
	h := new(Hub)
	h.Init(sched)
	return h
}

// Init readies a zero Hub on the scheduler in place, as NewHub does, so
// an owner can hold the hub by value.
func (h *Hub) Init(sched *sim.Scheduler) {
	h.sched = sched
	h.systems = h.first[:0]
}

// Add builds a System for the activity and registers its tools for
// routing. Tool IDs must be unique across all added activities (the
// paper's uid scheme guarantees this: one node, one uid, one tool).
func (h *Hub) Add(cfg SystemConfig) (*System, error) {
	sys := new(System)
	if err := h.AddInto(sys, cfg); err != nil {
		return nil, err
	}
	return sys, nil
}

// AddInto is Add building the System in sys, a zero System the caller
// owns, so an owner can hold the hub's System by value. sys must stay
// where it is for as long as the hub routes to it.
func (h *Hub) AddInto(sys *System, cfg SystemConfig) error {
	if cfg.Activity == nil {
		return fmt.Errorf("coreda: Hub.Add requires an activity")
	}
	if _, dup := h.System(cfg.Activity.Name); dup {
		return fmt.Errorf("coreda: activity %q already added", cfg.Activity.Name)
	}
	// The lowest conflicting tool ID is reported, so the error stays
	// deterministic when several tools clash at once.
	var (
		conflict adl.ToolID
		owner    *System
	)
	for id := range cfg.Activity.Tools {
		if other := h.route(id); other != nil && (owner == nil || id < conflict) {
			conflict, owner = id, other
		}
	}
	if owner != nil {
		return fmt.Errorf("coreda: tool %d of %q already claimed by %q", conflict, cfg.Activity.Name, owner.cfg.Activity.Name)
	}
	if err := sys.init(cfg, h.sched); err != nil {
		return err
	}
	h.systems = append(h.systems, sys)
	return nil
}

// route returns the system whose activity declares tool, or nil.
func (h *Hub) route(tool ToolID) *System {
	for _, sys := range h.systems {
		if _, ok := sys.cfg.Activity.Tools[tool]; ok {
			return sys
		}
	}
	return nil
}

// System returns the system serving the named activity.
func (h *Hub) System(activity string) (*System, bool) {
	for _, sys := range h.systems {
		if sys.cfg.Activity.Name == activity {
			return sys, true
		}
	}
	return nil, false
}

// Systems returns every registered system keyed by activity name.
func (h *Hub) Systems() map[string]*System {
	out := make(map[string]*System, len(h.systems))
	for _, sys := range h.systems {
		out[sys.cfg.Activity.Name] = sys
	}
	return out
}

// SetUnknownHandler installs a callback for traffic whose tool no
// activity claims (e.g. a node joins before its activity is configured).
// It receives usage events and node-state transitions alike.
func (h *Hub) SetUnknownHandler(fn func(UnknownEvent)) { h.unknown = fn }

// HandleUsage routes one gateway event to the owning activity's system.
// Wire it as the sensornet.Gateway handler; fleet shards feed it served
// traffic the same way.
func (h *Hub) HandleUsage(e UsageEvent) {
	sys := h.route(e.Tool)
	if sys == nil {
		h.UnknownTools++
		if h.unknown != nil {
			h.unknown(UnknownEvent{Tool: e.Tool, Kind: UnknownUsage, Usage: e})
		}
		return
	}
	// A usage event for an inactive system auto-starts a session in the
	// activity's configured default mode, so a user who simply walks up
	// to the tea tools is covered without explicit session management.
	if !sys.Active() && e.Kind == UsageStarted {
		sys.StartSession(sys.DefaultMode())
	}
	sys.HandleUsage(e)
}

// HandleNodeState routes a gateway supervision transition to the owning
// activity's system. Wire it as the sensornet.Gateway node-state handler
// (tool ID == node UID). Transitions for unclaimed tools are counted like
// unroutable usage events.
func (h *Hub) HandleNodeState(tool ToolID, online bool) {
	sys := h.route(tool)
	if sys == nil {
		h.UnknownTools++
		if h.unknown != nil {
			h.unknown(UnknownEvent{Tool: tool, Kind: UnknownNodeState, Online: online})
		}
		return
	}
	sys.SetToolOnline(tool, online)
}
