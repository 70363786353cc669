// Package chaos is CoReDA's deterministic fault injector. It turns a
// declarative Plan — frame-fault probabilities, radio blackout windows and
// scheduled node lifecycle events — into faults on a sensornet.Medium,
// driving every probabilistic decision from one seeded sim.RNG stream.
//
// The plan is data (JSON round-trippable struct literals), the randomness
// is a named stream, and all scheduling goes through the sim.Scheduler,
// so a chaos run is replayable byte for byte: same seed + same plan =
// same faults at the same virtual instants, at any parrun worker count.
// The package is part of the single-threaded simulation stack; coreda-vet
// (schedonly, nondeterminism) enforces that it stays that way.
package chaos

import (
	"fmt"
	"math/rand"
	"time"

	"coreda/internal/sensornet"
	"coreda/internal/sim"
)

// NodeOp is a scheduled node lifecycle operation.
type NodeOp string

// Node lifecycle operations.
const (
	// OpCrash powers the node off instantly (pending traffic lost).
	OpCrash NodeOp = "crash"
	// OpReboot cold-boots a crashed node.
	OpReboot NodeOp = "reboot"
	// OpDrain consumes Amount units of the node's battery.
	OpDrain NodeOp = "drain"
)

// NodeEvent schedules one lifecycle operation on one node.
type NodeEvent struct {
	// At is the virtual time the event fires.
	At time.Duration `json:"at"`
	// UID is the target node.
	UID uint16 `json:"uid"`
	// Op is what happens.
	Op NodeOp `json:"op"`
	// Amount is the charge drained by OpDrain (ignored otherwise).
	Amount float64 `json:"amount,omitempty"`
}

// ProcOp is a scheduled whole-process operation in a cluster soak.
type ProcOp string

// Process operations.
const (
	// OpSigkill kills the worker process without warning — no drain, no
	// final checkpoint; recovery must come from peer replicas.
	OpSigkill ProcOp = "sigkill"
)

// ProcEvent schedules one whole-process fault. Unlike NodeEvents, which
// fire on the virtual clock inside one process, process faults are
// placed on the cluster soak's round timeline: the driver executes them
// between delivering rounds, which is what keeps a multi-process run
// replayable (the kill lands at a deterministic point of the event
// sequence, not at a wall-clock instant).
type ProcEvent struct {
	// Round is the soak round (0-based session index) the fault fires
	// in: the process is killed after the round's events are delivered
	// to it but before the round's replication barrier completes.
	Round int `json:"round"`
	// Proc is the worker index (position in the driver's peer list).
	Proc int `json:"proc"`
	// Op is what happens.
	Op ProcOp `json:"op"`
}

// Window is a half-open virtual-time interval [From, To).
type Window struct {
	From time.Duration `json:"from"`
	To   time.Duration `json:"to"`
}

// contains reports whether t falls inside the window.
func (w Window) contains(t time.Duration) bool { return t >= w.From && t < w.To }

// Plan is a complete, replayable fault schedule. The zero value injects
// nothing.
type Plan struct {
	// Drop is the probability a frame is destroyed before entering the
	// air (on top of the medium's own loss model).
	Drop float64 `json:"drop,omitempty"`
	// Corrupt is the probability a delivered frame has one injector-
	// chosen bit flipped (the CRC rejects it at the receiver).
	Corrupt float64 `json:"corrupt,omitempty"`
	// Duplicate is the probability a frame is delivered twice — a ghost
	// retransmission the gateway's dedup must absorb.
	Duplicate float64 `json:"duplicate,omitempty"`
	// Reorder is the probability a frame is held back by ReorderDelay,
	// letting later frames overtake it.
	Reorder float64 `json:"reorder,omitempty"`
	// ReorderDelay is the hold-back applied to reordered frames (zero
	// means 300 ms — comfortably past the ack timeout's jitter).
	ReorderDelay time.Duration `json:"reorder_delay,omitempty"`
	// Stalls are radio blackout windows: every frame transmitted inside
	// one is lost (a flapping radio, a microwave oven, a doorframe).
	Stalls []Window `json:"stalls,omitempty"`
	// Nodes are scheduled crash/reboot/drain events.
	Nodes []NodeEvent `json:"nodes,omitempty"`
	// Procs are scheduled whole-process faults, executed by the cluster
	// soak driver (the in-process Injector ignores them).
	Procs []ProcEvent `json:"procs,omitempty"`
	// JobFail is the probability a control-plane queue job (an eviction
	// writeback, a checkpoint write, a replica push) fails injected
	// attempts before running for real — it exercises the queue's
	// retry/backoff path without ever changing a job's outcome (the
	// queue caps injected failures below the attempt budget). Drawn on
	// a dedicated stream via JobInjector, never on the frame stream.
	JobFail float64 `json:"job_fail,omitempty"`
}

// Validate rejects plans that cannot be executed faithfully.
func (p *Plan) Validate() error {
	for _, pr := range []struct {
		name string
		v    float64
	}{{"drop", p.Drop}, {"corrupt", p.Corrupt}, {"duplicate", p.Duplicate}, {"reorder", p.Reorder}, {"job_fail", p.JobFail}} {
		if pr.v < 0 || pr.v > 1 {
			return fmt.Errorf("chaos: %s probability %v outside [0,1]", pr.name, pr.v)
		}
	}
	for i, w := range p.Stalls {
		if w.To < w.From {
			return fmt.Errorf("chaos: stall window %d ends (%v) before it starts (%v)", i, w.To, w.From)
		}
	}
	for i, e := range p.Nodes {
		switch e.Op {
		case OpCrash, OpReboot:
		case OpDrain:
			if e.Amount <= 0 {
				return fmt.Errorf("chaos: node event %d drains %v (want > 0)", i, e.Amount)
			}
		default:
			return fmt.Errorf("chaos: node event %d has unknown op %q", i, e.Op)
		}
		if e.At < 0 {
			return fmt.Errorf("chaos: node event %d scheduled at %v", i, e.At)
		}
	}
	for i, e := range p.Procs {
		if e.Op != OpSigkill {
			return fmt.Errorf("chaos: proc event %d has unknown op %q", i, e.Op)
		}
		if e.Round < 0 {
			return fmt.Errorf("chaos: proc event %d scheduled in round %d", i, e.Round)
		}
		if e.Proc < 0 {
			return fmt.Errorf("chaos: proc event %d targets process %d", i, e.Proc)
		}
	}
	return nil
}

// Stats counts the faults the injector actually forced.
type Stats struct {
	// Frames is how many transmissions the injector inspected.
	Frames int
	// Dropped counts probabilistic drops (not stall losses).
	Dropped int
	// Stalled counts frames destroyed inside a blackout window.
	Stalled int
	// Corrupted, Duplicated and Reordered count the respective faults.
	Corrupted  int
	Duplicated int
	Reordered  int
	// NodeEvents counts fired lifecycle events.
	NodeEvents int
}

// Injector executes a Plan against one medium. Create with New, then Arm.
type Injector struct {
	plan  *Plan
	sched *sim.Scheduler
	rng   *rand.Rand

	// Stats accumulates injected-fault counters.
	Stats Stats
}

// New builds an injector for the plan. rng must be a dedicated stream
// (conventionally sim.RNG(seed, "chaos")): the injector draws once per
// fault dimension per frame, so its consumption pattern — and therefore
// the whole run — is a pure function of plan and seed.
func New(plan *Plan, sched *sim.Scheduler, rng *rand.Rand) (*Injector, error) {
	if plan == nil {
		return nil, fmt.Errorf("chaos: nil plan")
	}
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	return &Injector{plan: plan, sched: sched, rng: rng}, nil
}

// Arm installs the injector on the medium and schedules the plan's node
// lifecycle events. Nodes are resolved at fire time, so Arm may run
// before every node has attached.
func (inj *Injector) Arm(m *sensornet.Medium) {
	m.SetFaultInjector(inj)
	for _, ev := range inj.plan.Nodes {
		ev := ev
		inj.sched.At(ev.At, func() {
			node, ok := m.Node(ev.UID)
			if !ok {
				return
			}
			inj.Stats.NodeEvents++
			switch ev.Op {
			case OpCrash:
				node.Crash()
			case OpReboot:
				node.Reboot()
			case OpDrain:
				node.Drain(ev.Amount)
			}
		})
	}
}

// OnFrame implements sensornet.FaultInjector. Exactly four rng draws per
// frame (drop, corrupt, duplicate, reorder order), plus one for the
// corrupted bit position when corruption fires — a fixed consumption
// pattern keeps later frames' faults independent of earlier outcomes.
func (inj *Injector) OnFrame(now time.Duration, toGateway bool, uid uint16, frame []byte) sensornet.FaultAction {
	inj.Stats.Frames++
	act := sensornet.PassAction()
	drop := inj.rng.Float64() < inj.plan.Drop
	corrupt := inj.rng.Float64() < inj.plan.Corrupt
	duplicate := inj.rng.Float64() < inj.plan.Duplicate
	reorder := inj.rng.Float64() < inj.plan.Reorder
	for _, w := range inj.plan.Stalls {
		if w.contains(now) {
			inj.Stats.Stalled++
			act.Drop = true
			return act
		}
	}
	if drop {
		inj.Stats.Dropped++
		act.Drop = true
		return act
	}
	if corrupt && len(frame) > 0 {
		inj.Stats.Corrupted++
		act.CorruptBit = inj.rng.Intn(len(frame) * 8)
	}
	if duplicate {
		inj.Stats.Duplicated++
		act.Duplicates = 1
	}
	if reorder {
		inj.Stats.Reordered++
		delay := inj.plan.ReorderDelay
		if delay <= 0 {
			delay = 300 * time.Millisecond
		}
		act.ExtraDelay = delay
	}
	return act
}

// JobInjector adapts the plan's JobFail probability to the fleet's
// checkpoint-write injection hook (fleet.Config.JobInject). Exactly one
// rng draw per write — a fixed consumption pattern on the
// caller-provided stream (conventionally sim.RNG(seed,
// "chaos/jobs/<shard>")), so the fault sequence is a pure function of
// plan, seed and write order, at any writer count. A hit fails the
// write's first attempt; the fleet caps injection below its retry
// budget, so the write still completes and injection perturbs only
// retry counters and backoff timing — never a policy file.
func (p *Plan) JobInjector(rng *rand.Rand) func() int {
	return func() int {
		if rng.Float64() < p.JobFail {
			return 1
		}
		return 0
	}
}
