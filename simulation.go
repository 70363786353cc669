package coreda

import (
	"fmt"
	"time"

	"coreda/internal/adl"
	"coreda/internal/chaos"
	"coreda/internal/persona"
	"coreda/internal/sensornet"
	"coreda/internal/signalgen"
	"coreda/internal/sim"
)

// SimulationConfig describes a closed-loop lab: one simulated user, one
// activity, a radio sensor network and a CoReDA system.
type SimulationConfig struct {
	// Activity is the ADL under study.
	Activity *Activity
	// Persona is the simulated user (must have a routine for Activity).
	Persona *Persona
	// Seed makes the whole simulation reproducible.
	Seed int64
	// System overrides system settings; Activity, UserName, Seed and the
	// LED sink are filled in automatically.
	System SystemConfig
	// Medium overrides the radio channel model (zero value = default
	// benign indoor channel).
	Medium sensornet.MediumConfig
	// SignalNoise is the sensor excitation noise (zero =
	// signalgen.DefaultNoise).
	SignalNoise float64
	// PromptLatency is how long the user takes to notice a reminder
	// (zero = 2 s).
	PromptLatency time.Duration
	// Chaos, when non-nil, arms a deterministic fault injector on the
	// medium: scripted frame faults plus scheduled node crash/reboot/drain
	// events, all driven by Seed's "chaos" stream.
	Chaos *chaos.Plan
	// Supervise, when positive, arms node-liveness supervision: nodes
	// heartbeat every Supervise, and the gateway's transitions feed
	// System.SetToolOnline (graceful degradation + caregiver alerts).
	Supervise time.Duration
}

// SessionResult summarizes one simulated session.
type SessionResult struct {
	// Completed reports whether every step of the activity was observed.
	Completed bool
	// Duration is how long the session ran in virtual time.
	Duration time.Duration
	// Reminders is how many reminders were delivered during the session.
	Reminders int
	// Praises is how many praises were delivered.
	Praises int
	// WrongToolEvents counts trigger-situation-2 detections.
	WrongToolEvents int
}

// Simulation is the assembled closed loop. Access the parts directly for
// fine-grained control; RunSession covers the common case.
type Simulation struct {
	Sched    *Scheduler
	System   *System
	Actor    *persona.Actor
	Gateway  *sensornet.Gateway
	Medium   *sensornet.Medium
	Timeline *Timeline
	// Chaos is the armed fault injector (nil without SimulationConfig.Chaos).
	Chaos *chaos.Injector

	cfg       SimulationConfig
	gen       *signalgen.Generator
	sources   map[ToolID]*sensornet.SliceSource
	nodes     map[ToolID]*sensornet.Node
	completed bool

	remindersBefore int
	praisesBefore   int
	wrongBefore     int
}

// NewSimulation wires scheduler, radio, one sensor node per tool, the
// CoReDA system and the persona actor together.
func NewSimulation(cfg SimulationConfig) (*Simulation, error) {
	if cfg.Activity == nil {
		return nil, fmt.Errorf("coreda: SimulationConfig.Activity is required")
	}
	if cfg.Persona == nil {
		return nil, fmt.Errorf("coreda: SimulationConfig.Persona is required")
	}
	if _, ok := cfg.Persona.Routines[cfg.Activity.Name]; !ok {
		return nil, fmt.Errorf("coreda: persona %q has no routine for %q", cfg.Persona.Name, cfg.Activity.Name)
	}
	if cfg.Medium == (sensornet.MediumConfig{}) {
		cfg.Medium = sensornet.DefaultMediumConfig()
	}
	if cfg.SignalNoise == 0 {
		cfg.SignalNoise = signalgen.DefaultNoise
	}
	if cfg.PromptLatency == 0 {
		cfg.PromptLatency = 2 * time.Second
	}

	s := &Simulation{
		Sched:    sim.New(),
		Timeline: &Timeline{},
		cfg:      cfg,
		sources:  make(map[ToolID]*sensornet.SliceSource),
		nodes:    make(map[ToolID]*sensornet.Node),
	}
	s.gen = signalgen.New(sensornet.SampleRate, cfg.SignalNoise, sim.RNG(cfg.Seed, "signals"))
	s.Medium = sensornet.NewMedium(cfg.Medium, s.Sched, sim.RNG(cfg.Seed, "medium"))

	// The gateway handler is bound after the System exists.
	s.Gateway = sensornet.NewGateway(s.Sched, s.Medium, nil)

	sysCfg := cfg.System
	sysCfg.Activity = cfg.Activity
	if sysCfg.UserName == "" {
		sysCfg.UserName = cfg.Persona.Name
	}
	sysCfg.Seed = cfg.Seed
	sysCfg.LEDs = GatewayLEDs{Gateway: s.Gateway}
	userReminder := cfg.System.OnReminder
	sysCfg.OnReminder = func(r Reminder) {
		s.Timeline.Record(r.At, "reminding", "[%s] %s (level %s, trigger %s)", r.Trigger, r.Text, r.Level, r.Trigger)
		// The user notices the reminder a moment later.
		s.Sched.After(cfg.PromptLatency, func() {
			s.Actor.OnPrompt(persona.Prompt{Tool: r.Tool, Specific: r.Level == Specific})
		})
		if userReminder != nil {
			userReminder(r)
		}
	}
	userPraise := cfg.System.OnPraise
	sysCfg.OnPraise = func(p Praise) {
		s.Timeline.Record(p.At, "reminding", "%s", p.Text)
		if userPraise != nil {
			userPraise(p)
		}
	}
	userComplete := cfg.System.OnComplete
	sysCfg.OnComplete = func() {
		s.completed = true
		s.Timeline.Record(s.Sched.Now(), "system", "activity %q completed", cfg.Activity.Name)
		if userComplete != nil {
			userComplete()
		}
	}

	system, err := NewSystem(sysCfg, s.Sched)
	if err != nil {
		return nil, err
	}
	s.System = system
	s.Gateway.SetHandler(system.HandleUsage)

	// Sorted start order keeps the scheduler's event sequence — and with
	// it every seeded run — bit-for-bit reproducible.
	var uids []uint16
	for _, id := range adl.SortedToolIDs(cfg.Activity.Tools) {
		tool := cfg.Activity.Tools[id]
		src := sensornet.NewSliceSource(nil, cfg.SignalNoise, sim.RNG(cfg.Seed, fmt.Sprintf("rest-%d", id)))
		node := sensornet.NewNode(sensornet.NodeConfig{
			UID:       uint16(id),
			Sensor:    tool.Sensor,
			Heartbeat: cfg.Supervise,
		}, s.Sched, s.Medium, src)
		node.Start()
		s.sources[id] = src
		s.nodes[id] = node
		uids = append(uids, uint16(id))
	}

	s.Gateway.Supervise(cfg.Supervise, func(uid uint16, online bool) {
		system.SetToolOnline(ToolID(uid), online)
	}, uids...)

	if cfg.Chaos != nil {
		inj, err := chaos.New(cfg.Chaos, s.Sched, sim.RNG(cfg.Seed, "chaos"))
		if err != nil {
			return nil, err
		}
		inj.Arm(s.Medium)
		s.Chaos = inj
	}

	actor, err := persona.NewActor(persona.ActorConfig{
		Profile:  cfg.Persona,
		Activity: cfg.Activity,
		Perform:  s.perform,
		RNG:      sim.RNG(cfg.Seed, "actor"),
	}, s.Sched)
	if err != nil {
		return nil, err
	}
	s.Actor = actor
	return s, nil
}

// perform physically enacts a step: the gesture waveform is queued on the
// step's sensor node and the user is busy for its duration.
func (s *Simulation) perform(step Step) time.Duration {
	src, ok := s.sources[step.Tool]
	if !ok {
		return time.Second
	}
	kind := s.cfg.Activity.Tools[step.Tool].Sensor
	series, _, _ := s.gen.StepSignalKind(step, kind, s.cfg.Persona.StepDurJitter)
	src.Enqueue(series)
	s.Timeline.Record(s.Sched.Now(), "user", "uses %s (%s)", toolName(s.cfg.Activity, step.Tool), step.Name)
	return time.Duration(len(series)) * sensornet.SamplePeriod
}

// RunSession runs one session in the given mode, ending when the activity
// completes, the actor can make no further progress, or maxDuration of
// virtual time elapses.
func (s *Simulation) RunSession(mode Mode, maxDuration time.Duration) (SessionResult, error) {
	if maxDuration <= 0 {
		maxDuration = 10 * time.Minute
	}
	s.drain()
	s.completed = false
	before := s.System.Stats()
	s.remindersBefore = before.Reminding.Reminders
	s.praisesBefore = before.Reminding.Praises
	s.wrongBefore = before.WrongToolEvents

	start := s.Sched.Now()
	s.Timeline.Record(start, "system", "session start (%s, %s)", s.cfg.Activity.Name, mode)
	s.System.StartSession(mode)
	if err := s.Actor.Begin(); err != nil {
		return SessionResult{}, err
	}

	deadline := start + maxDuration
	for !s.completed && s.Sched.Now() < deadline {
		if !s.Sched.Step() {
			break
		}
	}
	if s.System.Active() {
		s.System.EndSession()
	}
	// Let in-flight radio traffic settle so stats are consistent.
	s.Sched.RunUntil(s.Sched.Now() + time.Second)

	after := s.System.Stats()
	return SessionResult{
		Completed:       s.completed,
		Duration:        s.Sched.Now() - start,
		Reminders:       after.Reminding.Reminders - s.remindersBefore,
		Praises:         after.Reminding.Praises - s.praisesBefore,
		WrongToolEvents: after.WrongToolEvents - s.wrongBefore,
	}, nil
}

// drain runs the scheduler until in-flight gestures, queued waveforms and
// node detections from a previous session have settled, so they cannot
// bleed into the next session's event stream.
func (s *Simulation) drain() {
	for guard := 0; guard < 1_000_000; guard++ {
		if s.quiescent() {
			break
		}
		if !s.Sched.Step() {
			break
		}
	}
	// Let the last radio frames land.
	s.Sched.RunUntil(s.Sched.Now() + time.Second)
}

func (s *Simulation) quiescent() bool {
	if s.Actor != nil && s.Actor.Busy() {
		return false
	}
	for id, node := range s.nodes {
		if !node.Running() {
			// A crashed node can neither play out queued samples nor end a
			// usage; waiting on it would spin the guard forever.
			continue
		}
		if node.InUse() || s.sources[id].Remaining() > 0 {
			return false
		}
	}
	return true
}

// RunTraining runs n silent learning sessions with error-free behaviour
// (the persona's error rates are suspended, as routine acquisition assumes
// the user can still perform the ADL unaided) and returns how many
// completed.
func (s *Simulation) RunTraining(n int, maxDuration time.Duration) (completed int, err error) {
	p := s.cfg.Persona
	freeze, wrong := p.FreezeProb, p.WrongToolProb
	p.FreezeProb, p.WrongToolProb = 0, 0
	defer func() { p.FreezeProb, p.WrongToolProb = freeze, wrong }()

	for i := 0; i < n; i++ {
		res, runErr := s.RunSession(ModeLearn, maxDuration)
		if runErr != nil {
			return completed, runErr
		}
		if res.Completed {
			completed++
		}
	}
	return completed, nil
}

// Node returns the simulated sensor node attached to a tool (for
// inspecting LEDs and EEPROM logs).
func (s *Simulation) Node(tool ToolID) (*sensornet.Node, bool) {
	n, ok := s.nodes[tool]
	return n, ok
}

func toolName(a *Activity, id ToolID) string {
	if t, ok := a.Tool(id); ok {
		return t.Name
	}
	return fmt.Sprintf("tool-%d", id)
}
