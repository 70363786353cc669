package main

import (
	"fmt"
	"sync"
	"time"

	"coreda"
	"coreda/internal/adl"
	"coreda/internal/fleet"
	"coreda/internal/rl"
	"coreda/internal/sim"
	"coreda/internal/store"
	"coreda/internal/wire"
)

const (
	// shards is the shard count of every fleet the benchmark builds.
	shards = 2
	// trainEpisodes is how many canonical tea-making episodes a trained
	// household has seen: the paper's Figure 4 count.
	trainEpisodes = 120
	// prototypes is how many distinct trained policies the 20k
	// residents share. Training 20k planners would dominate input
	// preparation; every resident still holds a 120-episode policy.
	prototypes = 16
)

// newSystemFunc returns the fleet's per-household SystemConfig builder.
// Households in assist lead a tea-making life in assist mode; the rest
// learn (the soak's configuration). hooks, when non-nil, supplies the
// traced System hooks of a household.
func newSystemFunc(seed int64, assist func(string) bool, hooks func(string) *hubTrace) func(string) (coreda.SystemConfig, error) {
	return func(household string) (coreda.SystemConfig, error) {
		cfg := coreda.SystemConfig{
			Activity: adl.TeaMaking(),
			UserName: household,
			Seed:     fleet.SeedFor(seed, household),
		}
		if assist(household) {
			cfg.DefaultMode = coreda.ModeAssist
		}
		if hooks != nil {
			if h := hooks(household); h != nil {
				cfg.OnStep = func(e coreda.StepEvent) {
					if !e.Idle {
						h.steps = append(h.steps, clock())
					}
				}
				cfg.OnReminder = func(coreda.Reminder) { h.reminders = append(h.reminders, clock()) }
			}
		}
		return cfg, nil
	}
}

// gatewayHouseholds names the two gateway homes, one per shard.
func gatewayHouseholds() [2]string {
	var out [2]string
	found := [2]bool{}
	for i := 0; !found[0] || !found[1]; i++ {
		name := fmt.Sprintf("home-%d", i)
		s := fleet.ShardOf(name, shards)
		if !found[s] {
			out[s], found[s] = name, true
		}
	}
	return out
}

// trainedPlanner trains a fresh System's planner on the canonical
// routine with the given seed.
func trainedPlanner(seed int64, household string) (*coreda.System, error) {
	act := adl.TeaMaking()
	sys, err := coreda.NewSystem(coreda.SystemConfig{Activity: act, UserName: household, Seed: seed}, sim.New())
	if err != nil {
		return nil, err
	}
	episodes := make([][]coreda.StepID, trainEpisodes)
	for i := range episodes {
		episodes[i] = act.StepIDs()
	}
	if err := sys.TrainEpisodes(episodes); err != nil {
		return nil, err
	}
	return sys, nil
}

// writeTrained stores a 120-episode checkpoint for every named household
// in the fleet's own format. Households listed in own train on their own
// seed; the rest share prototype policies.
func writeTrained(b store.Backend, seed int64, own []string, shared []string) error {
	act := adl.TeaMaking()
	enc := store.EncodeRoutines([]adl.Routine{act.CanonicalRoutine()})
	save := func(sv *store.MultiSaver, name string, sys *coreda.System) error {
		p := sys.Planner()
		return sv.Save(b, name, name, act.Name, enc, []*rl.QTable{p.Table()},
			[]store.TrainState{{Episodes: p.Episodes, Epsilon: p.Epsilon()}}, false)
	}
	var sv store.MultiSaver
	for _, name := range own {
		sys, err := trainedPlanner(fleet.SeedFor(seed, name), name)
		if err != nil {
			return err
		}
		if err := save(&sv, name, sys); err != nil {
			return err
		}
	}
	if len(shared) == 0 {
		return nil
	}
	protos := make([]*coreda.System, prototypes)
	for i := range protos {
		sys, err := trainedPlanner(fleet.SeedFor(seed, fmt.Sprintf("prototype-%d", i)), "prototype")
		if err != nil {
			return err
		}
		protos[i] = sys
	}
	const writers = 2
	errs := make([]error, writers)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var sv store.MultiSaver
			for i := w; i < len(shared); i += writers {
				if err := save(&sv, shared[i], protos[i%prototypes]); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// ledCmd is one LED write-back as a gateway sees it.
type ledCmd struct {
	UID    uint16
	Color  wire.LEDColor
	Blinks uint8
}

// expectedLED is a reference LED command and the report that caused it.
type expectedLED struct {
	ledCmd
	Report int
}

// reminderOrdinals gives, for each reference LED command, the index of
// the reminder that issued it: one reminder's commands share a report.
func reminderOrdinals(leds []expectedLED) []int {
	out := make([]int, len(leds))
	m := -1
	for pos, e := range leds {
		if pos == 0 || leds[pos-1].Report != e.Report {
			m++
		}
		out[pos] = m
	}
	return out
}

// ledRecorder is a reminding.LEDs that tags each command with the
// report being replayed.
type ledRecorder struct {
	report int
	out    []expectedLED
}

func (r *ledRecorder) Blink(tool coreda.ToolID, color wire.LEDColor, blinks int, _ time.Duration) {
	r.out = append(r.out, expectedLED{ledCmd: ledCmd{UID: uint16(tool), Color: color, Blinks: clampBlinks(blinks)}, Report: r.report})
}

// clampBlinks mirrors the wire field's range, as the server does.
func clampBlinks(n int) uint8 {
	if n < 0 {
		return 0
	}
	if n > 255 {
		return 255
	}
	return uint8(n)
}

// replayResult is what a standalone replay of a report stream produced.
type replayResult struct {
	leds      []expectedLED
	calls     int     // HandleUsage calls
	handleNS  float64 // time inside HandleUsage
	starts    int
	reminders int
}

// standaloneHub builds one household's stack on its own scheduler, as the
// fleet would admit it: the same SystemConfig, and the policy restored
// from its checkpoint when the backend has one.
func standaloneHub(newSys func(string) (coreda.SystemConfig, error), b store.Backend, household string, leds *ledRecorder) (*sim.Scheduler, *coreda.Hub, *coreda.System, error) {
	cfg, err := newSys(household)
	if err != nil {
		return nil, nil, nil, err
	}
	if leds != nil {
		cfg.LEDs = leds
	}
	sched := sim.New()
	hub := coreda.NewHub(sched)
	sys, err := hub.Add(cfg)
	if err != nil {
		return nil, nil, nil, err
	}
	if b == nil {
		return sched, hub, sys, nil
	}
	var c store.Checkpoint
	if err := store.LoadCheckpoint(b, household, &c); err != nil {
		return nil, nil, nil, fmt.Errorf("replay %s: %w", household, err)
	}
	if len(c.Policies) != 1 {
		return nil, nil, nil, fmt.Errorf("replay %s: %d policies", household, len(c.Policies))
	}
	p := sys.Planner()
	if err := p.Table().SetValues(c.Policies[0].Q); err != nil {
		return nil, nil, nil, err
	}
	p.Restore(c.Policies[0].Episodes, c.Policies[0].Epsilon)
	return sched, hub, sys, nil
}

// replaySchedule feeds a gateway schedule through a standalone hub the
// way the server turns frames into events (heartbeats only register a
// node, so they are skipped), and records the LED commands each report
// causes.
func replaySchedule(newSys func(string) (coreda.SystemConfig, error), b store.Backend, sch schedule) (replayResult, error) {
	rec := &ledRecorder{}
	sched, hub, sys, err := standaloneHub(newSys, b, sch.Household, rec)
	if err != nil {
		return replayResult{}, err
	}
	var res replayResult
	for i, r := range sch.Reports {
		ev, ok := usageOf(r, r.Due)
		if !ok {
			continue
		}
		sched.RunUntil(r.Due)
		rec.report = i
		t0 := clock()
		hub.HandleUsage(ev)
		res.handleNS += float64(clock() - t0)
		res.calls++
		if r.Kind == wire.TypeUsageStart {
			res.starts++
		}
	}
	res.leds = rec.out
	res.reminders = sys.Stats().Reminding.Reminders
	return res, nil
}

// usageOf is the usage event the fleet server builds from a report.
func usageOf(r report, at time.Duration) (coreda.UsageEvent, bool) {
	switch r.Kind {
	case wire.TypeUsageStart:
		return coreda.UsageEvent{Tool: coreda.ToolID(r.UID), Kind: coreda.UsageStarted, At: at, Hits: int(r.Hits)}, true
	case wire.TypeUsageEnd:
		return coreda.UsageEvent{Tool: coreda.ToolID(r.UID), Kind: coreda.UsageEnded, At: at, Duration: time.Duration(r.DurMs) * time.Millisecond}, true
	}
	return coreda.UsageEvent{}, false
}
