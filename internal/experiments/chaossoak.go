package experiments

import (
	"fmt"
	"strings"
	"time"

	"coreda"
	"coreda/internal/adl"
	"coreda/internal/chaos"
	"coreda/internal/parrun"
	"coreda/internal/sensornet"
)

// ChaosTrial is one seeded soak trial: the same closed-loop simulation
// run twice — fault-free and under the chaos plan — so the convergence
// penalty of the faults is measured seed by seed rather than against a
// global average.
type ChaosTrial struct {
	// Seed is the trial's simulation seed.
	Seed int64
	// BaselinePrecision is the learned-routine precision with no
	// injector armed (same seed, same supervision).
	BaselinePrecision float64
	// Precision is the learned-routine precision under the chaos plan.
	Precision float64
	// TrainingCompleted is the fraction of chaotic learning sessions in
	// which every step reached the server.
	TrainingCompleted float64
	// AssistCompleted is the fraction of assisted sessions completed
	// after chaotic training.
	AssistCompleted float64
	// Injected counts the faults the injector actually forced.
	Injected chaos.Stats
	// Gateway is the gateway's view of the chaotic run (dedup count,
	// supervision transitions).
	Gateway sensornet.GatewayStats
	// Alerts lists the chaotic run's caregiver alerts in the order
	// raised: one per system-level degraded-mode transition.
	Alerts []coreda.CaregiverAlert
}

// ChaosSoakResult aggregates a chaos soak.
type ChaosSoakResult struct {
	// Plan is the fault schedule every trial ran under.
	Plan chaos.Plan
	// Trials holds the per-seed results, in seed order.
	Trials []ChaosTrial
	// MeanBaseline / MeanPrecision are the average precisions across
	// trials, fault-free vs chaotic.
	MeanBaseline  float64
	MeanPrecision float64
	// MaxPenalty is the largest per-trial precision drop
	// (baseline - chaotic) observed.
	MaxPenalty float64
}

// SoakPlan is the reference fault schedule of the chaos soak: 30 % frame
// loss on top of the medium's own model, a sprinkling of corruption,
// ghost retransmissions and reordering, and two mid-training node crashes
// (tea box, then kettle) that each later reboot.
func SoakPlan() *chaos.Plan {
	return &chaos.Plan{
		Drop:      0.30,
		Corrupt:   0.05,
		Duplicate: 0.05,
		Reorder:   0.05,
		Nodes: []chaos.NodeEvent{
			{At: 10 * time.Second, UID: uint16(adl.ToolTeaBox), Op: chaos.OpCrash},
			{At: 70 * time.Second, UID: uint16(adl.ToolTeaBox), Op: chaos.OpReboot},
			{At: 120 * time.Second, UID: uint16(adl.ToolKettle), Op: chaos.OpCrash},
			{At: 200 * time.Second, UID: uint16(adl.ToolKettle), Op: chaos.OpReboot},
		},
	}
}

// RunChaosSoak runs trials seeded soak trials (each a fault-free and a
// chaotic run of the same seed) across workers (<= 0 means GOMAXPROCS).
// Defaults: 20 trials, 25 learning sessions. Every trial owns its own
// scheduler and RNG streams, so the result is bit-identical at any worker
// count.
func RunChaosSoak(seed int64, trials, trainSessions, workers int) (*ChaosSoakResult, error) {
	if trials <= 0 {
		trials = 20
	}
	if trainSessions <= 0 {
		trainSessions = 25
	}
	const assistSessions = 3
	plan := SoakPlan()
	activity := adl.TeaMaking()
	routine := activity.CanonicalRoutine()

	build := func(trialSeed int64, p *chaos.Plan, onAlert func(coreda.CaregiverAlert)) (*coreda.Simulation, error) {
		user := coreda.NewPersona("soak-user", 0.3)
		user.ComplyMinimal, user.ComplySpecific = 1, 1
		if err := user.SetRoutine(activity, routine); err != nil {
			return nil, err
		}
		return coreda.NewSimulation(coreda.SimulationConfig{
			Activity: activity,
			Persona:  user,
			Seed:     trialSeed,
			Chaos:    p,
			// Supervision is armed in both runs so the baseline differs
			// only by the injector: nodes heartbeat either way.
			Supervise: 5 * time.Second,
			System: coreda.SystemConfig{
				InferSkips:       true,
				AssumeBlindSteps: true,
				Planner:          coreda.PlannerConfig{LearnInitialPrompt: true},
				OnAlert:          onAlert,
			},
		})
	}

	results, err := parrun.Map(trials, workers, func(i int) (ChaosTrial, error) {
		trialSeed := seed + int64(i)
		tr := ChaosTrial{Seed: trialSeed}

		base, err := build(trialSeed, nil, nil)
		if err != nil {
			return ChaosTrial{}, err
		}
		if _, err := base.RunTraining(trainSessions, 5*time.Minute); err != nil {
			return ChaosTrial{}, err
		}
		tr.BaselinePrecision = base.System.Planner().Evaluate([][]adl.StepID{routine})

		sim, err := build(trialSeed, plan, func(a coreda.CaregiverAlert) { tr.Alerts = append(tr.Alerts, a) })
		if err != nil {
			return ChaosTrial{}, err
		}
		completed, err := sim.RunTraining(trainSessions, 5*time.Minute)
		if err != nil {
			return ChaosTrial{}, err
		}
		tr.TrainingCompleted = float64(completed) / float64(trainSessions)
		tr.Precision = sim.System.Planner().Evaluate([][]adl.StepID{routine})

		assisted := 0
		for s := 0; s < assistSessions; s++ {
			res, err := sim.RunSession(coreda.ModeAssist, 10*time.Minute)
			if err != nil {
				return ChaosTrial{}, err
			}
			if res.Completed {
				assisted++
			}
		}
		tr.AssistCompleted = float64(assisted) / float64(assistSessions)

		tr.Injected = sim.Chaos.Stats
		tr.Gateway = sim.Gateway.Stats
		return tr, nil
	})
	if err != nil {
		return nil, err
	}

	out := &ChaosSoakResult{Plan: *plan, Trials: results}
	for _, tr := range results {
		out.MeanBaseline += tr.BaselinePrecision
		out.MeanPrecision += tr.Precision
		if pen := tr.BaselinePrecision - tr.Precision; pen > out.MaxPenalty {
			out.MaxPenalty = pen
		}
	}
	out.MeanBaseline /= float64(len(results))
	out.MeanPrecision /= float64(len(results))
	return out, nil
}

// RenderChaosSoak formats the soak result.
func RenderChaosSoak(r *ChaosSoakResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Chaos soak: %d trials, %.0f%% injected loss, %d node lifecycle events/trial\n",
		len(r.Trials), r.Plan.Drop*100, len(r.Plan.Nodes))
	fmt.Fprintf(&b, "  %6s %10s %10s %8s %8s %9s %9s %9s\n",
		"seed", "baseline", "chaotic", "train", "assist", "offline", "online", "deduped")
	for _, tr := range r.Trials {
		fmt.Fprintf(&b, "  %6d %9.1f%% %9.1f%% %7.0f%% %7.0f%% %9d %9d %9d\n",
			tr.Seed, tr.BaselinePrecision*100, tr.Precision*100,
			tr.TrainingCompleted*100, tr.AssistCompleted*100,
			tr.Gateway.OfflineEvents, tr.Gateway.OnlineEvents, tr.Gateway.Duplicates)
	}
	fmt.Fprintf(&b, "  mean precision: %.1f%% fault-free vs %.1f%% chaotic (max penalty %.1f%%)\n",
		r.MeanBaseline*100, r.MeanPrecision*100, r.MaxPenalty*100)
	return b.String()
}
