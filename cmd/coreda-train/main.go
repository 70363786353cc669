// Command coreda-train trains a CoReDA policy offline from generated
// training samples (clean complete performances of an ADL, the paper's
// unit of training data) and saves it as a CKPT checkpoint. Saved as
// <dir>/<household>.ckpt, it is the policy coreda-fleet -dir <dir> admits
// that household with.
//
// Usage:
//
//	coreda-train [-activity tea-making] [-user "Mr. Tanaka"] [-episodes 120]
//	             [-routine 2,1,3,4] [-seed 1] [-o policy.ckpt] [-eval policy.ckpt]
//
// -routine gives the user's personal step order as 1-based canonical step
// positions; omitted, the canonical order is used. With -eval, an
// existing policy is evaluated instead of training.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"coreda"
	"coreda/internal/sim"
	"coreda/internal/trace"
)

func main() {
	activityName := flag.String("activity", "tea-making", "activity to train for")
	activityFile := flag.String("activity-file", "", "JSON activity declaration overriding -activity")
	user := flag.String("user", "Mr. Tanaka", "user name recorded in the policy file")
	episodes := flag.Int("episodes", 120, "training samples (paper: 120)")
	routineSpec := flag.String("routine", "", "personal step order, comma-separated 1-based canonical positions")
	seed := flag.Int64("seed", 1, "random seed")
	out := flag.String("o", "policy.ckpt", "output policy file (CKPT checkpoint)")
	eval := flag.String("eval", "", "evaluate an existing policy file instead of training")
	from := flag.String("from", "", "train from a recorded JSON-lines trace (coreda-sim -record) instead of generated samples")
	flag.Parse()

	if err := run(*activityName, *activityFile, *user, *episodes, *routineSpec, *seed, *out, *eval, *from); err != nil {
		fmt.Fprintln(os.Stderr, "coreda-train:", err)
		os.Exit(1)
	}
}

func run(activityName, activityFile, user string, episodes int, routineSpec string, seed int64, out, eval, from string) error {
	activity, err := resolveActivity(activityName, activityFile)
	if err != nil {
		return err
	}
	routine, err := parseRoutine(activity, routineSpec)
	if err != nil {
		return err
	}

	sched := sim.New()
	sys, err := coreda.NewSystem(coreda.SystemConfig{
		Activity: activity,
		UserName: user,
		Seed:     seed,
	}, sched)
	if err != nil {
		return err
	}

	if eval != "" {
		if err := sys.LoadPolicy(eval); err != nil {
			return err
		}
		precision := sys.Planner().Evaluate([][]coreda.StepID{routine})
		fmt.Printf("policy %s: routine precision %.1f%% on %s\n", eval, precision*100, describeRoutine(activity, routine))
		printPolicy(sys, activity, routine)
		return nil
	}

	var train [][]coreda.StepID
	if from != "" {
		recorded, err := loadRecordedEpisodes(from, activity)
		if err != nil {
			return err
		}
		// Cycle the recorded history until the requested episode budget
		// is met (a small household archive still trains fully).
		for len(train) < episodes {
			train = append(train, recorded...)
		}
		train = train[:episodes]
		fmt.Printf("training from %d recorded episodes in %s\n", len(recorded), from)
	} else {
		train = make([][]coreda.StepID, episodes)
		for i := range train {
			train[i] = routine
		}
	}
	if err := sys.TrainEpisodes(train); err != nil {
		return err
	}
	precision := sys.Planner().Evaluate([][]coreda.StepID{routine})
	fmt.Printf("trained %d episodes on %s for %q\n", len(train), activity.Name, user)
	fmt.Printf("routine: %s\n", describeRoutine(activity, routine))
	fmt.Printf("greedy-policy precision: %.1f%%\n", precision*100)
	printPolicy(sys, activity, routine)

	// The output may go straight into a fleet checkpoint directory that
	// does not exist yet (-o fleet-policies/home.ckpt).
	if err := os.MkdirAll(filepath.Dir(out), 0o755); err != nil {
		return err
	}
	if err := sys.SavePolicy(out); err != nil {
		return err
	}
	fmt.Printf("policy saved to %s\n", out)
	return nil
}

// loadRecordedEpisodes reads a trace file and returns the complete
// episodes of the given activity (partial sessions — e.g. a step missed
// by the sensors — are dropped).
func loadRecordedEpisodes(path string, a *coreda.Activity) ([][]coreda.StepID, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	records, err := trace.Read(f)
	if err != nil {
		return nil, err
	}
	var complete [][]coreda.StepID
	for _, ep := range trace.Episodes(records)[a.Name] {
		if len(ep) == a.StepCount() {
			complete = append(complete, ep)
		}
	}
	if len(complete) == 0 {
		return nil, fmt.Errorf("no complete %s episodes in %s", a.Name, path)
	}
	return complete, nil
}

// parseRoutine converts "2,1,3,4" into a Routine over the activity's
// canonical steps.
func parseRoutine(a *coreda.Activity, spec string) (coreda.Routine, error) {
	if spec == "" {
		return a.CanonicalRoutine(), nil
	}
	canonical := a.StepIDs()
	parts := strings.Split(spec, ",")
	if len(parts) != len(canonical) {
		return nil, fmt.Errorf("routine needs %d positions, got %d", len(canonical), len(parts))
	}
	r := make(coreda.Routine, len(parts))
	for i, p := range parts {
		pos, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || pos < 1 || pos > len(canonical) {
			return nil, fmt.Errorf("bad routine position %q", p)
		}
		r[i] = canonical[pos-1]
	}
	if err := r.Validate(a); err != nil {
		return nil, err
	}
	return r, nil
}

func describeRoutine(a *coreda.Activity, r coreda.Routine) string {
	names := make([]string, len(r))
	for i, id := range r {
		if s, ok := a.StepByID(id); ok {
			names[i] = s.Name
		}
	}
	return strings.Join(names, " -> ")
}

func printPolicy(sys *coreda.System, a *coreda.Activity, routine coreda.Routine) {
	fmt.Println("learned prompts along the routine:")
	prev := coreda.StepIdle
	for i := 0; i+1 < len(routine); i++ {
		prompt, ok := sys.Planner().Predict(prev, routine[i])
		cur, _ := a.StepByID(routine[i])
		if !ok {
			fmt.Printf("  after %-30q -> (no prediction)\n", cur.Name)
		} else {
			tool, _ := a.Tool(prompt.Tool)
			fmt.Printf("  after %-30q -> prompt %q (%s)\n", cur.Name, tool.Name, prompt.Level)
		}
		prev = routine[i]
	}
}

func resolveActivity(name, file string) (*coreda.Activity, error) {
	if file != "" {
		return coreda.LoadActivityFile(file)
	}
	return findActivity(name)
}

func findActivity(name string) (*coreda.Activity, error) {
	for _, a := range []*coreda.Activity{
		coreda.ToothBrushing(), coreda.TeaMaking(), coreda.HandWashing(), coreda.Medication(), coreda.Dressing(),
	} {
		if a.Name == name {
			return a, nil
		}
	}
	return nil, fmt.Errorf("unknown activity %q", name)
}
