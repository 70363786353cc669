// Command coreda-node simulates the sensor nodes of an activity over TCP:
// it connects one node per tool to coreda-fleet, acts out the user's
// routine (with configurable freezes and wrong tools), reacts to LED
// commands, and prints what "the user" experiences.
//
// Usage:
//
//	coreda-node [-addr localhost:7100] [-activity tea-making]
//	            [-sessions 3] [-severity 0.3] [-speed 1] [-seed 1]
//	            [-heartbeat 10s] [-household tanaka-42]
//
// -household opens every node connection with a hello frame naming the
// household the fleet routes on; without it the nodes are served as the
// fleet's -default-household.
//
// speed scales the pacing: at -speed 10 a 4-second gesture takes 0.4
// wall-clock seconds (use the same factor as the server).
//
// -heartbeat makes every node send liveness beacons at the given
// activity-time interval (scaled by -speed like everything else); pair it
// with coreda-fleet -supervise so silent nodes are detected.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"time"

	"coreda"
	"coreda/internal/adl"
	"coreda/internal/rtbridge"
	"coreda/internal/wire"
)

func main() {
	addr := flag.String("addr", "localhost:7100", "coreda-fleet address")
	activityName := flag.String("activity", "tea-making", "activity to perform")
	activityFile := flag.String("activity-file", "", "JSON activity declaration overriding -activity")
	sessions := flag.Int("sessions", 3, "how many times to perform the activity")
	severity := flag.Float64("severity", 0.3, "dementia severity in [0,1]")
	speed := flag.Float64("speed", 1, "pacing speed-up factor (match the server)")
	seed := flag.Int64("seed", 1, "random seed")
	heartbeat := flag.Duration("heartbeat", 0, "liveness beacon interval in activity time (0 disables)")
	household := flag.String("household", "", "household to greet as (empty sends no hello: the fleet's default household)")
	flag.Parse()

	if err := run(*addr, *activityName, *activityFile, *household, *sessions, *severity, *speed, *seed, *heartbeat); err != nil {
		fmt.Fprintln(os.Stderr, "coreda-node:", err)
		os.Exit(1)
	}
}

// prompt is what the user perceives from the LEDs: which tool lit green.
type prompt struct {
	tool     adl.ToolID
	specific bool
}

func run(addr, activityName, activityFile, household string, sessions int, severity, speed float64, seed int64, heartbeat time.Duration) error {
	activity, err := resolveActivity(activityName, activityFile)
	if err != nil {
		return err
	}
	user := coreda.NewPersona("node-user", severity)
	if err := user.SetRoutine(activity, activity.CanonicalRoutine()); err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(seed))
	start := time.Now()
	elapsed := func() time.Duration { return time.Since(start) }
	pace := func(d time.Duration) { time.Sleep(time.Duration(float64(d) / speed)) }

	prompts := make(chan prompt, 16)
	nodes := map[adl.ToolID]*rtbridge.NodeClient{}
	for _, id := range adl.SortedToolIDs(activity.Tools) {
		id := id
		n, err := rtbridge.DialNode(addr, uint16(id), func(e rtbridge.LEDEvent) {
			name := toolName(activity, id)
			fmt.Printf("  [node %d] %s LED blinks x%d on %s\n", id, e.Color, e.Blinks, name)
			if e.Color == wire.LEDGreen && e.Blinks > 0 {
				select {
				case prompts <- prompt{tool: id, specific: e.Blinks > 4}:
				default:
				}
			}
		})
		if err != nil {
			return fmt.Errorf("dial node %d: %w", id, err)
		}
		defer n.Close()
		if household != "" {
			if err := n.Hello(household); err != nil {
				return fmt.Errorf("hello from node %d: %w", id, err)
			}
		}
		nodes[id] = n
	}

	if heartbeat > 0 {
		stop := make(chan struct{})
		defer close(stop)
		go func() {
			tick := time.NewTicker(time.Duration(float64(heartbeat) / speed))
			defer tick.Stop()
			for {
				select {
				case <-tick.C:
					for _, id := range adl.SortedToolIDs(activity.Tools) {
						if err := nodes[id].Heartbeat(elapsed()); err != nil {
							return
						}
					}
				case <-stop:
					return
				}
			}
		}()
	}

	use := func(step adl.Step) error {
		fmt.Printf("user: %s (%s)\n", step.Name, toolName(activity, step.Tool))
		n := nodes[step.Tool]
		if err := n.UseStart(elapsed(), 5); err != nil {
			return err
		}
		pace(step.TypicalDuration)
		return n.UseEnd(elapsed(), step.TypicalDuration)
	}

	routine := activity.CanonicalRoutine()
	for s := 0; s < sessions; s++ {
		fmt.Printf("--- session %d/%d ---\n", s+1, sessions)
		for i := 0; i < len(routine); {
			step, _ := activity.StepByID(routine[i])
			pace(2 * time.Second)
			switch {
			case i > 0 && rng.Float64() < user.FreezeProb:
				fmt.Println("user: ...freezes, waiting for a reminder...")
				p := <-prompts
				if st, ok := activity.StepByID(adl.StepOf(p.tool)); ok {
					if err := use(st); err != nil {
						return err
					}
					if st.ID() == routine[i] {
						i++
					}
				}
			case i > 0 && rng.Float64() < user.WrongToolProb:
				wrong := routine[(i+1)%len(routine)]
				st, _ := activity.StepByID(wrong)
				fmt.Printf("user: (confused) reaches for the %s\n", toolName(activity, st.Tool))
				if err := use(st); err != nil {
					return err
				}
				p := <-prompts
				if st2, ok := activity.StepByID(adl.StepOf(p.tool)); ok {
					if err := use(st2); err != nil {
						return err
					}
					if st2.ID() == routine[i] {
						i++
					}
				}
			default:
				if err := use(step); err != nil {
					return err
				}
				i++
			}
		}
		pace(3 * time.Second)
	}
	fmt.Println("done")
	return nil
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

func toolName(a *coreda.Activity, id adl.ToolID) string {
	if t, ok := a.Tool(id); ok {
		return t.Name
	}
	return fmt.Sprintf("tool-%d", id)
}
