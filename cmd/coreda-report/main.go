// Command coreda-report renders a caregiver report from a recorded
// session trace (produced by coreda-sim -record, or by any System wired
// to a trace.Recorder): completion rates, reminder load per step, and
// whether the user's need for assistance is trending up or down.
//
// Usage:
//
//	coreda-report [-user "Mr. Tanaka"] [-watch 2s] trace.jsonl
//
// With -watch the command stays up and polls the trace at the given
// interval, re-rendering the report whenever the trace has gained
// records. Run against a trace that is still being appended to, the
// report refreshes as sessions land.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"coreda"
	"coreda/internal/report"
	"coreda/internal/trace"
)

func main() {
	user := flag.String("user", "the care recipient", "user name shown in the report")
	watch := flag.Duration("watch", 0, "regenerate whenever the trace grows, polling at this interval (0 renders once and exits)")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: coreda-report [-user name] [-watch interval] trace.jsonl")
		os.Exit(2)
	}
	var err error
	if *watch > 0 {
		err = runWatch(*user, flag.Arg(0), *watch)
	} else {
		err = run(*user, flag.Arg(0))
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "coreda-report:", err)
		os.Exit(1)
	}
}

// knownActivities returns step counts and tool names from the standard
// library; activities declared via -activity-file appear with generic
// tool labels.
func knownActivities() (stepCounts map[string]int, toolNames map[uint16]string) {
	stepCounts = map[string]int{}
	toolNames = map[uint16]string{}
	for _, a := range []*coreda.Activity{
		coreda.ToothBrushing(), coreda.TeaMaking(), coreda.HandWashing(), coreda.Medication(), coreda.Dressing(),
	} {
		stepCounts[a.Name] = a.StepCount()
		for id, tool := range a.Tools {
			toolNames[uint16(id)] = tool.Name
		}
	}
	return stepCounts, toolNames
}

// readTrace loads every record of the trace file.
func readTrace(path string) ([]trace.Record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return trace.Read(f)
}

// render prints the report for the given records.
func render(user string, records []trace.Record) {
	stepCounts, toolNames := knownActivities()
	r := report.Build(user, records, stepCounts)
	fmt.Print(r.Render(toolNames))

	sum := trace.Summarize(records)
	fmt.Printf("\ntrace: %d sessions, %d steps, %d idle events, %d reminders, %d praises\n",
		sum.Sessions, sum.Steps, sum.Idles, sum.Reminders, sum.Praises)
}

func run(user, path string) error {
	records, err := readTrace(path)
	if err != nil {
		return err
	}
	render(user, records)
	return nil
}

// runWatch renders once, then polls the trace every interval and
// re-renders it whenever it has gained records.
func runWatch(user, path string, every time.Duration) error {
	seen := -1 // no render yet
	for {
		records, err := readTrace(path)
		if err != nil {
			return err
		}
		if len(records) > seen {
			if seen >= 0 {
				fmt.Printf("\n--- %d new records ---\n", len(records)-seen)
			}
			render(user, records)
			seen = len(records)
		}
		time.Sleep(every)
	}
}
