// Command perfbench is CoReDA's end-to-end benchmark: the reminding path
// through the fleet runtime, measured as a user of a deployed fleet sees
// it. BENCHMARK.json at the repository root declares its workloads and
// metrics and says why each was chosen.
//
// Run it from the repository root (perfbench/run.sh builds it first):
//
//	bash perfbench/run.sh --workload assist-tcp --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it prints every end-to-end metric; with --trace 1 it
// runs the workload untraced and then again with per-layer wrappers and
// hooks switched on, prints every per-layer metric, the reminder-path
// self-time table and the tracing overhead, and writes the spans under
// .bench_build/perfbench. The last line of standard output is always one
// JSON object: {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	Name string
	Unit string
}

// endToEnd are the gated metrics, measured with tracing off. Every
// workload reports each of them (see BENCHMARK.json for what each means
// on each workload).
var endToEnd = []metricDef{
	{"remind_p50_ms", "ms"},
	{"cpu_us_per_event", "us"},
	{"events_per_s", "1/s"},
	{"heap_per_household_bytes", "bytes"},
	{"store_bytes_per_household", "bytes"},
	{"setup_s", "s"},
}

// perLayer are the traced run's metrics. A workload that does not
// exercise a layer reports 0 for it.
var perLayer = []metricDef{
	{"wire.server_writes_per_report", "count"},
	{"wire.server_reads_per_report", "count"},
	{"wire.bytes_per_report", "bytes"},
	{"wire.server_write_us_p50", "us"},
	{"server.ack_p50_ms", "ms"},
	{"server.read_to_step_us_p50", "us"},
	{"fleet.deliver_us_p50", "us"},
	{"fleet.deliver_us_p99", "us"},
	{"fleet.admissions_per_1k", "count"},
	{"fleet.recovered_per_1k", "count"},
	{"fleet.evictions_per_1k", "count"},
	{"fleet.checkpoints_per_1k", "count"},
	{"fleet.tick_us_p50", "us"},
	{"sim.pending_timers_per_household", "count"},
	{"hub.step_to_reminder_us_p50", "us"},
	{"hub.reminder_to_led_us_p50", "us"},
	{"hub.handle_usage_ns", "ns"},
	{"hub.reminders_per_start", "ratio"},
	{"store.puts_per_household", "count"},
	{"store.put_us_p50", "us"},
	{"store.put_bytes_mean", "bytes"},
	{"store.fsync_puts", "count"},
	{"store.gets_per_household", "count"},
	{"store.get_us_p50", "us"},
	{"notify.checkpoint_waves", "count"},
	{"notify.dropped", "count"},
	{"queue.job_retries", "count"},
	{"go.gc_cycles", "count"},
	{"go.gc_cpu_s", "s"},
	{"go.heap_live_bytes", "bytes"},
	{"loadgen.late_p99_ms", "ms"},
	{"loadgen.max_outstanding_acks", "count"},
	{"host.steal_pct", "%"},
}

// runEnv is one workload run's parameters.
type runEnv struct {
	seed    int64
	seconds int
	// work is a directory inside the checkout the run may fill; it is
	// removed when the run ends.
	work string
}

// outcome is what one run of a workload measured.
type outcome struct {
	attempted, failed int
	e2e               map[string]float64
	layers            map[string]float64
	lines             []string // human-readable report
	// stages is the reminder-path self-time table (traced runs).
	stages []stageRow
	// digest covers what the households learned (the fleet's checkpoint
	// digest) and every LED command the gateways or the probe received,
	// so traced and untraced runs of one seed can be compared.
	digest string
}

func newOutcome() *outcome {
	return &outcome{e2e: make(map[string]float64), layers: make(map[string]float64)}
}

func (o *outcome) printf(format string, args ...any) {
	o.lines = append(o.lines, fmt.Sprintf(format, args...))
}

// fail records n failed operations with the reason.
func (o *outcome) fail(n int, format string, args ...any) {
	if n <= 0 {
		return
	}
	o.failed += n
	o.printf("FAIL (%d): %s", n, fmt.Sprintf(format, args...))
}

// workload runs once; tr is nil for the untraced run.
type workload func(env runEnv, tr *tracer) (*outcome, error)

var workloads = map[string]workload{
	"assist-tcp":     func(env runEnv, tr *tracer) (*outcome, error) { return runAssist(env, 0, tr) },
	"assist-tcp-20k": func(env runEnv, tr *tracer) (*outcome, error) { return runAssist(env, 20000, tr) },
	"churn-40k":      func(env runEnv, tr *tracer) (*outcome, error) { return runChurn(env, 40000, tr) },
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload to run: assist-tcp, assist-tcp-20k or churn-40k")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Int("seconds", 10, "length of the timed window, in seconds")
	trace := flag.Int("trace", 0, "1 adds a traced run that reports per-layer metrics")
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds, trace int) error {
	w, ok := workloads[name]
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	if seconds < 1 || (trace != 0 && trace != 1) {
		return fmt.Errorf("need --seconds >= 1 and --trace 0 or 1")
	}
	// The benchmark's fixed host shape: two processors, two shards.
	runtime.GOMAXPROCS(2)
	out, err := filepath.Abs(filepath.Join(".bench_build", "perfbench"))
	if err != nil {
		return err
	}
	work := filepath.Join(out, "work")
	if err := os.RemoveAll(work); err != nil {
		return err
	}
	defer os.RemoveAll(work)

	once := func(label string, tr *tracer) (*outcome, error) {
		env := runEnv{seed: seed, seconds: seconds, work: filepath.Join(work, label)}
		if err := os.MkdirAll(env.work, 0o755); err != nil {
			return nil, err
		}
		o, err := w(env, tr)
		if err != nil {
			return nil, fmt.Errorf("%s run: %w", label, err)
		}
		// A layer with no samples on this workload reads 0.
		for k, v := range o.layers {
			if math.IsNaN(v) {
				o.layers[k] = 0
			}
		}
		fmt.Printf("== %s %s run (seed %d, %d s)\n", name, label, seed, seconds)
		for _, l := range o.lines {
			fmt.Println(l)
		}
		printMetrics(endToEnd, o.e2e)
		return o, os.RemoveAll(env.work)
	}
	base, err := once("untraced", nil)
	if err != nil {
		return err
	}
	res := result{Attempted: base.attempted, Failed: base.failed, Metrics: pick(endToEnd, base.e2e)}
	if trace == 1 {
		tr := &tracer{}
		traced, err := once("traced", tr)
		if err != nil {
			return err
		}
		printMetrics(perLayer, traced.layers)
		printStages(traced.stages, traced.e2e["remind_p50_ms"], base.e2e["remind_p50_ms"])
		fmt.Println("tracing overhead (traced - untraced):")
		for _, m := range endToEnd {
			fmt.Printf("  %-28s %+14.4f %s\n", m.Name, traced.e2e[m.Name]-base.e2e[m.Name], m.Unit)
		}
		spans := filepath.Join(out, fmt.Sprintf("spans-%s-seed%d.jsonl", name, seed))
		if err := tr.write(spans); err != nil {
			return err
		}
		fmt.Printf("spans: %d written to %s (%d over the cap dropped)\n", len(tr.spans), spans, tr.dropped)
		res = result{Attempted: base.attempted + traced.attempted, Failed: base.failed + traced.failed, Metrics: pick(perLayer, traced.layers)}
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	for n, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s has no value", n)
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func pick(defs []metricDef, vals map[string]float64) map[string]metricOut {
	out := make(map[string]metricOut, len(defs))
	for _, d := range defs {
		out[d.Name] = metricOut{Value: vals[d.Name], Unit: d.Unit}
	}
	return out
}

func printMetrics(defs []metricDef, vals map[string]float64) {
	for _, d := range defs {
		fmt.Printf("  %-34s %16.4f %s\n", d.Name, vals[d.Name], d.Unit)
	}
}

// stageRow is one stage of the reminder path and its self time.
type stageRow struct {
	Name string
	D    dist // microseconds
	// Overlaps marks a row shown beside the tiling stages, not summed.
	Overlaps bool
}

// printStages prints the reminder-path self-time table and how the
// stage medians reconcile with the end-to-end median.
func printStages(rows []stageRow, tracedP50, untracedP50 float64) {
	if len(rows) == 0 {
		return
	}
	fmt.Println("reminder path self time (us):")
	fmt.Printf("  %-30s %8s %10s %10s %10s\n", "stage", "n", "p50", "p99", "mean")
	sum, sumMean := 0.0, 0.0
	for _, r := range rows {
		fmt.Printf("  %-30s %8d %10.1f %10.1f %10.1f\n", r.Name, r.D.N, r.D.P50, r.D.P99, r.D.Mean)
		if !r.Overlaps {
			sum += r.D.P50
			sumMean += r.D.Mean
		}
	}
	fmt.Printf("  sum of stage p50s %.1f us, of means %.1f us; remind_p50 traced %.1f us, untraced %.1f us\n",
		sum, sumMean, tracedP50*1000, untracedP50*1000)
}
