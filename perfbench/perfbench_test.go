package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"
	"time"

	"coreda/internal/wire"
)

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	d := summarize(xs)
	if d.N != 10 || d.P50 != 5 || d.P99 != 10 || d.Mean != 5.5 {
		t.Fatalf("summarize = %+v, want N=10 P50=5 P99=10 Mean=5.5", d)
	}
	if !reflect.DeepEqual(xs, []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}) {
		t.Fatal("summarize reordered its input")
	}
	sorted := []float64{1, 2, 3, 4}
	for _, c := range []struct{ p, want float64 }{{1, 1}, {25, 1}, {26, 2}, {50, 2}, {51, 3}, {75, 3}, {100, 4}} {
		if got := percentile(sorted, c.p); got != c.want {
			t.Errorf("percentile(%v, %v) = %v, want %v", sorted, c.p, got, c.want)
		}
	}
	if got := summarize(nil); got.N != 0 || !math.IsNaN(got.P50) {
		t.Errorf("summarize(nil) = %+v, want N=0 and NaN", got)
	}
	for _, c := range []struct {
		n    int
		want float64
	}{{5, 0}, {10, 0}, {100, 90}, {1000, 99}, {2000, 99.5}} {
		if got := supportedPercentile(c.n); got != c.want {
			t.Errorf("supportedPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestScheduleSameSeedSameTraffic(t *testing.T) {
	a := newSchedule(7, 0, "home-0", 2*time.Second)
	b := newSchedule(7, 0, "home-0", 2*time.Second)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different schedules")
	}
	if c := newSchedule(8, 0, "home-0", 2*time.Second); reflect.DeepEqual(a.Reports, c.Reports) {
		t.Fatal("different seeds gave the same schedule")
	}
	starts, wrong := 0, 0
	var prev uint16
	pos := 0
	tools := teaTools()
	for i, r := range a.Reports {
		if i > 0 && (r.Due < a.Reports[i-1].Due || r.Batch < a.Reports[i-1].Batch) {
			t.Fatalf("report %d goes back in time", i)
		}
		if r.Kind != wire.TypeUsageStart {
			continue
		}
		starts++
		if r.UID == prev {
			t.Fatalf("report %d repeats tool %d: the sensing merge rule would fold it", i, r.UID)
		}
		prev = r.UID
		if r.UID != tools[pos] {
			wrong++
			continue
		}
		pos = (pos + 1) % len(tools)
	}
	if n := len(a.Reports); n < 1800 || n > 2200 {
		t.Errorf("%d reports in 2 s, want about 2000", n)
	}
	if share := float64(wrong) / float64(starts); share < 0.2 || share > 0.3 {
		t.Errorf("wrong-tool share %.3f, want about 1/4", share)
	}
}

func TestAssistTCPShortRunMatchesReferenceReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("drives a TCP fleet for a second")
	}
	out, err := runAssist(runEnv{seed: 3, seconds: 1, work: t.TempDir()}, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.failed != 0 || out.attempted == 0 {
		t.Fatalf("failed %d of %d:\n%v", out.failed, out.attempted, out.lines)
	}
	for _, m := range endToEnd {
		if v := out.e2e[m.Name]; !(v > 0) {
			t.Errorf("%s = %v, want > 0", m.Name, v)
		}
	}
}

// The tracing wrappers and hooks must not change what households learn
// or which LED commands they receive.
func TestTracingIsTransparent(t *testing.T) {
	if testing.Short() {
		t.Skip("runs each workload twice")
	}
	for _, c := range []struct {
		name string
		run  func(runEnv, *tracer) (*outcome, error)
	}{
		{"assist-tcp", func(env runEnv, tr *tracer) (*outcome, error) { return runAssist(env, 0, tr) }},
		{"churn", func(env runEnv, tr *tracer) (*outcome, error) { return runChurn(env, 500, tr) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			plain, err := c.run(runEnv{seed: 5, seconds: 1, work: t.TempDir()}, nil)
			if err != nil {
				t.Fatal(err)
			}
			traced, err := c.run(runEnv{seed: 5, seconds: 1, work: t.TempDir()}, &tracer{})
			if err != nil {
				t.Fatal(err)
			}
			for _, o := range []*outcome{plain, traced} {
				if o.failed != 0 {
					t.Fatalf("failed %d of %d:\n%v", o.failed, o.attempted, o.lines)
				}
			}
			if plain.digest != traced.digest {
				t.Fatalf("digest untraced %s, traced %s", plain.digest, traced.digest)
			}
		})
	}
}

// BENCHMARK.json at the repository root declares the metrics this
// program prints; the two lists must agree name for name and unit for
// unit.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(b.EndToEnd, endToEnd) {
		t.Errorf("end_to_end = %v, program prints %v", b.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(b.PerLayer, perLayer) {
		t.Errorf("per_layer = %v, program prints %v", b.PerLayer, perLayer)
	}
	for _, w := range b.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %s is not implemented", w.Name)
		}
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("%d workloads declared, %d implemented", len(b.Workloads), len(workloads))
	}
}
