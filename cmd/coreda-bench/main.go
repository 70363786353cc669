// Command coreda-bench regenerates every table and figure of the CoReDA
// paper's evaluation, printing the paper's reported numbers next to the
// measured ones, plus the ablations described in DESIGN.md.
//
// Usage:
//
//	coreda-bench [-seed N] [-samples N] [-episodes N] [-workers N] [table3|figure4|table4|figure1|ablations|comparison|chaos|fleet|fleetidle|cluster|sweeps|all]
//
// The fleet workload (-households, -fleet-shards, -fleet-sessions,
// -fleet-jobfail, -fleet-json) soaks the multi-tenant runtime of
// internal/fleet; its stdout is deterministic and independent of shard
// count and job-failure injection, while -fleet-json records this run's
// wall-clock throughput.
//
// The fleetidle workload (-households, -idle-active, -idle-ticks,
// -fleet-json) measures the clock-pump cost over a mostly-idle resident
// population under the due-time tenant index; it is excluded from "all"
// because it is a throughput probe, not an experiment of the paper.
//
// The cluster workload (-cluster-households, -cluster-sessions,
// -cluster-json) re-runs the soak as 1, 2 and 3 cooperating worker
// processes (internal/cluster) and gates their combined policy digests
// against the single-process baseline; it is excluded from "all" because
// it re-execs the binary (cluster.MaybeWorker intercepts the workers).
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"coreda/internal/cluster"
	"coreda/internal/experiments"
)

func main() {
	cluster.MaybeWorker()
	seed := flag.Int64("seed", 1, "master random seed")
	samples := flag.Int("samples", 40, "samples per step for table 3 (paper: 40)")
	episodes := flag.Int("episodes", 120, "training samples per ADL for figure 4 (paper: 120)")
	incidents := flag.Int("incidents", 30, "test samples per ADL for table 4 (paper: 30)")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0),
		"worker goroutines for multi-trial experiments (1 = fully sequential; output is identical at any value)")
	households := flag.Int("households", 256, "simulated households for the fleet workload")
	fleetShards := flag.Int("fleet-shards", 0, "fleet shard count (0 = GOMAXPROCS; stdout is identical at any value)")
	fleetSessions := flag.Int("fleet-sessions", 4, "sessions per household for the fleet workload")
	fleetJSON := flag.String("fleet-json", "", "write fleet throughput (events/sec, households/shard) to this JSON file")
	fleetJobFail := flag.Float64("fleet-jobfail", 0, "chaos job-failure probability for checkpoint writes (stdout is identical at any value)")
	idleActive := flag.Int("idle-active", 100, "mid-session households for the fleetidle workload (the rest are fully idle)")
	idleTicks := flag.Int("idle-ticks", 5000, "clock-pump ticks for the fleetidle workload")
	clusterHouseholds := flag.Int("cluster-households", 24, "simulated households for the cluster workload")
	clusterSessions := flag.Int("cluster-sessions", 4, "sessions per household for the cluster workload")
	clusterJSON := flag.String("cluster-json", "", "write cluster throughput (events/sec at 1/2/3 procs) to this JSON file")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the selected experiments to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile taken after the selected experiments to this file")
	flag.Parse()

	which := "all"
	if flag.NArg() > 0 {
		which = flag.Arg(0)
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "coreda-bench: cpuprofile: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "coreda-bench: cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "coreda-bench: memprofile: %v\n", err)
				os.Exit(1)
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "coreda-bench: memprofile: %v\n", err)
				os.Exit(1)
			}
		}()
	}

	run := func(name string, fn func() error) {
		if which != "all" && which != name {
			return
		}
		if err := fn(); err != nil {
			fmt.Fprintf(os.Stderr, "coreda-bench: %s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Println()
	}

	run("table1", func() error {
		fmt.Print(experiments.RenderTable1())
		return nil
	})
	run("table2", func() error {
		fmt.Print(experiments.RenderTable2())
		return nil
	})
	run("figure1", func() error {
		tl, err := experiments.RunFigure1(*seed)
		if err != nil {
			return err
		}
		fmt.Print(experiments.RenderFigure1(tl))
		return nil
	})
	run("table3", func() error {
		res, err := experiments.RunTable3(*seed, *samples)
		if err != nil {
			return err
		}
		fmt.Print(experiments.RenderTable3(res))
		return nil
	})
	run("figure4", func() error {
		res, err := experiments.RunFigure4(*seed, *episodes, *workers)
		if err != nil {
			return err
		}
		fmt.Print(experiments.RenderFigure4(res))
		return nil
	})
	run("table4", func() error {
		res, err := experiments.RunTable4(*seed, *incidents)
		if err != nil {
			return err
		}
		fmt.Print(experiments.RenderTable4(res))
		return nil
	})
	run("ablations", func() error {
		lam, err := experiments.RunLambdaAblation(*workers)
		if err != nil {
			return err
		}
		fmt.Print(experiments.RenderAblation("Ablation: eligibility-trace decay (plain TD(lambda))", lam, ""))
		fast, err := experiments.RunFastLearningAblation(*workers)
		if err != nil {
			return err
		}
		fmt.Print(experiments.RenderAblation("Ablation: fast learning (paper future-work item 2)", fast, ""))
		rew, err := experiments.RunRewardAblation(*workers)
		if err != nil {
			return err
		}
		fmt.Print(experiments.RenderAblation("Ablation: reward ratio vs prompt level", rew, "fraction minimal prompts"))
		c, n, err := experiments.RunLevelAdaptation(*seed, *workers)
		if err != nil {
			return err
		}
		fmt.Println("Ablation: closed-loop level adaptation")
		fmt.Printf("  compliant user:     minimal fraction = %.2f\n", c)
		fmt.Printf("  non-compliant user: minimal fraction = %.2f\n", n)
		algos, err := experiments.RunAlgorithmComparison(*workers)
		if err != nil {
			return err
		}
		fmt.Print(experiments.RenderAlgorithms(algos))
		return nil
	})
	run("comparison", func() error {
		rows, err := experiments.RunBaselineComparison(*seed, *workers)
		if err != nil {
			return err
		}
		fmt.Print(experiments.RenderComparison(rows))
		return nil
	})
	run("chaos", func() error {
		soak, err := experiments.RunChaosSoak(*seed, 20, 25, *workers)
		if err != nil {
			return err
		}
		fmt.Print(experiments.RenderChaosSoak(soak))
		return nil
	})
	run("fleet", func() error {
		return runFleetBench(*seed, *households, *fleetShards, *fleetSessions, *workers, *fleetJobFail, *fleetJSON)
	})
	// Opt-in only (not part of "all"): a throughput probe of the clock
	// pump, not an experiment of the paper.
	if which == "fleetidle" {
		if err := runFleetIdleBench(*seed, *households, *idleActive, *idleTicks, *fleetShards, *fleetJSON); err != nil {
			fmt.Fprintf(os.Stderr, "coreda-bench: fleetidle: %v\n", err)
			os.Exit(1)
		}
		fmt.Println()
	}
	// Opt-in only (not part of "all"): spawns worker processes.
	if which == "cluster" {
		if err := runClusterBench(*seed, *clusterHouseholds, *clusterSessions, *clusterJSON); err != nil {
			fmt.Fprintf(os.Stderr, "coreda-bench: cluster: %v\n", err)
			os.Exit(1)
		}
		fmt.Println()
	}
	run("sweeps", func() error {
		noise, err := experiments.RunNoiseSweep(*seed, 25, *workers)
		if err != nil {
			return err
		}
		fmt.Print(experiments.RenderNoiseSweep(noise))
		loss, err := experiments.RunLossSweep(*seed, 40, 8, *workers)
		if err != nil {
			return err
		}
		fmt.Print(experiments.RenderLossSweep(loss))
		noisyTrain, err := experiments.RunNoisyTraining(*seed, *episodes)
		if err != nil {
			return err
		}
		fmt.Print(experiments.RenderNoisyTraining(noisyTrain))
		return nil
	})

	switch which {
	case "all", "table1", "table2", "table3", "figure4", "table4", "figure1", "ablations", "comparison", "chaos", "fleet", "fleetidle", "cluster", "sweeps":
	default:
		fmt.Fprintf(os.Stderr, "coreda-bench: unknown experiment %q\n", which)
		os.Exit(2)
	}
}
