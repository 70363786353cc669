package experiments

import (
	"crypto/sha256"
	"fmt"
	"reflect"
	"testing"
)

// TestChaosSoakInvariants is the robustness acceptance soak: 20 seeded
// trials under 30 % injected loss plus two node crashes each, checking
// that the closed loop degrades gracefully instead of collapsing.
func TestChaosSoakInvariants(t *testing.T) {
	r, err := RunChaosSoak(1, 20, 25, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Trials) != 20 {
		t.Fatalf("got %d trials, want 20", len(r.Trials))
	}
	for _, tr := range r.Trials {
		// The scripted plan must have executed in full: every lifecycle
		// event fired and every fault dimension was exercised.
		if tr.Injected.NodeEvents != 4 {
			t.Errorf("seed %d: %d node events fired, want 4", tr.Seed, tr.Injected.NodeEvents)
		}
		if tr.Injected.Dropped == 0 || tr.Injected.Corrupted == 0 ||
			tr.Injected.Duplicated == 0 || tr.Injected.Reordered == 0 {
			t.Errorf("seed %d: some fault dimension never fired: %+v", tr.Seed, tr.Injected)
		}
		// Supervision saw both crashes, and every offline declaration was
		// matched by a recovery (nodes end the run alive); the system's
		// degraded-mode transitions mirror the gateway's.
		if tr.Gateway.OfflineEvents < 2 {
			t.Errorf("seed %d: %d offline events, want >= 2 (two crashes)", tr.Seed, tr.Gateway.OfflineEvents)
		}
		if tr.Gateway.OnlineEvents < tr.Gateway.OfflineEvents-1 {
			t.Errorf("seed %d: %d online events for %d offline", tr.Seed, tr.Gateway.OnlineEvents, tr.Gateway.OfflineEvents)
		}
		degraded, recoveries := 0, 0
		for _, a := range tr.Alerts {
			if a.Recovered {
				recoveries++
			} else {
				degraded++
			}
		}
		if degraded < 2 || recoveries < degraded-1 {
			t.Errorf("seed %d: degraded=%d recoveries=%d", tr.Seed, degraded, recoveries)
		}
		// Injected duplicates reached the gateway and were absorbed by
		// sequence dedup rather than double-counted as usage.
		if tr.Gateway.Duplicates == 0 {
			t.Errorf("seed %d: gateway deduplicated nothing despite injected duplicates", tr.Seed)
		}
		// Learning survived: no trial collapses to a useless policy.
		if tr.Precision <= 0 {
			t.Errorf("seed %d: chaotic precision collapsed to %v", tr.Seed, tr.Precision)
		}
		if tr.TrainingCompleted < 0.3 {
			t.Errorf("seed %d: only %.0f%% of training sessions completed", tr.Seed, tr.TrainingCompleted*100)
		}
	}
	// Convergence penalty is bounded: on average the chaos costs a few
	// points, and no single seed loses more than one precision quantum
	// (one wrong transition out of the routine's three scored steps).
	if pen := r.MeanBaseline - r.MeanPrecision; pen > 0.15 {
		t.Errorf("mean convergence penalty %.1f%% exceeds 15%%", pen*100)
	}
	if r.MaxPenalty > 1.0/3+1e-9 {
		t.Errorf("max per-seed penalty %.1f%% exceeds one precision quantum", r.MaxPenalty*100)
	}
}

// TestChaosSoakWorkerParity pins the determinism contract at the exact
// worker counts of the acceptance criterion: workers=4 must reproduce the
// sequential workers=1 soak bit for bit.
func TestChaosSoakWorkerParity(t *testing.T) {
	seq, err := RunChaosSoak(1, 20, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := RunChaosSoak(1, 20, 10, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Errorf("workers=4 soak differs from workers=1:\nseq: %+v\npar: %+v", seq, par)
	}
}

// chaosAlertDigest is the SHA-256 of every caregiver alert of the
// 20-trial, 25-session chaos soak's chaotic runs, one "trial tool
// recovered at" line each.
const chaosAlertDigest = "58a0d9f5ffbfe04c8c65a17e9f119716324b04108516754596f1bf64d21be4fb"

// TestChaosSoakTransitionDigest pins when supervision declares each node
// offline and back online, not just how often: the chaos table counts
// transitions, this digest covers every alert's tool, direction and
// virtual time, trial by trial.
func TestChaosSoakTransitionDigest(t *testing.T) {
	r, err := RunChaosSoak(1, 20, 25, 0)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	n := 0
	for i, tr := range r.Trials {
		for _, a := range tr.Alerts {
			fmt.Fprintf(h, "%d %d %t %d\n", i, a.Tool, a.Recovered, a.At)
			n++
		}
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != chaosAlertDigest {
		t.Errorf("digest of %d alerts = %s, want %s", n, got, chaosAlertDigest)
	}
}
