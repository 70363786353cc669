package cluster

import (
	"reflect"
	"testing"

	"coreda/internal/fleet"
)

var testPeers = []string{"127.0.0.1:9001", "127.0.0.1:9002", "127.0.0.1:9003"}

func TestRingCoversEverySlot(t *testing.T) {
	r := NewRing(testPeers)
	counts := map[string]int{}
	for s := 0; s < fleet.Slots; s++ {
		owner := r.Owner(s)
		if owner == "" {
			t.Fatalf("slot %d unowned", s)
		}
		counts[owner]++
	}
	for _, p := range testPeers {
		if counts[p] == 0 {
			t.Errorf("peer %s owns no slots: %v", p, counts)
		}
	}
}

func TestRingAgreesAcrossPeerOrderings(t *testing.T) {
	a := NewRing(testPeers)
	b := NewRing([]string{testPeers[2], testPeers[0], testPeers[1], testPeers[0], ""})
	for s := 0; s < fleet.Slots; s++ {
		if a.Owner(s) != b.Owner(s) {
			t.Fatalf("slot %d: owner %q vs %q across orderings", s, a.Owner(s), b.Owner(s))
		}
		if !reflect.DeepEqual(a.Replicas(s, 2), b.Replicas(s, 2)) {
			t.Fatalf("slot %d: replica sets differ across orderings", s)
		}
	}
}

// TestRingDeathPromotesFirstReplica pins the property crash recovery is
// built on: removing a peer makes each of its slots' first replica the
// new owner, and no other slot changes hands.
func TestRingDeathPromotesFirstReplica(t *testing.T) {
	before := NewRing(testPeers)
	dead := testPeers[1]
	after := NewRing([]string{testPeers[0], testPeers[2]})
	for s := 0; s < fleet.Slots; s++ {
		if before.Owner(s) != dead {
			if after.Owner(s) != before.Owner(s) {
				t.Errorf("slot %d moved (%s -> %s) though its owner survived", s, before.Owner(s), after.Owner(s))
			}
			continue
		}
		if want := before.Replicas(s, 1)[0]; after.Owner(s) != want {
			t.Errorf("slot %d: new owner %s, want first replica %s", s, after.Owner(s), want)
		}
	}
}

func TestRingJoinOnlyStealsFromExisting(t *testing.T) {
	before := NewRing(testPeers[:2])
	after := NewRing(testPeers)
	moved := 0
	for s := 0; s < fleet.Slots; s++ {
		if before.Owner(s) == after.Owner(s) {
			continue
		}
		moved++
		if after.Owner(s) != testPeers[2] {
			t.Errorf("slot %d moved to %s, not the joining peer", s, after.Owner(s))
		}
	}
	if moved == 0 {
		t.Error("joining peer stole no slots")
	}
}

func TestReplicasExcludeOwnerAndFit(t *testing.T) {
	r := NewRing(testPeers)
	for s := 0; s < fleet.Slots; s++ {
		reps := r.Replicas(s, 5) // more than peers-1: must clamp
		if len(reps) != 2 {
			t.Fatalf("slot %d: %d replicas, want 2", s, len(reps))
		}
		for _, rep := range reps {
			if rep == r.Owner(s) {
				t.Fatalf("slot %d: owner in replica set", s)
			}
		}
	}
	if got := NewRing(nil).Owner(0); got != "" {
		t.Errorf("empty ring owner = %q", got)
	}
	if reps := NewRing(testPeers[:1]).Replicas(0, 2); len(reps) != 0 {
		t.Errorf("single-peer ring has replicas: %v", reps)
	}
}
