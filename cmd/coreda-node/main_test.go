package main

import (
	"net"
	"testing"
	"time"

	"coreda"
	"coreda/internal/adl"
	"coreda/internal/fleet"
	"coreda/internal/store"
)

// testFleet is one in-process fleet server on a loopback listener.
type testFleet struct {
	f    *fleet.Fleet
	addr string
}

// startFleet serves a learning tea-making fleet at the given speed;
// route is the server's cluster placement hook (nil: every household is
// local).
func startFleet(t *testing.T, speed float64, route func(string) (string, bool)) *testFleet {
	t.Helper()
	f, err := fleet.New(fleet.Config{
		Shards:  1,
		Backend: store.NewMemBackend(),
		NewSystem: func(household string) (coreda.SystemConfig, error) {
			return coreda.SystemConfig{
				Activity: adl.TeaMaking(),
				UserName: household,
				Seed:     fleet.SeedFor(1, household),
			}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := fleet.NewServer(f, fleet.ServeConfig{Speed: speed, Route: route})
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Run()
	go srv.Serve(l)
	t.Cleanup(func() {
		srv.Stop()
		f.Stop()
		l.Close()
	})
	return &testFleet{f: f, addr: l.Addr().String()}
}

// TestRunFollowsRedirect: a node greeting a cluster member that does not
// own its household follows the Redirect to the owner, so the session is
// learned there and the first member never admits the household.
func TestRunFollowsRedirect(t *testing.T) {
	const speed, household = 1000, "tanaka-42"
	owner := startFleet(t, speed, nil)
	first := startFleet(t, speed, func(string) (string, bool) { return owner.addr, false })

	// Seed 1 draws no freeze and no wrong tool in one session, so the
	// run never waits for a reminder a learning fleet would not send.
	if err := run(first.addr, "tea-making", "", household, 1, 0, speed, 1, 0); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		var episodes int
		if err := owner.f.Do(household, func(tn *fleet.Tenant) error {
			episodes = tn.System.Planner().Episodes
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if episodes == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("owner learned %d episodes, want 1", episodes)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if st := first.f.Stats(); st.Admissions != 0 || st.Resident != 0 {
		t.Errorf("redirecting member stats = %+v, want no tenant", st)
	}
}
