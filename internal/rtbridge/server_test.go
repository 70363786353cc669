package rtbridge_test

import (
	"net"
	"sync"
	"testing"
	"time"

	"coreda"
	"coreda/internal/adl"
	"coreda/internal/fleet"
	"coreda/internal/rtbridge"
	"coreda/internal/sensing"
	"coreda/internal/store"
	"coreda/internal/wire"
)

// startFleet serves hello-less nodes as household "home" on a loopback
// fleet server at 200× speed, so the tests finish quickly.
func startFleet(t *testing.T, sys coreda.SystemConfig) (*fleet.Fleet, string) {
	t.Helper()
	sys.Activity = coreda.TeaMaking()
	sys.UserName = "home"
	f, err := fleet.New(fleet.Config{
		Shards:    1,
		Backend:   store.NewMemBackend(),
		NewSystem: func(string) (coreda.SystemConfig, error) { return sys, nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := fleet.NewServer(f, fleet.ServeConfig{Speed: 200, Tick: time.Millisecond, DefaultHousehold: "home"})
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
	return f, l.Addr().String()
}

// home runs fn on household "home"'s system on its shard.
func home(t *testing.T, f *fleet.Fleet, fn func(*coreda.System) error) {
	t.Helper()
	if err := f.Do("home", func(tn *fleet.Tenant) error { return fn(&tn.System) }); err != nil {
		t.Fatal(err)
	}
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestLearnSessionOverTCP performs the routine three times through one
// node client per tool; each pass must complete one learning episode.
func TestLearnSessionOverTCP(t *testing.T) {
	var mu sync.Mutex
	var completions int
	f, addr := startFleet(t, coreda.SystemConfig{
		DefaultMode: coreda.ModeLearn,
		OnComplete: func() {
			mu.Lock()
			completions++
			mu.Unlock()
		},
	})

	nodes := map[adl.ToolID]*rtbridge.NodeClient{}
	for _, tool := range coreda.TeaMaking().StepIDs() {
		n, err := rtbridge.DialNode(addr, uint16(tool), nil)
		if err != nil {
			t.Fatal(err)
		}
		defer n.Close()
		nodes[adl.ToolOf(tool)] = n
	}

	for ep := 0; ep < 3; ep++ {
		mu.Lock()
		before := completions
		mu.Unlock()
		for _, step := range coreda.TeaMaking().StepIDs() {
			n := nodes[adl.ToolOf(step)]
			if err := n.UseStart(time.Second, 5); err != nil {
				t.Fatal(err)
			}
			if err := n.UseEnd(2*time.Second, time.Second); err != nil {
				t.Fatal(err)
			}
			time.Sleep(20 * time.Millisecond) // > merge gap at 200x speed
		}
		waitFor(t, "session completion", func() bool {
			mu.Lock()
			defer mu.Unlock()
			return completions > before
		})
	}
	home(t, f, func(s *coreda.System) error {
		if got := s.Planner().Episodes; got != 3 {
			t.Errorf("episodes = %d, want 3", got)
		}
		return nil
	})
}

// TestAssistReminderAndLEDOverTCP takes the wrong tool in a trained
// household: the server must remind for the expected tool and the node
// clients must receive a green LED on it and a red one on the wrong tool.
func TestAssistReminderAndLEDOverTCP(t *testing.T) {
	var mu sync.Mutex
	var reminders []coreda.Reminder
	f, addr := startFleet(t, coreda.SystemConfig{
		DefaultMode: coreda.ModeAssist,
		Sensing:     sensing.Config{IdleFloor: 30 * time.Second}, // 150 ms wall at 200x
		OnReminder: func(r coreda.Reminder) {
			mu.Lock()
			reminders = append(reminders, r)
			mu.Unlock()
		},
	})

	// Pre-train the policy so the assist session has expectations.
	routine := coreda.TeaMaking().CanonicalRoutine()
	home(t, f, func(s *coreda.System) error {
		episodes := make([][]coreda.StepID, 150)
		for i := range episodes {
			episodes[i] = routine
		}
		return s.TrainEpisodes(episodes)
	})

	var ledMu sync.Mutex
	leds := map[uint16][]rtbridge.LEDEvent{}
	nodes := map[adl.ToolID]*rtbridge.NodeClient{}
	for _, tool := range coreda.TeaMaking().StepIDs() {
		uid := uint16(tool)
		n, err := rtbridge.DialNode(addr, uid, func(e rtbridge.LEDEvent) {
			ledMu.Lock()
			leds[uid] = append(leds[uid], e)
			ledMu.Unlock()
		})
		if err != nil {
			t.Fatal(err)
		}
		defer n.Close()
		nodes[adl.ToolOf(tool)] = n
		// Register the node with the server so LED commands can route.
		if err := n.Heartbeat(time.Second); err != nil {
			t.Fatal(err)
		}
	}

	// First step correct, then the wrong tool -> wrong-tool reminder.
	if err := nodes[adl.ToolTeaBox].UseStart(time.Second, 5); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	if err := nodes[adl.ToolTeaCup].UseStart(2*time.Second, 5); err != nil {
		t.Fatal(err)
	}

	waitFor(t, "wrong-tool reminder", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(reminders) > 0
	})
	mu.Lock()
	r := reminders[0]
	mu.Unlock()
	if r.Trigger != coreda.TriggerWrongTool || r.Tool != adl.ToolPot {
		t.Errorf("reminder = %+v", r)
	}

	// The green LED command must reach the pot node, the red one the cup.
	waitFor(t, "LED commands", func() bool {
		ledMu.Lock()
		defer ledMu.Unlock()
		return len(leds[uint16(adl.ToolPot)]) > 0 && len(leds[uint16(adl.ToolTeaCup)]) > 0
	})
	ledMu.Lock()
	defer ledMu.Unlock()
	if leds[uint16(adl.ToolPot)][0].Color != wire.LEDGreen {
		t.Errorf("pot LED = %+v", leds[uint16(adl.ToolPot)][0])
	}
	if leds[uint16(adl.ToolTeaCup)][0].Color != wire.LEDRed {
		t.Errorf("cup LED = %+v", leds[uint16(adl.ToolTeaCup)][0])
	}
}
