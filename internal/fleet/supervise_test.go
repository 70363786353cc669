package fleet

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"coreda/internal/sensornet"
	"coreda/internal/sim"
	"coreda/internal/wire"
)

// nodeTransition is one liveness change as a supervision user reports it.
type nodeTransition struct {
	at     time.Duration
	uid    uint16
	online bool
}

func (tr nodeTransition) String() string {
	state := "offline"
	if tr.online {
		state = "online"
	}
	return fmt.Sprintf("%v node %d %s", tr.at, tr.uid, state)
}

// supervisionCase is a script for both supervision users: the nodes
// watched at time 0 (the gateway's Supervise list, or a first frame to
// the server), later frames, and the transitions expected by until,
// with a 10 s interval (a 30 s deadline) and sweeps every interval.
type supervisionCase struct {
	name   string
	watch  []uint16
	frames []nodeTransition // at and uid of each later frame
	// foreign is a window in which Route places the household on
	// another peer (server only).
	foreign [2]time.Duration
	until   time.Duration
	only    string // "gateway" or "server" for a rule only one user has
	want    []nodeTransition
}

const superviseEvery = 10 * time.Second

// TestSupervisionOrder pins the liveness rule and its transition order
// once, through both users of sensornet.Supervisor: the simulated
// gateway and the fleet server.
func TestSupervisionOrder(t *testing.T) {
	s := time.Second
	cases := []supervisionCase{{
		name:   "simultaneous expiries in key order",
		watch:  []uint16{9, 2, 5},
		frames: []nodeTransition{{at: 1 * s, uid: 9}, {at: 2 * s, uid: 5}, {at: 3 * s, uid: 2}},
		until:  45 * s,
		want:   []nodeTransition{{40 * s, 2, false}, {40 * s, 5, false}, {40 * s, 9, false}},
	}, {
		name:   "silent exactly the deadline stays online",
		watch:  []uint16{4},
		frames: []nodeTransition{{at: 10 * s, uid: 4}},
		until:  55 * s,
		want:   []nodeTransition{{50 * s, 4, false}},
	}, {
		name:   "a recovery is reported once",
		watch:  []uint16{6},
		frames: []nodeTransition{{at: 45 * s, uid: 6}, {at: 47 * s, uid: 6}},
		until:  75 * s,
		want:   []nodeTransition{{40 * s, 6, false}, {45 * s, 6, true}},
	}, {
		name:  "an offline node is not declared offline again",
		watch: []uint16{7},
		until: 100 * s,
		want:  []nodeTransition{{40 * s, 7, false}},
	}, {
		// The server watches every node that sends a frame.
		name:   "a node never watched stays silent",
		watch:  []uint16{1},
		frames: []nodeTransition{{at: 5 * s, uid: 8}},
		until:  100 * s,
		only:   "gateway",
		want:   []nodeTransition{{40 * s, 1, false}},
	}, {
		// Route places the household elsewhere when node 3 expires at
		// 40 s, so it is forgotten: its frame at 50 s watches it afresh
		// instead of reporting a recovery.
		name:    "a Forget issued by Route drops the node",
		watch:   []uint16{3},
		frames:  []nodeTransition{{at: 50 * s, uid: 3}},
		foreign: [2]time.Duration{35 * s, 45 * s},
		until:   60 * s,
		only:    "server",
	}}
	for _, tc := range cases {
		for _, user := range []struct {
			name string
			run  func(*testing.T, supervisionCase) []nodeTransition
		}{{"gateway", gatewayTransitions}, {"server", serverTransitions}} {
			if tc.only != "" && tc.only != user.name {
				continue
			}
			t.Run(tc.name+"/"+user.name, func(t *testing.T) {
				if got := user.run(t, tc); !slices.Equal(got, tc.want) {
					t.Errorf("transitions = %v, want %v", got, tc.want)
				}
			})
		}
	}
}

// gatewayTransitions runs tc through a simulated gateway on a lossless,
// zero-latency medium. A frame is the ack of an LED command sent at its
// time.
func gatewayTransitions(t *testing.T, tc supervisionCase) []nodeTransition {
	sched := sim.New()
	m := sensornet.NewMedium(sensornet.MediumConfig{}, sched, sim.RNG(1, "medium"))
	g := sensornet.NewGateway(sched, m, nil)
	for _, uid := range tc.watch {
		sensornet.NewNode(sensornet.NodeConfig{UID: uid}, sched, m, sensornet.NewSliceSource(nil, 0, nil))
	}
	for _, f := range tc.frames {
		if _, ok := m.Node(f.uid); !ok {
			sensornet.NewNode(sensornet.NodeConfig{UID: f.uid}, sched, m, sensornet.NewSliceSource(nil, 0, nil))
		}
		uid := f.uid
		sched.At(f.at, func() { g.SendLED(uid, wire.LEDGreen, 0, 0) })
	}
	var got []nodeTransition
	g.Supervise(superviseEvery, func(uid uint16, online bool) {
		got = append(got, nodeTransition{sched.Now(), uid, online})
	}, tc.watch...)
	sched.RunUntil(tc.until)
	return got
}

// serverTransitions runs tc through a fleet server whose pump is driven
// by hand: each frame is registered and followed by a pump tick, and
// every interval a sweeping tick (before any frame at the same time).
// Transitions are read back from the server's log.
func serverTransitions(t *testing.T, tc supervisionCase) []nodeTransition {
	var now time.Duration
	var got []nodeTransition
	cfg := testConfig(t, t.TempDir())
	cfg.OnLog = func(line string) {
		var secs float64
		var tr nodeTransition
		var hh, state string
		if _, err := fmt.Sscanf(line, "%fs node %d household %s %s", &secs, &tr.uid, &hh, &state); err != nil {
			return
		}
		tr.at, tr.online = time.Duration(secs*float64(time.Second)), state != "OFFLINE"
		got = append(got, tr)
	}
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(f, ServeConfig{
		Supervise: superviseEvery,
		Route: func(string) (string, bool) {
			return "10.0.0.9:7001", now < tc.foreign[0] || now >= tc.foreign[1]
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Stop()
	nc := &fleetConn{}
	for _, uid := range tc.watch {
		srv.register("home", uid, nc, 0)
	}
	frames := tc.frames
	for sweep := superviseEvery; sweep <= tc.until; sweep += superviseEvery {
		for len(frames) > 0 && frames[0].at < sweep {
			now = frames[0].at
			srv.register("home", frames[0].uid, nc, now)
			srv.supervise(now, false)
			frames = frames[1:]
		}
		now = sweep
		srv.supervise(now, true)
	}
	return got
}
