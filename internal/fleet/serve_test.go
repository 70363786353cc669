package fleet

import (
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"coreda"
	"coreda/internal/adl"
	"coreda/internal/chaosnet"
	"coreda/internal/rtbridge"
	"coreda/internal/sensing"
	"coreda/internal/wire"
)

// dialNode connects a fake node and returns the conn plus a reader for
// server-to-node frames.
func dialNode(t *testing.T, addr string) (net.Conn, *wire.Reader) {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c, wire.NewReader(c)
}

func sendPacket(t *testing.T, c net.Conn, p wire.Packet) {
	t.Helper()
	frame, err := wire.Encode(p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Write(frame); err != nil {
		t.Fatal(err)
	}
}

// awaitEvents polls the fleet until the usage-event counter reaches want.
func awaitEvents(t *testing.T, f *Fleet, want int) Stats {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := f.Stats()
		if st.Events >= want {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %d events; stats %+v", want, st)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// startServer brings up a fleet server on a loopback listener.
func startServer(t *testing.T, fcfg Config, scfg ServeConfig) (*Fleet, *Server, string) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return startServerOn(t, fcfg, scfg, l)
}

// startServerOn brings up a fleet server accepting on l.
func startServerOn(t *testing.T, fcfg Config, scfg ServeConfig, l net.Listener) (*Fleet, *Server, string) {
	t.Helper()
	f, err := New(fcfg)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(f, scfg)
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
	return f, srv, l.Addr().String()
}

// TestServeRoutesByHello pins the versioned household handshake: two
// nodes greeting as different households must land in different tenants,
// and each usage report must be acked.
func TestServeRoutesByHello(t *testing.T) {
	f, _, addr := startServer(t, testConfig(t, t.TempDir()), ServeConfig{Speed: 100})

	ca, ra := dialNode(t, addr)
	cb, rb := dialNode(t, addr)
	sendPacket(t, ca, &wire.Hello{UID: uint16(adl.ToolTeaBox), Seq: 1, HelloVersion: wire.HelloVersion, Household: "yamada"})
	sendPacket(t, cb, &wire.Hello{UID: uint16(adl.ToolTeaBox), Seq: 1, HelloVersion: wire.HelloVersion, Household: "suzuki"})
	for _, r := range []*wire.Reader{ra, rb} {
		pkt, err := readPacket(r)
		if err != nil {
			t.Fatal(err)
		}
		if ack, ok := pkt.(*wire.Ack); !ok || ack.Seq != 1 {
			t.Fatalf("hello answered with %v", pkt)
		}
	}

	sendPacket(t, ca, &wire.UsageStart{UID: uint16(adl.ToolTeaBox), Seq: 2, Hits: 5})
	sendPacket(t, cb, &wire.UsageStart{UID: uint16(adl.ToolTeaBox), Seq: 2, Hits: 5})
	awaitEvents(t, f, 2)

	for _, want := range []string{"yamada", "suzuki"} {
		var accepted int
		if err := f.Do(want, func(tn *Tenant) error {
			accepted = tn.System.Stats().AcceptedSteps
			return nil
		}); err != nil {
			t.Fatalf("household %s: %v", want, err)
		}
		if accepted != 1 {
			t.Errorf("household %s accepted %d steps, want 1", want, accepted)
		}
	}
}

// TestServeDefaultHousehold pins backward compatibility: a legacy node
// that never says hello is served as the configured default household.
func TestServeDefaultHousehold(t *testing.T) {
	f, _, addr := startServer(t, testConfig(t, t.TempDir()),
		ServeConfig{Speed: 100, DefaultHousehold: "home"})

	c, r := dialNode(t, addr)
	sendPacket(t, c, &wire.UsageStart{UID: uint16(adl.ToolTeaBox), Seq: 9, Hits: 3})
	if pkt, err := readPacket(r); err != nil {
		t.Fatal(err)
	} else if ack, ok := pkt.(*wire.Ack); !ok || ack.Seq != 9 {
		t.Fatalf("usage answered with %v", pkt)
	}
	awaitEvents(t, f, 1)
	if err := f.Do("home", func(tn *Tenant) error { return nil }); err != nil {
		t.Fatalf("default household not admitted: %v", err)
	}
}

// TestServeDropsPreHelloTrafficWithoutDefault pins the strict mode: no
// hello, no default household, no traffic.
func TestServeDropsPreHelloTrafficWithoutDefault(t *testing.T) {
	f, _, addr := startServer(t, testConfig(t, t.TempDir()), ServeConfig{Speed: 100})

	c, _ := dialNode(t, addr)
	sendPacket(t, c, &wire.UsageStart{UID: uint16(adl.ToolTeaBox), Seq: 1, Hits: 3})
	sendPacket(t, c, &wire.Hello{UID: uint16(adl.ToolTeaBox), Seq: 2, HelloVersion: wire.HelloVersion, Household: "late"})
	sendPacket(t, c, &wire.UsageStart{UID: uint16(adl.ToolTeaBox), Seq: 3, Hits: 3})
	st := awaitEvents(t, f, 1)
	if st.Events != 1 {
		t.Errorf("events = %d, want only the post-hello one", st.Events)
	}
	var accepted int
	if err := f.Do("late", func(tn *Tenant) error {
		accepted = tn.System.Stats().AcceptedSteps
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if accepted != 1 {
		t.Errorf("post-hello traffic not routed: accepted = %d", accepted)
	}
}

// TestServeLEDWriteBack pins the reminder loop at fleet scale: a trained
// household in assist mode answers a wrong-tool start with a red LED on
// that tool, and the LED command must come back on the household's node
// connection after the ack of the report that caused it. The reader is
// held inside the next frame while the LED is written, so the cause's
// ack is still queued then: the LED write must carry it out first.
func TestServeLEDWriteBack(t *testing.T) {
	fcfg := testConfig(t, t.TempDir())
	fcfg.NewSystem = func(household string) (coreda.SystemConfig, error) {
		return coreda.SystemConfig{
			Activity:    adl.TeaMaking(),
			UserName:    household,
			Seed:        SeedFor(7, household),
			DefaultMode: coreda.ModeAssist,
		}, nil
	}
	// Route runs on the connection's reader goroutine: a hello for the
	// "hold" household parks the reader until the test has seen the LED.
	ledSeen := make(chan struct{})
	var once sync.Once
	sawLED := func() { once.Do(func() { close(ledSeen) }) }
	t.Cleanup(sawLED)
	route := func(household string) (string, bool) {
		if household == "hold" {
			select {
			case <-ledSeen:
			case <-time.After(5 * time.Second):
			}
		}
		return "", true
	}
	f, _, addr := startServer(t, fcfg, ServeConfig{Speed: 200, Route: route})

	// Train the tenant so the assist session has firm expectations.
	canonical := adl.TeaMaking().CanonicalRoutine()
	if err := f.Do("mori", func(tn *Tenant) error {
		episodes := make([][]coreda.StepID, 20)
		for i := range episodes {
			episodes[i] = canonical
		}
		return tn.System.TrainEpisodes(episodes)
	}); err != nil {
		t.Fatal(err)
	}

	// The first tool's, the expected-next tool's and a wrong tool's
	// nodes all greet on one connection; the person then takes the tea
	// box and, instead of the pot, the cup. The holding hello follows in
	// the same write.
	const cause = 6
	frames := []wire.Packet{
		&wire.Hello{UID: uint16(adl.ToolTeaBox), Seq: 1, HelloVersion: wire.HelloVersion, Household: "mori"},
		&wire.Hello{UID: uint16(adl.ToolPot), Seq: 2, HelloVersion: wire.HelloVersion, Household: "mori"},
		&wire.Hello{UID: uint16(adl.ToolTeaCup), Seq: 3, HelloVersion: wire.HelloVersion, Household: "mori"},
		&wire.UsageStart{UID: uint16(adl.ToolTeaBox), Seq: 4, Hits: 5},
		&wire.UsageEnd{UID: uint16(adl.ToolTeaBox), Seq: 5, DurationMs: 800},
		&wire.UsageStart{UID: uint16(adl.ToolTeaCup), Seq: cause, Hits: 5},
		&wire.Hello{UID: uint16(adl.ToolKettle), Seq: cause + 1, HelloVersion: wire.HelloVersion, Household: "hold"},
	}
	var burst []byte
	for _, p := range frames {
		var err error
		if burst, err = wire.AppendFrame(burst, p); err != nil {
			t.Fatal(err)
		}
	}
	c, r := dialNode(t, addr)
	if _, err := c.Write(burst); err != nil {
		t.Fatal(err)
	}

	var acked uint16
	deadline := time.Now().Add(5 * time.Second)
	for {
		c.SetReadDeadline(deadline)
		pkt, err := readPacket(r)
		if err != nil {
			t.Fatalf("no red LED on the wrong tool before deadline (acked through %d): %v", acked, err)
		}
		switch p := pkt.(type) {
		case *wire.Ack:
			if p.Seq != acked+1 {
				t.Fatalf("ack %d after ack %d: acks out of order", p.Seq, acked)
			}
			acked = p.Seq
		case *wire.LEDCommand:
			if acked != cause {
				t.Fatalf("LED %+v arrived after ack %d, want exactly the acks through its report %d", p, acked, cause)
			}
			if p.Blinks == 0 {
				t.Errorf("LED command with zero blinks: %+v", p)
			}
			if p.Color == wire.LEDRed {
				if p.UID != uint16(adl.ToolTeaCup) {
					t.Errorf("red LED on tool %d, want the wrong tool %d", p.UID, adl.ToolTeaCup)
				}
				sawLED()
				return
			}
		}
	}
}

// TestServeRedirectsForeignHousehold pins cluster routing: a hello for a
// household the Route hook places elsewhere is answered with a Redirect
// naming the owner, and the connection stays unbound — traffic on it is
// not misdelivered into a local tenant.
func TestServeRedirectsForeignHousehold(t *testing.T) {
	route := func(household string) (string, bool) {
		if household == "foreign" {
			return "10.0.0.9:7001", false
		}
		return "", true
	}
	f, _, addr := startServer(t, testConfig(t, t.TempDir()), ServeConfig{Speed: 100, Route: route})

	c, r := dialNode(t, addr)
	sendPacket(t, c, &wire.Hello{UID: 3, Seq: 9, HelloVersion: wire.HelloVersion, Household: "foreign"})
	pkt, err := readPacket(r)
	if err != nil {
		t.Fatal(err)
	}
	rd, ok := pkt.(*wire.Redirect)
	if !ok || rd.Addr != "10.0.0.9:7001" || rd.Seq != 9 {
		t.Fatalf("hello answered with %+v, want redirect to 10.0.0.9:7001", pkt)
	}
	// Usage after a redirected hello must be dropped, not admitted.
	sendPacket(t, c, &wire.UsageStart{UID: 3, Seq: 10, Hits: 5})

	// A local household on the same server still routes normally.
	c2, r2 := dialNode(t, addr)
	sendPacket(t, c2, &wire.Hello{UID: 4, Seq: 1, HelloVersion: wire.HelloVersion, Household: "local"})
	if pkt, err := readPacket(r2); err != nil {
		t.Fatal(err)
	} else if ack, ok := pkt.(*wire.Ack); !ok || ack.Seq != 1 {
		t.Fatalf("local hello answered with %+v", pkt)
	}
	sendPacket(t, c2, &wire.UsageStart{UID: 4, Seq: 2, Hits: 5})
	st := awaitEvents(t, f, 1)
	if st.Events != 1 || st.Admissions != 1 {
		t.Errorf("stats = %+v, want exactly the local event admitted", st)
	}
}

// countingListener hands out conns that count their Write calls: one
// Write is one send syscall on the server side.
type countingListener struct {
	net.Listener
	writes atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, writes: &l.writes}, nil
}

type countingConn struct {
	net.Conn
	writes *atomic.Int64
}

func (c *countingConn) Write(b []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(b)
}

// helloNode dials addr, greets as household hh with node uid and waits
// for the hello's ack.
func helloNode(t *testing.T, addr, hh string, uid uint16) (net.Conn, *wire.Reader) {
	t.Helper()
	c, r := dialNode(t, addr)
	sendPacket(t, c, &wire.Hello{UID: uid, Seq: 1, HelloVersion: wire.HelloVersion, Household: hh})
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	if pkt, err := readPacket(r); err != nil {
		t.Fatal(err)
	} else if ack, ok := pkt.(*wire.Ack); !ok || ack.Seq != 1 {
		t.Fatalf("hello answered with %+v", pkt)
	}
	return c, r
}

// TestServeCoalescesBurstAcks pins the coalesced front end: a burst of
// usage reports arriving in one client write is acked in order, in at
// most two server writes (one if the burst arrives in one segment, two
// if the socket read happens to split it) instead of one per report.
func TestServeCoalescesBurstAcks(t *testing.T) {
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	l := &countingListener{Listener: inner}
	f, _, addr := startServerOn(t, testConfig(t, t.TempDir()), ServeConfig{Speed: 100}, l)
	c, r := helloNode(t, addr, "burst", uint16(adl.ToolTeaBox))

	const n = 32
	var burst []byte
	for i := 0; i < n; i++ {
		seq := uint16(2 + i)
		var p wire.Packet = &wire.UsageStart{UID: uint16(adl.ToolTeaBox), Seq: seq, Hits: 5}
		if i%2 == 1 {
			p = &wire.UsageEnd{UID: uint16(adl.ToolTeaBox), Seq: seq, DurationMs: 500}
		}
		if burst, err = wire.AppendFrame(burst, p); err != nil {
			t.Fatal(err)
		}
	}
	before := l.writes.Load()
	if _, err := c.Write(burst); err != nil {
		t.Fatal(err)
	}
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	for i := 0; i < n; i++ {
		pkt, err := readPacket(r)
		if err != nil {
			t.Fatalf("ack %d of %d: %v", i+1, n, err)
		}
		if ack, ok := pkt.(*wire.Ack); !ok || ack.Seq != uint16(2+i) {
			t.Fatalf("frame %d answered with %+v, want ack of seq %d", i, pkt, 2+i)
		}
	}
	if w := l.writes.Load() - before; w > 2 {
		t.Errorf("burst of %d reports took %d server writes, want at most 2", n, w)
	}
	awaitEvents(t, f, n)
}

// TestServeAcksBeforeSplitFrame pins when acks are flushed: before the
// reader blocks on the socket, not when its buffer runs empty. A whole
// frame followed by half of the next leaves bytes buffered, and the
// first frame's ack must still arrive before the client sends the rest.
func TestServeAcksBeforeSplitFrame(t *testing.T) {
	_, _, addr := startServer(t, testConfig(t, t.TempDir()), ServeConfig{Speed: 100})
	c, r := helloNode(t, addr, "split", uint16(adl.ToolTeaBox))

	first, err := wire.AppendFrame(nil, &wire.UsageStart{UID: uint16(adl.ToolTeaBox), Seq: 2, Hits: 5})
	if err != nil {
		t.Fatal(err)
	}
	second, err := wire.AppendFrame(nil, &wire.UsageEnd{UID: uint16(adl.ToolTeaBox), Seq: 3, DurationMs: 500})
	if err != nil {
		t.Fatal(err)
	}
	half := len(second) / 2
	if _, err := c.Write(append(first, second[:half]...)); err != nil {
		t.Fatal(err)
	}
	readAck := func(seq uint16) {
		t.Helper()
		c.SetReadDeadline(time.Now().Add(5 * time.Second))
		pkt, err := readPacket(r)
		if err != nil {
			t.Fatalf("waiting for ack %d: %v", seq, err)
		}
		if ack, ok := pkt.(*wire.Ack); !ok || ack.Seq != seq {
			t.Fatalf("got %+v, want ack of seq %d", pkt, seq)
		}
	}
	readAck(2)
	if _, err := c.Write(second[half:]); err != nil {
		t.Fatal(err)
	}
	readAck(3)
}

// awaitConns polls until the server tracks exactly n open connections.
func awaitConns(t *testing.T, srv *Server, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		srv.mu.Lock()
		open := len(srv.all)
		srv.mu.Unlock()
		if open == n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("server holds %d connections, want %d", open, n)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestServeUnregistersClosedConn pins connection cleanup: once a node's
// connection closes, its LED route is gone, and a later LED for that
// tool reports that no node is connected instead of writing into the
// dead socket.
func TestServeUnregistersClosedConn(t *testing.T) {
	var (
		mu   sync.Mutex
		logs []string
	)
	onLog := func(s string) {
		mu.Lock()
		logs = append(logs, s)
		mu.Unlock()
	}
	fcfg := testConfig(t, t.TempDir())
	fcfg.OnLog = onLog
	_, srv, addr := startServer(t, fcfg, ServeConfig{Speed: 100})
	tool := uint16(adl.ToolTeaBox)
	c, _ := helloNode(t, addr, "gone", tool)
	c.Close()
	awaitConns(t, srv, 0)

	srv.mu.Lock()
	routes := len(srv.conns)
	srv.mu.Unlock()
	if routes != 0 {
		t.Errorf("%d nodes still routed after their only connection closed", routes)
	}
	serveLEDs{srv: srv, household: "gone"}.Blink(coreda.ToolID(tool), wire.LEDGreen, 3, time.Second)
	mu.Lock()
	defer mu.Unlock()
	if n := len(logs); n == 0 || !strings.Contains(logs[n-1], "no node connected") {
		t.Errorf("LED after close logged %q, want a no-node-connected line", logs)
	}
}

// TestServeReconnectKeepsNewRoute pins the other half of cleanup: when
// a node reconnects before its old connection is torn down, the old
// connection's exit must not drop the route the new one registered.
func TestServeReconnectKeepsNewRoute(t *testing.T) {
	_, srv, addr := startServer(t, testConfig(t, t.TempDir()), ServeConfig{Speed: 100})
	tool := uint16(adl.ToolTeaBox)
	old, _ := helloNode(t, addr, "moved", tool)
	fresh, r := helloNode(t, addr, "moved", tool)
	old.Close()
	awaitConns(t, srv, 1)

	serveLEDs{srv: srv, household: "moved"}.Blink(coreda.ToolID(tool), wire.LEDGreen, 3, time.Second)
	fresh.SetReadDeadline(time.Now().Add(5 * time.Second))
	pkt, err := readPacket(r)
	if err != nil {
		t.Fatalf("LED did not reach the reconnected node: %v", err)
	}
	if led, ok := pkt.(*wire.LEDCommand); !ok || led.UID != tool {
		t.Fatalf("reconnected node got %+v, want its LED command", pkt)
	}
}

// TestServeSlowLogDoesNotStallOtherConns pins that log lines are
// written outside the node registry lock: while one connection's log
// line is stuck in a slow sink, another household's reports are still
// acked.
func TestServeSlowLogDoesNotStallOtherConns(t *testing.T) {
	release := make(chan struct{})
	stuck := make(chan struct{}, 1)
	fcfg := testConfig(t, t.TempDir())
	fcfg.OnLog = func(line string) {
		if !strings.Contains(line, "invalid household") {
			return
		}
		stuck <- struct{}{}
		select {
		case <-release:
		case <-time.After(10 * time.Second):
		}
	}
	_, _, addr := startServer(t, fcfg, ServeConfig{Speed: 100})
	t.Cleanup(func() { close(release) }) // before the server's own cleanup

	tool := uint16(adl.ToolTeaBox)
	hb, r := helloNode(t, addr, "hb", tool)
	bad, _ := dialNode(t, addr)
	sendPacket(t, bad, &wire.Hello{UID: tool, Seq: 1, HelloVersion: wire.HelloVersion, Household: ".bad"})
	select {
	case <-stuck:
	case <-time.After(5 * time.Second):
		t.Fatal("the invalid hello was never logged")
	}

	sendPacket(t, hb, &wire.UsageStart{UID: tool, Seq: 2, Hits: 5})
	hb.SetReadDeadline(time.Now().Add(2 * time.Second))
	pkt, err := readPacket(r)
	if err != nil {
		t.Fatalf("report not acked while another connection's log line is stuck: %v", err)
	}
	if ack, ok := pkt.(*wire.Ack); !ok || ack.Seq != 2 {
		t.Fatalf("report answered with %+v, want its ack", pkt)
	}
}

// TestServeRunStopsAfterFleetStop pins the pump's shutdown when the
// fleet stops first: Run must not wedge on the stopped shards' queues,
// and Server.Stop waits for it.
func TestServeRunStopsAfterFleetStop(t *testing.T) {
	f, err := New(testConfig(t, t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(f, ServeConfig{Tick: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	ran, stopped := make(chan struct{}), make(chan struct{})
	go func() { srv.Run(); close(ran) }()
	f.Stop()
	time.Sleep(600 * time.Millisecond) // 600 ticks: more than a shard queue holds
	go func() { srv.Stop(); close(stopped) }()
	deadline := time.After(2 * time.Second)
	for _, ch := range []chan struct{}{ran, stopped} {
		select {
		case <-ch:
		case <-deadline:
			t.Fatal("Run did not return after Server.Stop")
		}
	}
}

// loopback is a fleet server at 200× speed on a loopback listener,
// serving hello-less nodes as household "home" and recording what its
// tea-making households report.
type loopback struct {
	f    *Fleet
	srv  *Server
	addr string

	mu          sync.Mutex
	reminders   []coreda.Reminder
	alerts      []coreda.CaregiverAlert
	completions int
}

func startLoopback(t *testing.T, mode coreda.Mode, idleFloor time.Duration, scfg ServeConfig) *loopback {
	t.Helper()
	lb := &loopback{}
	fcfg := testConfig(t, t.TempDir())
	fcfg.NewSystem = func(household string) (coreda.SystemConfig, error) {
		return coreda.SystemConfig{
			Activity:    adl.TeaMaking(),
			UserName:    household,
			Seed:        SeedFor(7, household),
			DefaultMode: mode,
			Sensing:     sensing.Config{IdleFloor: idleFloor},
			OnReminder: func(r coreda.Reminder) {
				lb.mu.Lock()
				lb.reminders = append(lb.reminders, r)
				lb.mu.Unlock()
			},
			OnAlert: func(a coreda.CaregiverAlert) {
				lb.mu.Lock()
				lb.alerts = append(lb.alerts, a)
				lb.mu.Unlock()
			},
			OnComplete: func() {
				lb.mu.Lock()
				lb.completions++
				lb.mu.Unlock()
			},
		}, nil
	}
	scfg.Speed, scfg.Tick, scfg.DefaultHousehold = 200, time.Millisecond, "home"
	lb.f, lb.srv, lb.addr = startServer(t, fcfg, scfg)
	return lb
}

// train gives household "home" firm expectations of the canonical
// routine.
func (lb *loopback) train(t *testing.T) {
	t.Helper()
	canonical := adl.TeaMaking().CanonicalRoutine()
	if err := lb.f.Do("home", func(tn *Tenant) error {
		episodes := make([][]coreda.StepID, 150)
		for i := range episodes {
			episodes[i] = canonical
		}
		return tn.System.TrainEpisodes(episodes)
	}); err != nil {
		t.Fatal(err)
	}
}

// home reads household "home"'s system on its shard.
func (lb *loopback) home(t *testing.T, fn func(*coreda.System)) {
	t.Helper()
	if err := lb.f.Do("home", func(tn *Tenant) error {
		fn(&tn.System)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// dial connects one hello-less node client for tool.
func (lb *loopback) dial(t *testing.T, tool adl.ToolID) *rtbridge.NodeClient {
	t.Helper()
	n, err := rtbridge.DialNode(lb.addr, uint16(tool), nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })
	return n
}

// use reports one complete use of the tool, then pauses past the
// sensing merge gap.
func use(t *testing.T, n *rtbridge.NodeClient) {
	t.Helper()
	if err := n.UseStart(time.Second, 5); err != nil {
		t.Fatal(err)
	}
	if err := n.UseEnd(2*time.Second, time.Second); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
}

// await polls cond, evaluated under lb.mu, until it holds.
func (lb *loopback) await(t *testing.T, what string, cond func() bool) {
	t.Helper()
	waitUntil(t, what, func() bool {
		lb.mu.Lock()
		defer lb.mu.Unlock()
		return cond()
	})
}

func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestServeNodeLoopback drives real node clients against a fleet server
// over loopback TCP: supervision, connection reaping, hostile
// transports, reminders and shutdown.
func TestServeNodeLoopback(t *testing.T) {
	cases := []struct {
		name      string
		mode      coreda.Mode
		idleFloor time.Duration
		scfg      ServeConfig
		run       func(t *testing.T, lb *loopback)
	}{{
		// A node that heartbeats and then falls silent is declared
		// offline: one caregiver alert, a degraded household, and a
		// Specific prompt when its tool is due. Its next frame recovers
		// it.
		name:      "Supervision",
		mode:      coreda.ModeAssist,
		idleFloor: 10 * time.Second, // 50 ms wall
		// 40 s virtual is 200 ms wall: a node is declared offline
		// 600-800 ms of wall time after its last frame.
		scfg: ServeConfig{Supervise: 40 * time.Second},
		run: func(t *testing.T, lb *loopback) {
			lb.train(t)
			kettleAlerts := func() (offline, recovered int) {
				for _, a := range lb.alerts {
					if a.Tool != adl.ToolKettle {
						continue
					}
					if a.Recovered {
						recovered++
					} else {
						offline++
					}
				}
				return
			}
			kettle := lb.dial(t, adl.ToolKettle)
			if err := kettle.Heartbeat(time.Second); err != nil {
				t.Fatal(err)
			}
			lb.await(t, "offline alert", func() bool { off, _ := kettleAlerts(); return off == 1 })
			lb.home(t, func(s *coreda.System) {
				if got := s.OfflineTools(); !s.Degraded() || len(got) != 1 || got[0] != adl.ToolKettle {
					t.Errorf("after silence: Degraded = %v, OfflineTools = %v, want the kettle", s.Degraded(), got)
				}
			})

			// The person takes the tea box and the pot, then freezes
			// before the kettle, whose LED is dead.
			use(t, lb.dial(t, adl.ToolTeaBox))
			use(t, lb.dial(t, adl.ToolPot))
			lb.await(t, "reminder", func() bool { return len(lb.reminders) > 0 })
			lb.mu.Lock()
			r := lb.reminders[0]
			lb.mu.Unlock()
			if r.Tool != adl.ToolKettle || r.Level != coreda.Specific {
				t.Errorf("reminder = %+v, want a Specific prompt for the kettle", r)
			}

			if err := kettle.Heartbeat(2 * time.Second); err != nil {
				t.Fatal(err)
			}
			lb.await(t, "recovered alert", func() bool { _, rec := kettleAlerts(); return rec == 1 })
			lb.mu.Lock()
			if off, _ := kettleAlerts(); off != 1 {
				t.Errorf("%d offline alerts for the kettle, want 1", off)
			}
			lb.mu.Unlock()
			lb.home(t, func(s *coreda.System) {
				if slices.Contains(s.OfflineTools(), adl.ToolKettle) {
					t.Error("kettle still offline after its heartbeat")
				}
			})
		},
	}, {
		// Nodes that send one frame and vanish without a FIN (battery
		// death) must not strand a reader goroutine each.
		name: "ReadTimeoutReapsSilentConns",
		scfg: ServeConfig{ReadTimeout: 100 * time.Millisecond},
		run: func(t *testing.T, lb *loopback) {
			baseline := runtime.NumGoroutine()
			var conns []net.Conn
			for i := 0; i < 5; i++ {
				c, _ := dialNode(t, lb.addr)
				sendPacket(t, c, &wire.Heartbeat{UID: 21, Seq: uint16(i + 1), Battery: 80})
				conns = append(conns, c)
			}
			awaitConns(t, lb.srv, 5)
			awaitConns(t, lb.srv, 0)
			waitUntil(t, "reader goroutines to exit", func() bool { return runtime.NumGoroutine() <= baseline })
			// The server-side close is visible on our end too.
			conns[0].SetReadDeadline(time.Now().Add(5 * time.Second))
			if _, err := conns[0].Read(make([]byte, 1)); err == nil {
				t.Error("reaped connection still open")
			}
		},
	}, {
		// Every node speaks through a pathological transport: frames
		// split into 2-byte segments with garbage in between. The server
		// must reassemble and resynchronize, and the session learn.
		name: "LearnSessionThroughFaultyConns",
		mode: coreda.ModeLearn,
		run: func(t *testing.T, lb *loopback) {
			rng := rand.New(rand.NewSource(7))
			steps := adl.TeaMaking().StepIDs()
			nodes := map[adl.ToolID]*rtbridge.NodeClient{}
			for _, step := range steps {
				c, err := net.Dial("tcp", lb.addr)
				if err != nil {
					t.Fatal(err)
				}
				faulty := chaosnet.Wrap(c, chaosnet.ConnPlan{SplitMax: 2, Garbage: 0.5}, rng)
				n := rtbridge.NewNodeClient(faulty, uint16(adl.ToolOf(step)), nil)
				t.Cleanup(func() { n.Close() })
				nodes[adl.ToolOf(step)] = n
			}
			for _, step := range steps {
				use(t, nodes[adl.ToolOf(step)])
			}
			lb.await(t, "session completion", func() bool { return lb.completions == 1 })
			lb.home(t, func(s *coreda.System) {
				if got := s.Planner().Episodes; got != 1 {
					t.Errorf("episodes = %d, want 1", got)
				}
			})
		},
	}, {
		// A trained household that sees the first step and then nothing
		// prompts for the expected next tool.
		name:      "IdleReminderOverTCP",
		mode:      coreda.ModeAssist,
		idleFloor: 10 * time.Second,
		run: func(t *testing.T, lb *loopback) {
			lb.train(t)
			if err := lb.dial(t, adl.ToolTeaBox).UseStart(time.Second, 4); err != nil {
				t.Fatal(err)
			}
			lb.await(t, "idle reminder", func() bool { return len(lb.reminders) > 0 })
			lb.mu.Lock()
			defer lb.mu.Unlock()
			if r := lb.reminders[0]; r.Trigger != coreda.TriggerIdle || r.Tool != adl.ToolPot {
				t.Errorf("reminder = %+v, want an idle prompt for the pot", r)
			}
		},
	}, {
		name: "StopClosesConnections",
		run: func(t *testing.T, lb *loopback) {
			n := lb.dial(t, 21)
			lb.srv.Stop()
			// Once the client's reader sees the server hang up it closes
			// the connection, and every later report fails.
			deadline := time.Now().Add(5 * time.Second)
			for n.Heartbeat(0) == nil {
				if time.Now().After(deadline) {
					t.Fatal("node connection not closed by server stop")
				}
				time.Sleep(5 * time.Millisecond)
			}
		},
	}}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tc.run(t, startLoopback(t, tc.mode, tc.idleFloor, tc.scfg))
		})
	}
}

// TestServeSupervisionDropsForeignHouseholds pins supervision in a
// cluster: an overdue node whose household Route now places on another
// peer is forgotten by the supervisor, and no transition for it enters a
// local tenant.
func TestServeSupervisionDropsForeignHouseholds(t *testing.T) {
	var moved atomic.Bool
	route := func(household string) (string, bool) {
		if household == "moving" && moved.Load() {
			return "10.0.0.9:7001", false
		}
		return "", true
	}
	// The pump never sweeps within the test: the sweep is called directly.
	f, srv, addr := startServer(t, testConfig(t, t.TempDir()), ServeConfig{Speed: 100, Route: route, Supervise: time.Hour})
	helloNode(t, addr, "moving", uint16(adl.ToolKettle))
	helloNode(t, addr, "staying", uint16(adl.ToolKettle))
	moved.Store(true)

	srv.supervise(4*time.Hour, true)
	if st := f.Stats(); st.NodeStates != 1 || st.Admissions != 1 {
		t.Errorf("stats = %+v, want one transition, for the local household", st)
	}
	srv.mu.Lock()
	defer srv.mu.Unlock()
	// A frame reports a recovery only for a node still supervised.
	if srv.sup.Frame(connKey{"moving", uint16(adl.ToolKettle)}, 4*time.Hour) {
		t.Error("foreign household's node still supervised")
	}
	if !srv.sup.Frame(connKey{"staying", uint16(adl.ToolKettle)}, 4*time.Hour) {
		t.Error("local node not declared offline")
	}
}

// readPacket reads the next frame off r as the packet the server sent to
// a node: an ack, an LED command or a redirect.
func readPacket(r *wire.Reader) (wire.Packet, error) {
	var f wire.Frame
	if err := r.ReadFrame(&f); err != nil {
		return nil, err
	}
	switch f.Kind {
	case wire.TypeAck:
		return &f.Ack, nil
	case wire.TypeLEDCommand:
		return &f.LEDCommand, nil
	case wire.TypeRedirect:
		return &f.Redirect, nil
	}
	return nil, fmt.Errorf("unexpected %v frame", f.Kind)
}
