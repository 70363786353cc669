package fleet

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// householdOnShard returns a household ID that ShardOf places on shard
// i of n.
func householdOnShard(t *testing.T, i, n int) string {
	t.Helper()
	for k := 0; k < 1000; k++ {
		if id := fmt.Sprintf("shard%d-%d", i, k); ShardOf(id, n) == i {
			return id
		}
	}
	t.Fatalf("no household found on shard %d of %d", i, n)
	return ""
}

// TestSlowLogDoesNotStallOtherShards pins that OnLog runs outside any
// fleet-wide lock: while shard 0's "admitted" line is stuck in a slow
// sink, a household on shard 1 is still admitted and served.
func TestSlowLogDoesNotStallOtherShards(t *testing.T) {
	cfg := testConfig(t, "")
	cfg.Shards = 2
	h0, h1 := householdOnShard(t, 0, 2), householdOnShard(t, 1, 2)
	stuck := make(chan struct{})
	release := make(chan struct{})
	cfg.OnLog = func(line string) {
		if strings.Contains(line, "admitted "+h0+" ") {
			close(stuck)
			<-release
		}
	}
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	f.Start()
	defer f.Stop()

	first := make(chan error, 1)
	go func() { first <- f.Do(h0, func(*Tenant) error { return nil }) }()
	<-stuck
	second := make(chan error, 1)
	go func() { second <- f.Do(h1, func(*Tenant) error { return nil }) }()
	select {
	case err := <-second:
		if err != nil {
			t.Errorf("Do(%s) on shard 1: %v", h1, err)
		}
	case <-time.After(5 * time.Second):
		t.Errorf("Do(%s) on shard 1 stalled behind shard 0's stuck log line", h1)
	}
	close(release)
	if err := <-first; err != nil {
		t.Errorf("Do(%s) on shard 0: %v", h0, err)
	}
}

// TestCallsRacingStopReturn runs Stop concurrently with each fleet call.
// A call whose lifecycle check passes just before Stop may meet a shard
// loop that has already quit; it must still return, with nil or
// errNotRunning.
func TestCallsRacingStopReturn(t *testing.T) {
	noop := func(*Tenant) error { return nil }
	calls := map[string]func(f *Fleet, hh string, i int) error{
		"Deliver": func(f *Fleet, hh string, i int) error {
			return f.Deliver(Event{Household: hh, At: time.Duration(i) * time.Millisecond, Kind: EventAdvance})
		},
		"Do":       func(f *Fleet, hh string, _ int) error { return f.Do(hh, noop) },
		"EvictNow": func(f *Fleet, hh string, _ int) error { return f.EvictNow(hh) },
		"Advance":  func(f *Fleet, _ string, i int) error { return f.Advance(time.Duration(i) * time.Millisecond) },
		"Flush":    func(f *Fleet, _ string, _ int) error { f.Flush(); return nil },
		"Stats":    func(f *Fleet, _ string, _ int) error { f.Stats(); return nil },
	}
	const (
		rounds  = 10
		callers = 4
		perCall = 20
	)
	for name, call := range calls {
		t.Run(name, func(t *testing.T) {
			for r := 0; r < rounds; r++ {
				cfg := testConfig(t, "")
				f, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				f.Start()
				start := make(chan struct{})
				errs := make(chan error, callers*perCall)
				var wg sync.WaitGroup
				for c := 0; c < callers; c++ {
					wg.Add(1)
					go func(hh string) {
						defer wg.Done()
						<-start
						for i := 0; i < perCall; i++ {
							if err := call(f, hh, i); err != nil && !errors.Is(err, errNotRunning) {
								errs <- err
							}
						}
					}(fmt.Sprintf("race-%d", c))
				}
				wg.Add(1)
				go func() {
					defer wg.Done()
					<-start
					f.Stop()
				}()
				returned := make(chan struct{})
				go func() {
					wg.Wait()
					close(returned)
				}()
				close(start)
				select {
				case <-returned:
				case <-time.After(20 * time.Second):
					t.Fatalf("round %d: a %s racing Stop never returned", r, name)
				}
				close(errs)
				for err := range errs {
					t.Errorf("round %d: %s racing Stop: %v", r, name, err)
				}
			}
		})
	}
}

// TestShardCallAfterStop pins the gap TestCallsRacingStopReturn can only
// hit by chance: a caller that passed the lifecycle check and reaches a
// shard only after Stop ended its loop gets errNotRunning from a
// control call, and a sender facing the full queue no loop drains
// returns instead of blocking.
func TestShardCallAfterStop(t *testing.T) {
	f, err := New(testConfig(t, ""))
	if err != nil {
		t.Fatal(err)
	}
	f.Start()
	s := f.shards[0]
	f.Stop()

	ran := false
	if err := s.await(s.post(func(*shard) error { ran = true; return nil })); !errors.Is(err, errNotRunning) {
		t.Errorf("call on a quit shard = %v, want errNotRunning", err)
	}
	if ran {
		t.Error("a quit shard ran a control closure")
	}
	refused := false
	for i := 0; i <= cap(s.in) && !refused; i++ {
		refused = !s.send(msg{ev: Event{Household: "late", Kind: EventAdvance}})
	}
	if !refused {
		t.Errorf("send into a quit shard's full queue (cap %d) never refused", cap(s.in))
	}
}
