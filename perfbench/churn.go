package main

import (
	"crypto/sha256"
	"fmt"
	"runtime"
	"sync"
	"time"

	"coreda"
	"coreda/internal/fleet"
	"coreda/internal/reminding"
	"coreda/internal/store"
	"coreda/internal/wire"
)

const (
	// churnSessions is the fewest soak sessions that still put the
	// mid-life idle gap (evict, then re-admit from the checkpoint) into
	// every household's life.
	churnSessions = 2
	// churnEvict is the soak's eviction deadline; its idle gap jumps
	// just past it.
	churnEvict = 10 * time.Minute
	// probeEvery interleaves one probe report per this many soak events.
	probeEvery = 200
	// probeHousehold is the one assist-mode home among the churning
	// learners: its reminders are how churn shows up to a user.
	probeHousehold = "probe"
	// checkedHouseholds is how many households' checkpoints are compared
	// with a run of their stream alone.
	checkedHouseholds = 16
	// churnSetupTrials is how many times a pass restarts its fleet.
	churnSetupTrials = 5
)

// probeStages tile the probe's reminder path on churn-40k.
var probeStages = []string{"fleet.deliver_to_step", "hub.step_to_reminder", "hub.reminder_to_led"}

// probeLEDs records the probe's LED commands and when the shard loop
// issued them.
type probeLEDs struct {
	cmds []ledCmd
	at   []int64
}

func (p *probeLEDs) Blink(tool coreda.ToolID, color wire.LEDColor, blinks int, _ time.Duration) {
	p.cmds = append(p.cmds, ledCmd{UID: uint16(tool), Color: color, Blinks: clampBlinks(blinks)})
	p.at = append(p.at, clock())
}

// churnPass is what one pass over the soak measured.
type churnPass struct {
	win      window
	events   int
	heap     float64
	setups   []float64
	stats    fleet.Stats
	leds     *probeLEDs
	hooks    *hubTrace
	deliver  []float64 // traced: Fleet.Deliver durations, us
	deliverT []int64   // probe report index -> Deliver call start
	// deliverEnd is when each probe report's Deliver call returned.
	deliverEnd []int64
	ticks      []float64
	pending    float64
	bytes      int64
	digest     string
}

// runChurn replays fleet.SoakSessions streams for households homes
// round-robin through Fleet.Deliver from one goroutine (a closed loop
// throttled by shard-queue backpressure), pass after pass, until the
// timed passes add up to the run length.
func runChurn(env runEnv, households int, tr *tracer) (*outcome, error) {
	out := newOutcome()
	soak := fleet.SoakConfig{Seed: env.seed, Sessions: churnSessions, IdleEvict: churnEvict}
	names := make([]string, households)
	streams := make([][][]fleet.Event, households)
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < households; i += 2 {
				names[i] = fleet.SoakHousehold(i)
				streams[i] = fleet.SoakSessions(soak, names[i])
			}
		}(w)
	}
	wg.Wait()
	soakEvents, usageEvents := 0, 0
	for _, s := range streams {
		for _, sess := range s {
			soakEvents += len(sess)
			for _, ev := range sess {
				if ev.Kind == fleet.EventUsage {
					usageEvents++
				}
			}
		}
	}

	// The probe: a trained assist-mode household whose gateway traffic
	// (heartbeats aside) is interleaved with the soak.
	isProbe := func(h string) bool { return h == probeHousehold }
	plainSys := newSystemFunc(env.seed, isProbe, nil)
	probeCkpt := store.NewMemBackend()
	if err := writeTrained(probeCkpt, env.seed, []string{probeHousehold}, nil); err != nil {
		return nil, err
	}
	need := soakEvents/probeEvery + 1
	full := newSchedule(env.seed, 2, probeHousehold, time.Duration(float64(need)/(reportRate*(1-heartbeatShare))*1.2*float64(time.Second)))
	probe := schedule{Household: probeHousehold}
	for _, r := range full.Reports {
		if r.acked() && len(probe.Reports) < need {
			probe.Reports = append(probe.Reports, r)
		}
	}
	if len(probe.Reports) < need {
		return nil, fmt.Errorf("probe schedule has %d reports, need %d", len(probe.Reports), need)
	}
	expect, err := replaySchedule(plainSys, probeCkpt, probe)
	if err != nil {
		return nil, err
	}
	probeBlob, err := probeCkpt.Get(probeHousehold, nil)
	if err != nil {
		return nil, err
	}

	// Reference checkpoints: a fixed sample of households, each run alone.
	sample := make([]string, checkedHouseholds)
	want := make(map[string][sha256.Size]byte, checkedHouseholds)
	for k := range sample {
		i := k * households / checkedHouseholds
		sample[k] = names[i]
		sum, err := aloneSum(plainSys, names[i], streams[i])
		if err != nil {
			return nil, err
		}
		want[names[i]] = sum
	}

	// The first pass warms the heap (its pages are faulted in once per
	// process) and is checked but not measured; timed passes follow until
	// they add up to the run length.
	var all []churnPass
	var timed time.Duration
	for len(all) < 2 || timed < time.Duration(env.seconds)*time.Second {
		p, err := churnOnce(env, streams, probe, probeBlob, plainSys, tr, sample, want, out)
		if err != nil {
			return nil, err
		}
		all = append(all, p)
		if len(all) > 1 {
			timed += time.Duration(p.win.seconds * float64(time.Second))
		}
	}
	passes := all[1:]

	// Correctness, pass by pass.
	n := households
	for k, p := range all {
		st := p.stats
		out.attempted += p.events
		expectStat := func(name string, got, want int) {
			if got != want {
				out.fail(max(1, abs(got-want)), "pass %d: %s %d, want %d", k, name, got, want)
			}
		}
		expectStat("usage events", st.Events, usageEvents+len(probe.Reports))
		expectStat("admissions", st.Admissions, 2*n+1)
		expectStat("recoveries", st.Recovered, n+1)
		expectStat("evictions", st.Evictions, n)
		out.fail(st.Dropped, "pass %d: dropped events", k)
		out.fail(st.RecoveryErrors, "pass %d: recovery errors", k)
		out.fail(st.WritebackFailures, "pass %d: writeback failures", k)
		got := make([]ledRead, len(p.leds.cmds))
		for i, c := range p.leds.cmds {
			got[i] = ledRead{ledCmd: c}
		}
		out.attempted += len(expect.leds)
		out.fail(ledMismatches(expect.leds, got), "pass %d: probe LED commands differ from the reference replay (%d issued, %d expected)", k, len(got), len(expect.leds))
	}

	// End-to-end metrics: medians over passes; the probe's reminder
	// latency pooled over passes.
	var remind, eps, cpu, heaps, setups []float64
	var win window
	for _, p := range passes {
		for pos, e := range expect.leds {
			if e.Color == wire.LEDRed && pos < len(p.leds.at) {
				remind = append(remind, float64(p.leds.at[pos]-p.deliverT[e.Report])/1e6)
			}
		}
		eps = append(eps, float64(p.events)/p.win.seconds)
		cpu = append(cpu, p.win.cpu/float64(p.events)*1e6)
		heaps = append(heaps, p.heap)
		setups = append(setups, p.setups...)
		win.add(p.win)
	}
	out.printf("%s", envRecord("none (store.MemBackend)", win))
	rd := summarize(remind)
	out.printf("passes: %d, %d usage events each; events/s per pass %.0f", len(passes), passes[0].events, eps)
	out.printf("probe reminders: n=%d p50=%.4f ms p99=%.4f ms (highest percentile with 10 samples beyond it: p%.1f)",
		rd.N, rd.P50, rd.P99, supportedPercentile(rd.N))
	out.e2e["remind_p50_ms"] = rd.P50
	out.e2e["events_per_s"] = median(eps)
	out.e2e["cpu_us_per_event"] = median(cpu)
	out.e2e["heap_per_household_bytes"] = median(heaps)
	out.e2e["store_bytes_per_household"] = float64(passes[0].bytes) / float64(n+1)
	out.e2e["setup_s"] = median(setups)
	out.digest = passes[len(passes)-1].digest
	if tr == nil {
		return out, nil
	}

	L := out.layers
	startOrd, remOrd := startOrdinals(probe), reminderOrdinals(expect.leds)
	var deliver, ticks, stepRem, remLED []float64
	stages := make([][]float64, len(probeStages))
	var st fleet.Stats
	events := 0
	for _, p := range passes {
		deliver = append(deliver, p.deliver...)
		ticks = append(ticks, p.ticks...)
		events += p.events
		st.Admissions += p.stats.Admissions
		st.Recovered += p.stats.Recovered
		st.Evictions += p.stats.Evictions
		st.Checkpoints += p.stats.Checkpoints
		st.JobRetries += p.stats.JobRetries
		for pos, e := range expect.leds {
			m, j := remOrd[pos], startOrd[e.Report]
			if e.Color != wire.LEDRed || pos >= len(p.leds.at) || m >= len(p.hooks.reminders) || j >= len(p.hooks.steps) {
				continue
			}
			stepRem = append(stepRem, float64(p.hooks.reminders[m]-p.hooks.steps[j])/1e3)
			remLED = append(remLED, float64(p.leds.at[pos]-p.hooks.reminders[m])/1e3)
			// The probe's reminder path: Deliver until OnStep (the call,
			// backpressure, shard-queue wait and sensing), OnStep until
			// OnReminder, OnReminder until the red LED command is issued.
			b := []int64{p.deliverT[e.Report], p.hooks.steps[j], p.hooks.reminders[m], p.leds.at[pos]}
			trace := fmt.Sprintf("%s/%d", probeHousehold, probe.Reports[e.Report].Seq)
			root := tr.add(trace, 0, "reminder", b[0], b[len(b)-1])
			tr.add(trace, root, "fleet.deliver", p.deliverT[e.Report], p.deliverEnd[e.Report])
			for k := 1; k < len(b); k++ {
				tr.add(trace, root, probeStages[k-1], b[k-1], b[k])
				stages[k-1] = append(stages[k-1], float64(b[k]-b[k-1])/1e3)
			}
		}
	}
	for k, name := range probeStages {
		out.stages = append(out.stages, stageRow{Name: name, D: summarize(stages[k])})
	}
	d := summarize(deliver)
	L["fleet.deliver_us_p50"] = d.P50
	L["fleet.deliver_us_p99"] = d.P99
	fleetLayers(L, fleet.Stats{}, st, events)
	L["fleet.tick_us_p50"] = median(ticks)
	L["sim.pending_timers_per_household"] = passes[len(passes)-1].pending
	L["hub.step_to_reminder_us_p50"] = median(stepRem)
	L["hub.reminder_to_led_us_p50"] = median(remLED)
	hubNS, _, _, err := timeReplays(func(k int) (replayResult, error) {
		return replaySoak(plainSys, streams[(k*7919)%households], names[(k*7919)%households])
	})
	if err != nil {
		return nil, err
	}
	L["hub.handle_usage_ns"] = hubNS
	L["hub.reminders_per_start"] = float64(expect.reminders) / float64(expect.starts)
	goLayers(L, win)
	return out, nil
}

// churnOnce runs one timed pass over the soak on a fresh fleet.
func churnOnce(env runEnv, streams [][][]fleet.Event, probe schedule, probeBlob []byte, newSys func(string) (coreda.SystemConfig, error),
	tr *tracer, sample []string, want map[string][sha256.Size]byte, out *outcome) (churnPass, error) {
	p := churnPass{leds: &probeLEDs{}, deliverT: make([]int64, len(probe.Reports)), deliverEnd: make([]int64, len(probe.Reports))}
	mem := store.NewMemBackend()
	if err := mem.Put(probeHousehold, probeBlob, false); err != nil {
		return p, err
	}
	var (
		backend store.Backend = mem
		tb      *timedBackend
		bus     *busCounter
	)
	if tr != nil {
		tb = &timedBackend{Backend: mem, tr: tr}
		backend = tb
		bus = newBusCounter()
		defer bus.close()
		p.hooks = &hubTrace{}
		newSys = newSystemFunc(env.seed, func(h string) bool { return h == probeHousehold },
			func(h string) *hubTrace {
				if h == probeHousehold {
					return p.hooks
				}
				return nil
			})
	}
	f, err := fleet.New(fleet.Config{
		Shards:    shards,
		Backend:   backend,
		IdleEvict: churnEvict,
		NewSystem: newSys,
		Bus:       bus.busOrNil(),
		LEDs: func(h string) reminding.LEDs {
			if h == probeHousehold {
				return p.leds
			}
			return nil
		},
	})
	if err != nil {
		return p, err
	}
	f.Start()
	stopped := false
	defer func() {
		if !stopped {
			f.Stop()
		}
	}()
	hBase := liveHeap()

	// Traced only: Advance(0) plus a Stats barrier, queued behind the
	// soak's traffic, every 100 ms. Advance(0) fires nothing.
	tickStop, tickDone := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(tickDone)
		if tr == nil {
			return
		}
		t := time.NewTicker(100 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-tickStop:
				return
			case <-t.C:
				t0 := clock()
				if f.Advance(0) == nil {
					f.Stats()
					p.ticks = append(p.ticks, float64(clock()-t0)/1e3)
				}
			}
		}
	}()

	next, sinceProbe := 0, 0
	deliver := func(ev fleet.Event) error {
		if tr == nil {
			return f.Deliver(ev)
		}
		t0 := clock()
		err := f.Deliver(ev)
		p.deliver = append(p.deliver, float64(clock()-t0)/1e3)
		return err
	}
	sendProbe := func() error {
		r := probe.Reports[next]
		ev, _ := usageOf(r, r.Due)
		p.deliverT[next] = clock()
		err := deliver(fleet.Event{Household: probeHousehold, At: r.Due, Kind: fleet.EventUsage, Usage: ev})
		p.deliverEnd[next] = clock()
		if err == nil {
			p.events++
		}
		next++
		return err
	}
	phase := func(session int) error {
		for k := 0; ; k++ {
			any := false
			for _, s := range streams {
				if k >= len(s[session]) {
					continue
				}
				any = true
				ev := s[session][k]
				if err := deliver(ev); err != nil {
					return err
				}
				if ev.Kind == fleet.EventUsage {
					p.events++
				}
				if sinceProbe++; sinceProbe == probeEvery && next < len(probe.Reports) {
					sinceProbe = 0
					if err := sendProbe(); err != nil {
						return err
					}
				}
			}
			if !any {
				return nil
			}
		}
	}
	s0 := takeSnapshot()
	if err := phase(0); err != nil {
		return p, err
	}
	f.Stats()
	s1 := takeSnapshot()
	// Live heap with every household resident, outside the timed window.
	p.heap = float64(int64(liveHeap())-int64(hBase)) / float64(len(streams)+1)
	s2 := takeSnapshot()
	if err := phase(1); err != nil {
		return p, err
	}
	for next < len(probe.Reports) {
		if err := sendProbe(); err != nil {
			return p, err
		}
	}
	close(tickStop)
	<-tickDone
	names := make([]string, 0, len(streams)+1)
	for _, s := range streams {
		names = append(names, s[0][0].Household)
	}
	names = append(names, probeHousehold)
	if tr != nil {
		if p.pending, err = pendingPerHousehold(f, names); err != nil {
			return p, err
		}
	}
	f.Stop()
	s3 := takeSnapshot()
	stopped = true
	p.win = between(s0, s1)
	p.win.add(between(s2, s3))
	p.stats = f.Stats()
	if p.digest, err = runDigest(mem, [][]ledCmd{p.leds.cmds}); err != nil {
		return p, err
	}

	// setup_s: restart a fleet on the pass's checkpoints. Admission is
	// lazy, so the restart is New's enumeration of the backend plus
	// starting the shard loops.
	runtime.GC()
	for k := 0; k < churnSetupTrials; k++ {
		t0 := clock()
		g, err := fleet.New(fleet.Config{Shards: shards, Backend: mem, IdleEvict: churnEvict, NewSystem: newSys})
		if err != nil {
			return p, err
		}
		g.Start()
		p.setups = append(p.setups, float64(clock()-t0)/1e9)
		g.Stop()
	}

	if p.bytes, err = storeBytes(mem, names); err != nil {
		return p, err
	}
	for _, h := range sample {
		out.attempted++
		sum, err := fleet.CheckpointSum(mem, h)
		if err != nil || sum != want[h] {
			out.fail(1, "household %s: checkpoint differs from a run of its stream alone (%v)", h, err)
		}
	}
	if tr != nil {
		storeLayers(out.layers, tb, len(names))
		bus.layers(out.layers)
	}
	return p, nil
}

// aloneSum runs one household's soak stream through a fleet of its own
// and returns its checkpoint's canonical sum.
func aloneSum(newSys func(string) (coreda.SystemConfig, error), household string, sessions [][]fleet.Event) ([sha256.Size]byte, error) {
	mem := store.NewMemBackend()
	f, err := fleet.New(fleet.Config{Shards: 1, Backend: mem, IdleEvict: churnEvict, NewSystem: newSys})
	if err != nil {
		return [sha256.Size]byte{}, err
	}
	f.Start()
	for _, s := range sessions {
		for _, ev := range s {
			if err := f.Deliver(ev); err != nil {
				f.Stop()
				return [sha256.Size]byte{}, err
			}
		}
	}
	f.Stop()
	return fleet.CheckpointSum(mem, household)
}

// replaySoak feeds one household's soak stream through a standalone hub
// the way a shard does: clock first, then the usage event.
func replaySoak(newSys func(string) (coreda.SystemConfig, error), sessions [][]fleet.Event, household string) (replayResult, error) {
	sched, hub, _, err := standaloneHub(newSys, nil, household, nil)
	if err != nil {
		return replayResult{}, err
	}
	var res replayResult
	for _, s := range sessions {
		for _, ev := range s {
			at := max(ev.At, sched.Now())
			sched.RunUntil(at)
			if ev.Kind != fleet.EventUsage {
				continue
			}
			u := ev.Usage
			u.At = at
			t0 := clock()
			hub.HandleUsage(u)
			res.handleNS += float64(clock() - t0)
			res.calls++
		}
	}
	return res, nil
}

func abs(n int) int {
	if n < 0 {
		return -n
	}
	return n
}
