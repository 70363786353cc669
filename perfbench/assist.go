package main

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"net"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"coreda"
	"coreda/internal/adl"
	"coreda/internal/fleet"
	"coreda/internal/notify"
	"coreda/internal/store"
	"coreda/internal/wire"
)

const (
	// tcpSpeed is the served virtual clock's rate. At ten virtual seconds
	// per wall second the mid-session residents' 30 s idle watchdogs fire
	// every 3 s of the timed window, while a gateway's report spacing
	// (about 1 ms wall, 10 ms virtual) stays far below the 2 s sensing
	// merge gap and the 30 s idle floor, so arrival-time stamping cannot
	// change what a household is reminded of.
	tcpSpeed = 10
	// warmup runs traffic before the timed window opens, so connection
	// buffers, the due index and lazy runtime state are warm.
	warmup = time.Second
	// checkpointEvery gives several periodic checkpoint flushes per run.
	checkpointEvery = 2 * time.Second
	// idleEvict is coreda-fleet's default eviction deadline.
	idleEvict = 30 * time.Minute
	// midSessionEvery makes one resident in this many mid-session.
	midSessionEvery = 100
	// drainTimeout bounds the wait for the last acks and LED commands.
	drainTimeout = 15 * time.Second
)

// setupTrials is how many times a run restarts the fleet to time set-up.
func setupTrials(households int) int {
	if households > 1000 {
		return 5
	}
	return 101
}

// runAssist drives the in-process fleet server over loopback TCP from
// two home gateways, with residents extra trained households admitted
// from their checkpoints before timing.
func runAssist(env runEnv, residents int, tr *tracer) (*outcome, error) {
	out := newOutcome()
	dir := filepath.Join(env.work, "ckpt")
	disk, err := store.NewDirBackend(dir)
	if err != nil {
		return nil, err
	}
	gws := gatewayHouseholds()
	res := make([]string, residents)
	for i := range res {
		res[i] = fmt.Sprintf("r%05d", i)
	}
	all := append(gws[:], res...)

	// Input preparation (untimed): trained checkpoints, the gateway
	// schedules and their reference replays.
	if err := writeTrained(disk, env.seed, gws[:], res); err != nil {
		return nil, err
	}
	flushDirty()
	window := time.Duration(env.seconds) * time.Second
	span := warmup + window
	plainSys := newSystemFunc(env.seed, func(string) bool { return true }, nil)
	var (
		scheds [2]schedule
		expect [2]replayResult
	)
	for g := range gws {
		scheds[g] = newSchedule(env.seed, g, gws[g], span)
		if expect[g], err = replaySchedule(plainSys, disk, scheds[g]); err != nil {
			return nil, err
		}
	}

	// setup_s: restart the fleet on the checkpoint directory until every
	// household is resident, several times. A restarted process starts
	// from a clean heap: a 20k restart leaves hundreds of megabytes of
	// garbage, collected before the next one; small restarts leave little.
	var setups []float64
	for k := 0; k < setupTrials(len(all)); k++ {
		if k == 0 || len(all) > 1000 {
			runtime.GC()
		}
		t0 := clock()
		f, err := fleet.New(fleetConfig(disk, plainSys, nil))
		if err != nil {
			return nil, err
		}
		srv, err := fleet.NewServer(f, serveConfig())
		if err != nil {
			return nil, err
		}
		if err := admit(f, all); err != nil {
			return nil, err
		}
		setups = append(setups, float64(clock()-t0)/1e9)
		srv.Stop()
		f.Stop()
	}
	out.e2e["setup_s"] = median(setups)

	// The live fleet, with tracing wrappers and hooks when traced.
	var (
		backend store.Backend = disk
		tb      *timedBackend
		bus     *busCounter
		wireSt  *wireStats
		hooks   map[string]*hubTrace
	)
	var liveSys func(string) (coreda.SystemConfig, error) = plainSys
	if tr != nil {
		tb = &timedBackend{Backend: disk, tr: tr}
		backend = tb
		bus = newBusCounter()
		defer bus.close()
		wireSt = newWireStats()
		hooks = map[string]*hubTrace{gws[0]: {}, gws[1]: {}}
		liveSys = newSystemFunc(env.seed, func(string) bool { return true }, func(h string) *hubTrace { return hooks[h] })
	}
	f, err := fleet.New(fleetConfig(backend, liveSys, bus.busOrNil()))
	if err != nil {
		return nil, err
	}
	serverStart := time.Now()
	srv, err := fleet.NewServer(f, serveConfig())
	if err != nil {
		return nil, err
	}
	stopped := false
	defer func() {
		if !stopped {
			srv.Stop()
			f.Stop()
		}
	}()
	if residents > 0 {
		if err := admit(f, gws[:]); err != nil {
			return nil, err
		}
		hGw := liveHeap()
		if err := admit(f, res); err != nil {
			return nil, err
		}
		out.e2e["heap_per_household_bytes"] = float64(int64(liveHeap())-int64(hGw)) / float64(residents)
	} else {
		// Two households are a few tens of kilobytes, the size of the
		// runtime's occasional lazy allocations, so take the median of
		// several admit-and-evict cycles.
		var per []float64
		for k := 0; k < 5; k++ {
			h0 := liveHeap()
			if err := admit(f, gws[:]); err != nil {
				return nil, err
			}
			per = append(per, float64(int64(liveHeap())-int64(h0))/float64(len(gws)))
			if k < 4 {
				for _, h := range gws {
					if err := f.EvictNow(h); err != nil {
						return nil, err
					}
				}
			}
		}
		out.e2e["heap_per_household_bytes"] = median(per)
	}
	// Mid-session residents: each used the first tool and froze. Their
	// clocks are staggered over one idle period, so their watchdogs fire
	// spread across the window rather than in one tick.
	mid := residents / midSessionEvery
	first := coreda.ToolID(adl.TeaMaking().Steps[0].Tool)
	for j := 0; j < mid; j++ {
		at := time.Duration(j) * 30 * time.Second / time.Duration(mid)
		err := f.Do(res[j*midSessionEvery], func(t *fleet.Tenant) error {
			t.Sched.RunUntil(at)
			t.Hub.HandleUsage(coreda.UsageEvent{Tool: first, Kind: coreda.UsageStarted, At: at, Hits: 5})
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	st0 := f.Stats()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	var served net.Listener = ln
	if tr != nil {
		served = tracedListener{Listener: ln, st: wireSt}
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(served) }()
	runDone := make(chan struct{})
	go func() { srv.Run(); close(runDone) }()

	var gateways [2]*gateway
	var readers sync.WaitGroup
	for g := range gws {
		gw, err := dialGateway(ln.Addr().String(), &scheds[g], len(expect[g].leds))
		if err != nil {
			return nil, err
		}
		gateways[g] = gw
		readers.Add(1)
		go func() { defer readers.Done(); gw.read() }()
	}

	// Traced only: the fleet's control-path round trip, an Advance plus a
	// Stats barrier, sampled every 100 ms.
	var ticks []float64
	tickStop := make(chan struct{})
	tickDone := make(chan struct{})
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
				// One pump tick behind the server's clock, so the probe
				// never moves a tenant ahead of the served virtual time.
				to := time.Duration(float64(time.Since(serverStart))*tcpSpeed) - 50*time.Millisecond*tcpSpeed
				t0 := clock()
				if f.Advance(max(to, 0)) == nil {
					f.Stats()
					ticks = append(ticks, float64(clock()-t0)/1e3)
				}
			}
		}
	}()

	base := time.Now().Add(20 * time.Millisecond)
	var senders sync.WaitGroup
	for _, gw := range gateways {
		senders.Add(1)
		go func() { defer senders.Done(); gw.send(base) }()
	}
	time.Sleep(time.Until(base.Add(warmup)))
	snap0 := takeSnapshot()
	time.Sleep(time.Until(base.Add(span)))
	snap1 := takeSnapshot()
	senders.Wait()
	timeout := time.After(drainTimeout)
	for g, gw := range gateways {
		select {
		case <-gw.done:
		case <-timeout:
			out.printf("gateway %d: drain timed out", g)
		}
	}
	// Let any unexpected extra LED command arrive before the check.
	time.Sleep(20 * time.Millisecond)
	close(tickStop)
	<-tickDone
	stEnd := f.Stats()
	var pending float64
	if tr != nil {
		if pending, err = pendingPerHousehold(f, all); err != nil {
			return nil, err
		}
	}
	srv.Stop()
	ln.Close()
	if err := <-serveDone; err != nil {
		return nil, err
	}
	<-runDone
	for _, gw := range gateways {
		gw.conn.Close()
	}
	readers.Wait()
	f.Stop()
	stopped = true
	stFinal := f.Stats()
	var seen [][]ledCmd
	for _, gw := range gateways {
		cmds := make([]ledCmd, len(gw.leds))
		for i, l := range gw.leds {
			cmds[i] = l.ledCmd
		}
		seen = append(seen, cmds)
	}
	if out.digest, err = runDigest(disk, seen); err != nil {
		return nil, err
	}
	win := between(snap0, snap1)
	out.printf("%s", envRecord(fsType(dir), win))

	// Correctness.
	out.attempted += len(gws) // hellos, acked in dialGateway
	if stEnd.Resident != len(all) {
		out.fail(1, "resident %d, want %d", stEnd.Resident, len(all))
	}
	out.fail(stFinal.Dropped, "fleet dropped events")
	out.fail(stFinal.RecoveryErrors, "checkpoint recovery errors")
	out.fail(stFinal.WritebackFailures, "writeback failures")
	var remind, acks, lates []float64
	usage, maxOut := 0, int64(0)
	inWindow := func(r report) bool { return r.Due >= warmup && r.Due < span }
	for g, gw := range gateways {
		sch := gw.sch
		if gw.writeErr != nil {
			out.printf("gateway %d: write: %v", g, gw.writeErr)
		}
		if gw.readErr != nil && !errors.Is(gw.readErr, net.ErrClosed) && !errors.Is(gw.readErr, io.EOF) {
			out.printf("gateway %d: read: %v", g, gw.readErr)
		}
		unacked := 0
		for _, i := range gw.ackOrder {
			out.attempted++
			if gw.ackAt[i] == 0 {
				unacked++
				continue
			}
			if inWindow(sch.Reports[i]) {
				usage++
				acks = append(acks, float64(gw.ackAt[i]-gw.sentAt[i])/1e6)
			}
		}
		out.fail(unacked, "gateway %d: reports never acked", g)
		out.fail(gw.badAcks, "gateway %d: acks out of order", g)
		exp := expect[g].leds
		out.attempted += len(exp)
		out.fail(ledMismatches(exp, gw.leds), "gateway %d: LED commands differ from the reference replay (%d read, %d expected)", g, len(gw.leds), len(exp))
		for pos, e := range exp {
			if e.Color == wire.LEDRed && pos < len(gw.leds) && inWindow(sch.Reports[e.Report]) {
				remind = append(remind, float64(gw.leds[pos].At-gw.sentAt[e.Report])/1e6)
			}
		}
		lates = append(lates, gw.lateNS...)
		maxOut = max(maxOut, gw.maxOut)
	}
	// A backlog of more than a second of reports means the server did
	// not keep up with the open loop: the run is invalid.
	if maxOut > int64(reportRate) {
		out.fail(1, "outstanding acks reached %d: the server fell behind the schedule", maxOut)
	}
	if usage == 0 {
		return nil, fmt.Errorf("no usage report acked in the timed window")
	}
	rd := summarize(remind)
	out.printf("reminders: n=%d p50=%.4f ms p99=%.4f ms (highest percentile with 10 samples beyond it: p%.1f)",
		rd.N, rd.P50, rd.P99, supportedPercentile(rd.N))
	late := summarize(lates)
	out.printf("loadgen: %d writes, late p50=%.3f ms p99=%.3f ms, max outstanding acks %d", late.N, late.P50/1e6, late.P99/1e6, maxOut)

	out.e2e["remind_p50_ms"] = rd.P50
	out.e2e["cpu_us_per_event"] = win.cpu / float64(usage) * 1e6
	out.e2e["events_per_s"] = float64(usage) / win.seconds
	sb, err := storeBytes(disk, all)
	if err != nil {
		return nil, err
	}
	out.e2e["store_bytes_per_household"] = float64(sb) / float64(len(all))

	if tr == nil {
		return out, nil
	}
	// Per-layer metrics.
	L := out.layers
	usageAll := stEnd.Events - st0.Events
	perReport := func(n int64) float64 { return float64(n) / float64(usageAll) }
	L["wire.server_writes_per_report"] = perReport(wireSt.writes.Load())
	L["wire.server_reads_per_report"] = perReport(wireSt.reads.Load())
	L["wire.bytes_per_report"] = perReport(wireSt.bytes.Load())
	L["wire.server_write_us_p50"] = median(wireSt.writeNS) / 1e3
	L["server.ack_p50_ms"] = median(acks)
	fleetLayers(L, st0, stFinal, usageAll)
	L["fleet.tick_us_p50"] = median(ticks)
	L["sim.pending_timers_per_household"] = pending
	storeLayers(L, tb, len(all))
	bus.layers(L)
	goLayers(L, win)
	L["loadgen.late_p99_ms"] = late.P99 / 1e6
	L["loadgen.max_outstanding_acks"] = float64(maxOut)
	hubNS, starts, reminders, err := timeReplays(func(k int) (replayResult, error) {
		return replaySchedule(plainSys, disk, scheds[k%len(scheds)])
	})
	if err != nil {
		return nil, err
	}
	L["hub.handle_usage_ns"] = hubNS
	L["hub.reminders_per_start"] = float64(reminders) / float64(starts)

	// The reminder path, report by report.
	var readStep, stepRem, remLED, writes []float64
	stages := make([][]float64, len(reminderStages))
	for g, gw := range gateways {
		sch, h := gw.sch, hooks[gw.sch.Household]
		wireSt.mu.Lock()
		reads := wireSt.startRead[sch.Household]
		wireSt.mu.Unlock()
		startOrd := startOrdinals(*sch)
		for i, r := range sch.Reports {
			if r.Kind != wire.TypeUsageStart || !inWindow(r) || startOrd[i] >= len(reads) || startOrd[i] >= len(h.steps) {
				continue
			}
			readStep = append(readStep, float64(h.steps[startOrd[i]]-reads[startOrd[i]])/1e3)
		}
		for i, r := range sch.Reports {
			if r.acked() && gw.ackAt[i] != 0 {
				trace := fmt.Sprintf("%s/%d", sch.Household, r.Seq)
				root := tr.add(trace, 0, "report", gw.sentAt[i], gw.ackAt[i])
				tr.add(trace, root, "gateway.write", gw.sentAt[i], gw.wroteAt[i])
			}
		}
		remOrd := reminderOrdinals(expect[g].leds)
		for pos, e := range expect[g].leds {
			i, m := e.Report, remOrd[pos]
			j := startOrd[i]
			if e.Color != wire.LEDRed || !inWindow(sch.Reports[i]) || pos >= len(gw.leds) ||
				j >= len(reads) || j >= len(h.steps) || m >= len(h.reminders) {
				continue
			}
			// Each boundary happens after the one before it, so the stages
			// tile the reminder's path exactly.
			b := []int64{gw.sentAt[i], reads[j], h.steps[j], h.reminders[m], gw.leds[pos].At}
			stepRem = append(stepRem, float64(h.reminders[m]-h.steps[j])/1e3)
			remLED = append(remLED, float64(gw.leds[pos].At-h.reminders[m])/1e3)
			trace := fmt.Sprintf("%s/%d", sch.Household, sch.Reports[i].Seq)
			root := tr.add(trace, 0, "reminder", b[0], b[len(b)-1])
			for k := 1; k < len(b); k++ {
				tr.add(trace, root, reminderStages[k-1], b[k-1], b[k])
				stages[k-1] = append(stages[k-1], float64(b[k]-b[k-1])/1e3)
			}
			// The gateway's write call overlaps the server's read of the
			// frame on loopback, so it is reported beside the tiling.
			tr.add(trace, root, "gateway.write", gw.sentAt[i], gw.wroteAt[i])
			writes = append(writes, float64(gw.wroteAt[i]-gw.sentAt[i])/1e3)
		}
	}
	L["server.read_to_step_us_p50"] = median(readStep)
	L["hub.step_to_reminder_us_p50"] = median(stepRem)
	L["hub.reminder_to_led_us_p50"] = median(remLED)
	for k, name := range reminderStages {
		out.stages = append(out.stages, stageRow{Name: name, D: summarize(stages[k])})
	}
	out.stages = append(out.stages, stageRow{Name: "(gateway.write call)", D: summarize(writes), Overlaps: true})
	return out, nil
}

// reminderStages tile a reminder's path from the gateway's write of the
// wrong-tool start to its read of the red LED command: the gateway's
// write until the server's read of the frame returns, that read until
// the System's OnStep hook, OnStep until OnReminder, and OnReminder
// until the gateway reads the red LED command.
var reminderStages = []string{"gateway.write_to_server.read", "server.read_to_step", "hub.step_to_reminder", "hub.reminder_to_led"}

func fleetConfig(b store.Backend, newSys func(string) (coreda.SystemConfig, error), bus *notify.Bus) fleet.Config {
	return fleet.Config{Shards: shards, Backend: b, NewSystem: newSys, IdleEvict: idleEvict, Bus: bus}
}

// serveConfig is coreda-fleet's serving configuration, with the virtual
// clock rate and checkpoint interval set for a short run.
func serveConfig() fleet.ServeConfig {
	return fleet.ServeConfig{Speed: tcpSpeed, CheckpointEvery: checkpointEvery}
}

// admit makes every named household resident: a clock-only event per
// household, then a Stats barrier behind them.
func admit(f *fleet.Fleet, names []string) error {
	for _, n := range names {
		if err := f.Deliver(fleet.Event{Household: n, Kind: fleet.EventAdvance}); err != nil {
			return err
		}
	}
	f.Stats()
	return nil
}

// ledMismatches counts the positions at which the LED commands read
// differ from the reference, a missing or extra command counting once.
func ledMismatches(exp []expectedLED, got []ledRead) int {
	n := 0
	for i := 0; i < max(len(exp), len(got)); i++ {
		if i >= len(exp) || i >= len(got) || exp[i].ledCmd != got[i].ledCmd {
			n++
		}
	}
	return n
}

// storeBytes sums the newest checkpoint generation of each household.
func storeBytes(b store.Backend, names []string) (int64, error) {
	var total int64
	for _, n := range names {
		data, err := b.Get(n, nil)
		if err != nil {
			return 0, fmt.Errorf("checkpoint %s: %w", n, err)
		}
		total += int64(len(data))
	}
	return total, nil
}

// pendingPerHousehold is the mean number of pending scheduler timers
// per resident household, read on their shard loops.
func pendingPerHousehold(f *fleet.Fleet, names []string) (float64, error) {
	total := 0
	for _, h := range names {
		err := f.Do(h, func(t *fleet.Tenant) error {
			total += t.Sched.Pending()
			return nil
		})
		if err != nil {
			return 0, err
		}
	}
	return float64(total) / float64(len(names)), nil
}

// fleetLayers fills the fleet's per-1k-event counters from two Stats
// snapshots.
func fleetLayers(L map[string]float64, a, b fleet.Stats, events int) {
	per1k := func(n int) float64 { return 1000 * float64(n) / float64(events) }
	L["fleet.admissions_per_1k"] = per1k(b.Admissions - a.Admissions)
	L["fleet.recovered_per_1k"] = per1k(b.Recovered - a.Recovered)
	L["fleet.evictions_per_1k"] = per1k(b.Evictions - a.Evictions)
	L["fleet.checkpoints_per_1k"] = per1k(b.Checkpoints - a.Checkpoints)
	L["queue.job_retries"] = float64(b.JobRetries - a.JobRetries)
}

// storeLayers fills the store metrics from the timing backend.
func storeLayers(L map[string]float64, tb *timedBackend, households int) {
	tb.mu.Lock()
	defer tb.mu.Unlock()
	L["store.puts_per_household"] = float64(tb.puts) / float64(households)
	L["store.put_us_p50"] = zeroIfNaN(median(tb.putNS) / 1e3)
	if tb.puts > 0 {
		L["store.put_bytes_mean"] = float64(tb.putBytes) / float64(tb.puts)
	}
	L["store.fsync_puts"] = float64(tb.fsyncPuts)
	L["store.gets_per_household"] = float64(tb.gets) / float64(households)
	L["store.get_us_p50"] = zeroIfNaN(median(tb.getNS) / 1e3)
}

func goLayers(L map[string]float64, w window) {
	L["go.gc_cycles"] = float64(w.gcs)
	L["go.gc_cpu_s"] = w.gcCPU
	L["go.heap_live_bytes"] = float64(w.heapLive)
	L["host.steal_pct"] = w.stealPct
}

// timeReplays repeats a standalone replay until it has run for at least
// 300 ms and returns the mean time per HandleUsage call, with the
// starts and reminders counted over every replay.
func timeReplays(replay func(k int) (replayResult, error)) (nsPerCall float64, starts, reminders int, err error) {
	var ns float64
	calls := 0
	for k := 0; ns < 3e8; k++ {
		r, err := replay(k)
		if err != nil {
			return 0, 0, 0, err
		}
		ns += r.handleNS
		calls += r.calls
		starts += r.starts
		reminders += r.reminders
	}
	return ns / float64(calls), starts, reminders, nil
}

func zeroIfNaN(v float64) float64 {
	if v != v {
		return 0
	}
	return v
}

// runDigest hashes a fleet's checkpoint digest with the LED commands each
// gateway (or the probe) received.
func runDigest(b store.Backend, leds [][]ledCmd) (string, error) {
	d, err := fleet.Digest(b)
	if err != nil {
		return "", err
	}
	h := sha256.New()
	h.Write([]byte(d))
	for _, cmds := range leds {
		fmt.Fprintf(h, "|%d:", len(cmds))
		for _, c := range cmds {
			fmt.Fprintf(h, "%d/%d/%d,", c.UID, c.Color, c.Blinks)
		}
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
