package main

import (
	"fmt"
	"time"

	"coreda/internal/adl"
	"coreda/internal/sim"
	"coreda/internal/wire"
)

// Load shape of one home gateway. A report is any frame a gateway sends
// after its hello: a usage start, a usage end, or a node heartbeat.
const (
	// reportRate is each gateway's mean report rate (Poisson arrivals).
	reportRate = 1000.0
	// heartbeatShare is the fraction of reports that are heartbeats.
	heartbeatShare = 0.2
	// wrongChance is the chance that a start which has an expected step
	// (steps 2-4 of a session) is preceded by a wrong-tool start. Three
	// such chances per four-step session make 3w/(4+3w) = 1/4 of all
	// starts wrong at w = 4/9.
	wrongChance = 4.0 / 9.0
	// batchTick is the sender's write period. Reports due within one
	// tick leave in one write at the end of the tick: a sub-millisecond
	// sleep overshoots by about a millisecond on small VMs, so a per-report
	// sleep would measure the sleep, not the server. At 5 ms a write
	// carries about five reports per gateway.
	batchTick = 5 * time.Millisecond
)

// report is one scheduled gateway frame.
type report struct {
	// Due is when the report is due, from the start of the schedule.
	Due time.Duration
	// Batch is the index of the write that carries the report.
	Batch int
	Kind  wire.Type
	UID   uint16
	Seq   uint16
	// Hits is the start's threshold hit count; DurMs the usage length a
	// UsageEnd reports.
	Hits  uint8
	DurMs uint32
}

// acked reports whether the server acknowledges this kind of report.
func (r report) acked() bool { return r.Kind == wire.TypeUsageStart || r.Kind == wire.TypeUsageEnd }

// schedule is one gateway's seeded open-loop traffic.
type schedule struct {
	Household string
	// Offset is the phase of the gateway's write ticks, so two gateways
	// do not write in the same instant.
	Offset  time.Duration
	Reports []report
	// Batches is the number of writes; batch b is written at
	// Offset + (b+1)*batchTick.
	Batches int
}

// batchDue is when batch b is due to be written, from the schedule start.
func (s *schedule) batchDue(b int) time.Duration {
	return s.Offset + time.Duration(b+1)*batchTick
}

// newSchedule generates gateway gw's traffic for span. The simulated
// person makes tea over and over in the canonical order; before each of
// steps 2-4 they may first pick up a wrong tool (never the tool they
// just used and never the right one, so the sensing merge rule cannot
// fold two starts together whatever their spacing). Every start is
// followed by its end; heartbeats name a random node. The sequence
// depends only on seed and gw.
func newSchedule(seed int64, gw int, household string, span time.Duration) schedule {
	rng := sim.RNG(seed, fmt.Sprintf("perfbench/gateway/%d", gw))
	tools := teaTools()
	s := schedule{Household: household, Offset: time.Duration(gw) * batchTick / 2}
	var (
		at        time.Duration
		seq       uint16 = 1 // 0 is the hello's
		pos       int        // next canonical step
		wrongDone bool       // a wrong start already preceded step pos
		prev      uint16     // tool of the last start
		openStart = -1       // start whose end has not been sent
	)
	for {
		at += time.Duration(rng.ExpFloat64() / reportRate * float64(time.Second))
		if at >= span {
			break
		}
		r := report{Due: at, Seq: seq}
		switch {
		case rng.Float64() < heartbeatShare:
			r.Kind, r.UID = wire.TypeHeartbeat, tools[rng.Intn(len(tools))]
		case openStart >= 0:
			r.Kind, r.UID = wire.TypeUsageEnd, s.Reports[openStart].UID
			r.DurMs = uint32(200 + rng.Intn(1800))
			openStart = -1
		default:
			r.Kind, r.Hits = wire.TypeUsageStart, uint8(3+rng.Intn(8))
			if pos > 0 && !wrongDone && rng.Float64() < wrongChance {
				var alts []uint16
				for _, t := range tools {
					if t != tools[pos] && t != prev {
						alts = append(alts, t)
					}
				}
				r.UID = alts[rng.Intn(len(alts))]
				wrongDone = true
			} else {
				r.UID = tools[pos]
				pos = (pos + 1) % len(tools)
				wrongDone = false
			}
			prev = r.UID
			openStart = len(s.Reports)
		}
		r.Batch = 0
		if at > s.Offset {
			r.Batch = int((at - s.Offset) / batchTick)
		}
		s.Reports = append(s.Reports, r)
		seq++
	}
	if n := len(s.Reports); n > 0 {
		s.Batches = s.Reports[n-1].Batch + 1
	}
	return s
}

// teaTools lists the tea-making tools (node UIDs) in canonical step order.
func teaTools() []uint16 {
	act := adl.TeaMaking()
	tools := make([]uint16, len(act.Steps))
	for i, st := range act.Steps {
		tools[i] = uint16(st.Tool)
	}
	return tools
}

// startOrdinals gives, for each report, how many usage starts precede it:
// the index of a start among its household's starts, which is also the
// index of the step it becomes.
func startOrdinals(s schedule) []int {
	out := make([]int, len(s.Reports))
	n := 0
	for i, r := range s.Reports {
		out[i] = n
		if r.Kind == wire.TypeUsageStart {
			n++
		}
	}
	return out
}
