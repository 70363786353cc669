package report

import (
	"strings"
	"testing"

	"coreda/internal/trace"
)

// session builds the records of one session with the given number of
// steps, reminders (at the given level, aimed at tool), and praises.
func session(n int, activity string, steps, reminders int, level string, tool uint16, praises int) []trace.Record {
	recs := []trace.Record{{Kind: trace.KindSessionStart, Session: n, Activity: activity, T: float64(n * 100)}}
	for i := 0; i < steps; i++ {
		recs = append(recs, trace.Record{Kind: trace.KindStep, Session: n, Step: 21})
	}
	for i := 0; i < reminders; i++ {
		recs = append(recs, trace.Record{Kind: trace.KindReminder, Session: n, Tool: tool, Level: level})
	}
	for i := 0; i < praises; i++ {
		recs = append(recs, trace.Record{Kind: trace.KindPraise, Session: n})
	}
	recs = append(recs, trace.Record{Kind: trace.KindSessionEnd, Session: n, T: float64(n*100 + 60)})
	return recs
}

func TestBuildAggregates(t *testing.T) {
	var records []trace.Record
	records = append(records, session(1, "tea-making", 4, 2, "minimal", 22, 2)...)
	records = append(records, session(2, "tea-making", 4, 1, "specific", 22, 1)...)
	records = append(records, session(3, "tea-making", 2, 0, "", 0, 0)...) // incomplete

	r := Build("Mr. Tanaka", records, map[string]int{"tea-making": 4})
	if len(r.Sessions) != 3 {
		t.Fatalf("sessions = %d", len(r.Sessions))
	}
	if got := r.CompletionRate; got < 0.66 || got > 0.67 {
		t.Errorf("completion = %v, want 2/3", got)
	}
	if r.RemindersPerSession != 1.0 {
		t.Errorf("reminders/session = %v", r.RemindersPerSession)
	}
	if r.PraisesPerSession != 1.0 {
		t.Errorf("praises/session = %v", r.PraisesPerSession)
	}
	// 1 of 3 reminders was specific.
	if got := r.EscalationShare; got < 0.33 || got > 0.34 {
		t.Errorf("escalation share = %v", got)
	}
	if len(r.ToolLoads) != 1 || r.ToolLoads[0].Tool != 22 || r.ToolLoads[0].Reminders != 3 {
		t.Errorf("tool loads = %+v", r.ToolLoads)
	}
	if r.Trend != TrendUnknown {
		t.Errorf("trend with 3 sessions = %v, want unknown", r.Trend)
	}
}

func TestTrendDetection(t *testing.T) {
	build := func(firstLoad, secondLoad int) *Report {
		var records []trace.Record
		for i := 1; i <= 4; i++ {
			records = append(records, session(i, "a", 4, firstLoad, "minimal", 1, 0)...)
		}
		for i := 5; i <= 8; i++ {
			records = append(records, session(i, "a", 4, secondLoad, "minimal", 1, 0)...)
		}
		return Build("u", records, map[string]int{"a": 4})
	}
	if r := build(3, 1); r.Trend != TrendImproving {
		t.Errorf("3->1 trend = %v", r.Trend)
	}
	if r := build(1, 3); r.Trend != TrendDeclining {
		t.Errorf("1->3 trend = %v", r.Trend)
	}
	if r := build(2, 2); r.Trend != TrendStable {
		t.Errorf("2->2 trend = %v", r.Trend)
	}
}

func TestUnknownActivityCompletion(t *testing.T) {
	var records []trace.Record
	records = append(records, session(1, "mystery", 1, 0, "", 0, 0)...)
	r := Build("u", records, nil)
	if !r.Sessions[0].Completed {
		t.Error("unknown activity with steps should count complete")
	}
}

func TestUnterminatedSessionIsFlushed(t *testing.T) {
	records := []trace.Record{
		{Kind: trace.KindSessionStart, Session: 1, Activity: "a", T: 0},
		{Kind: trace.KindStep, Session: 1, Step: 21},
	}
	r := Build("u", records, map[string]int{"a": 4})
	if len(r.Sessions) != 1 {
		t.Fatalf("sessions = %d", len(r.Sessions))
	}
	if r.Sessions[0].Completed {
		t.Error("1/4-step session counted complete")
	}
}

func TestRender(t *testing.T) {
	var records []trace.Record
	for i := 1; i <= 8; i++ {
		load := 1
		if i > 4 {
			load = 3
		}
		records = append(records, session(i, "tea-making", 4, load, "specific", 22, 1)...)
	}
	r := Build("Mr. Tanaka", records, map[string]int{"tea-making": 4})
	out := r.Render(map[uint16]string{22: "electronic pot"})
	for _, want := range []string{"Mr. Tanaka", "completion rate", "declining", "electronic pot"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	empty := Build("x", nil, nil)
	if out := empty.Render(nil); !strings.Contains(out, "sessions recorded:      0") {
		t.Errorf("empty render:\n%s", out)
	}
	if empty.Trend != TrendUnknown {
		t.Error("empty trend")
	}
}

// TestIdlesAndToolLoadOrder: idle records count per session, tools with
// equal reminder load rank by tool ID, and Render lists the top three.
func TestIdlesAndToolLoadOrder(t *testing.T) {
	records := []trace.Record{
		{Kind: trace.KindSessionStart, Session: 1, Activity: "tea-making"},
		{Kind: trace.KindIdle, Session: 1},
		{Kind: trace.KindIdle, Session: 1},
	}
	for _, tool := range []uint16{5, 3, 4, 2} {
		records = append(records, trace.Record{Kind: trace.KindReminder, Session: 1, Tool: tool, Level: "minimal"})
	}
	records = append(records, trace.Record{Kind: trace.KindSessionEnd, Session: 1, T: 60})

	r := Build("Mr. Tanaka", records, nil)
	if len(r.Sessions) != 1 || r.Sessions[0].Idles != 2 {
		t.Fatalf("sessions = %+v, want one with 2 idles", r.Sessions)
	}
	var order []uint16
	for _, tl := range r.ToolLoads {
		order = append(order, tl.Tool)
	}
	if len(order) != 4 || order[0] != 2 || order[1] != 3 || order[2] != 4 || order[3] != 5 {
		t.Fatalf("tool order = %v, want [2 3 4 5]", order)
	}
	out := r.Render(nil)
	if !strings.Contains(out, "tool 4") || strings.Contains(out, "tool 5") {
		t.Fatalf("Render should list the top three tools only:\n%s", out)
	}
}
