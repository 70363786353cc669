package reminding

import (
	"strings"
	"testing"
	"time"

	"coreda/internal/adl"
	"coreda/internal/core"
	"coreda/internal/wire"
)

// New builds a subsystem on the heap through Init.
func New(cfg Config, display Display, leds LEDs) (*Subsystem, error) {
	s := new(Subsystem)
	if err := s.Init(cfg, display, leds); err != nil {
		return nil, err
	}
	return s, nil
}

type fakeDisplay struct {
	reminders []Reminder
	praises   []Praise
}

func (d *fakeDisplay) ShowReminder(r Reminder) { d.reminders = append(d.reminders, r) }
func (d *fakeDisplay) ShowPraise(p Praise)     { d.praises = append(d.praises, p) }

type ledCall struct {
	tool   adl.ToolID
	color  wire.LEDColor
	blinks int
	period time.Duration
}

type fakeLEDs struct{ calls []ledCall }

func (l *fakeLEDs) Blink(tool adl.ToolID, color wire.LEDColor, blinks int, period time.Duration) {
	l.calls = append(l.calls, ledCall{tool, color, blinks, period})
}

func newSub(t *testing.T, cfg Config) (*Subsystem, *fakeDisplay, *fakeLEDs) {
	t.Helper()
	if cfg.Activity == nil {
		cfg.Activity = adl.TeaMaking()
	}
	d := &fakeDisplay{}
	l := &fakeLEDs{}
	s, err := New(cfg, d, l)
	if err != nil {
		t.Fatal(err)
	}
	return s, d, l
}

func TestConfigRequiresActivity(t *testing.T) {
	if _, err := New(Config{}, nil, nil); err == nil {
		t.Error("nil activity accepted")
	}
}

func TestMinimalReminderRendersAllChannels(t *testing.T) {
	s, d, l := newSub(t, Config{})
	r, err := s.Remind(13*time.Second, core.Prompt{Tool: adl.ToolPot, Level: core.Minimal}, TriggerWrongTool, adl.ToolTeaCup)
	if err != nil {
		t.Fatal(err)
	}
	// Figure 1, time 13 s: text, red LED on teacup, green LED on pot,
	// picture of pot.
	if r.Text != "Please use electronic pot." {
		t.Errorf("text = %q", r.Text)
	}
	if r.Picture != "pot.png" {
		t.Errorf("picture = %q", r.Picture)
	}
	if r.GreenBlinks != 3 || r.RedBlinks != 3 {
		t.Errorf("blinks = %d/%d", r.GreenBlinks, r.RedBlinks)
	}
	if len(d.reminders) != 1 {
		t.Fatalf("display calls = %d", len(d.reminders))
	}
	if len(l.calls) != 2 {
		t.Fatalf("led calls = %d", len(l.calls))
	}
	if l.calls[0].tool != adl.ToolPot || l.calls[0].color != wire.LEDGreen {
		t.Errorf("green call = %+v", l.calls[0])
	}
	if l.calls[1].tool != adl.ToolTeaCup || l.calls[1].color != wire.LEDRed {
		t.Errorf("red call = %+v", l.calls[1])
	}
}

func TestIdleTriggerHasNoRedLED(t *testing.T) {
	s, _, l := newSub(t, Config{})
	r, err := s.Remind(71*time.Second, core.Prompt{Tool: adl.ToolTeaCup, Level: core.Minimal}, TriggerIdle, adl.NoTool)
	if err != nil {
		t.Fatal(err)
	}
	if r.RedBlinks != 0 {
		t.Errorf("RedBlinks = %d", r.RedBlinks)
	}
	if len(l.calls) != 1 || l.calls[0].color != wire.LEDGreen {
		t.Errorf("led calls = %+v", l.calls)
	}
}

func TestSpecificReminderIsPersonalizedAndBlinksMore(t *testing.T) {
	s, _, _ := newSub(t, Config{UserName: "Mr. Kim"})
	r, err := s.Remind(0, core.Prompt{Tool: adl.ToolTeaBox, Level: core.Specific}, TriggerIdle, adl.NoTool)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(r.Text, "Mr. Kim,") || !strings.Contains(r.Text, "tea-box") {
		t.Errorf("text = %q", r.Text)
	}
	if r.GreenBlinks != 8 {
		t.Errorf("GreenBlinks = %d, want more than minimal", r.GreenBlinks)
	}
	if s.Stats.SpecificSent != 1 || s.Stats.MinimalSent != 0 {
		t.Errorf("stats = %+v", s.Stats)
	}
}

func TestUnknownToolRejected(t *testing.T) {
	s, _, _ := newSub(t, Config{})
	if _, err := s.Remind(0, core.Prompt{Tool: adl.ToolBrush}, TriggerIdle, adl.NoTool); err == nil {
		t.Error("foreign tool accepted")
	}
}

func TestEscalationAfterUnansweredReminders(t *testing.T) {
	s, _, _ := newSub(t, Config{EscalateAfter: 2})
	p := core.Prompt{Tool: adl.ToolPot, Level: core.Minimal}
	r1, _ := s.Remind(0, p, TriggerIdle, adl.NoTool)
	r2, _ := s.Remind(30*time.Second, p, TriggerIdle, adl.NoTool)
	if r1.Escalated || r2.Escalated {
		t.Error("escalated too early")
	}
	r3, _ := s.Remind(60*time.Second, p, TriggerIdle, adl.NoTool)
	if !r3.Escalated || r3.Level != core.Specific {
		t.Errorf("third reminder = %+v, want escalated specific", r3)
	}
	if s.Stats.Escalations != 1 {
		t.Errorf("Escalations = %d", s.Stats.Escalations)
	}
}

func TestProgressResetsEscalation(t *testing.T) {
	s, _, _ := newSub(t, Config{EscalateAfter: 2})
	p := core.Prompt{Tool: adl.ToolPot, Level: core.Minimal}
	s.Remind(0, p, TriggerIdle, adl.NoTool)
	s.Remind(1, p, TriggerIdle, adl.NoTool)
	s.NoteProgress(2, false)
	r, _ := s.Remind(3, p, TriggerIdle, adl.NoTool)
	if r.Escalated {
		t.Error("escalated despite progress reset")
	}
}

func TestEscalationTracksToolChange(t *testing.T) {
	s, _, _ := newSub(t, Config{EscalateAfter: 1})
	s.Remind(0, core.Prompt{Tool: adl.ToolPot, Level: core.Minimal}, TriggerIdle, adl.NoTool)
	// Different tool: counter restarts.
	r, _ := s.Remind(1, core.Prompt{Tool: adl.ToolKettle, Level: core.Minimal}, TriggerIdle, adl.NoTool)
	if r.Escalated {
		t.Error("escalated across different tools")
	}
	r2, _ := s.Remind(2, core.Prompt{Tool: adl.ToolKettle, Level: core.Minimal}, TriggerIdle, adl.NoTool)
	if !r2.Escalated {
		t.Error("second reminder for same tool should escalate (EscalateAfter=1)")
	}
}

func TestEscalationDisabled(t *testing.T) {
	s, _, _ := newSub(t, Config{EscalateAfter: -1})
	p := core.Prompt{Tool: adl.ToolPot, Level: core.Minimal}
	for i := 0; i < 5; i++ {
		r, _ := s.Remind(time.Duration(i), p, TriggerIdle, adl.NoTool)
		if r.Escalated || r.Level != core.Minimal {
			t.Fatalf("reminder %d escalated despite EscalateAfter=-1", i)
		}
	}
}

func TestPraise(t *testing.T) {
	s, d, _ := newSub(t, Config{})
	s.NoteProgress(23*time.Second, true)
	if len(d.praises) != 1 {
		t.Fatalf("praises = %d", len(d.praises))
	}
	if d.praises[0].Text != "Excellent!" {
		t.Errorf("praise text = %q", d.praises[0].Text)
	}
	if s.Stats.Praises != 1 {
		t.Errorf("Praises = %d", s.Stats.Praises)
	}
	s.NoteProgress(24*time.Second, false)
	if len(d.praises) != 1 {
		t.Error("praise delivered when praise=false")
	}
}

func TestNilSinksAreSkipped(t *testing.T) {
	s, err := New(Config{Activity: adl.TeaMaking()}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Remind(0, core.Prompt{Tool: adl.ToolPot}, TriggerIdle, adl.NoTool); err != nil {
		t.Errorf("Remind with nil sinks: %v", err)
	}
	s.NoteProgress(0, true)
	if s.Stats.Reminders != 1 || s.Stats.Praises != 1 {
		t.Errorf("stats = %+v", s.Stats)
	}
}

func TestTriggerString(t *testing.T) {
	if TriggerIdle.String() != "idle" || TriggerWrongTool.String() != "wrong-tool" {
		t.Error("trigger strings")
	}
	if Trigger(9).String() == "" {
		t.Error("unknown trigger")
	}
}
