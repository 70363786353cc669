// Package reminding implements CoReDA's reminding subsystem: it renders
// the planning subsystem's prompts into the paper's three channels — text
// message, tool picture and LED blinking — and praises completed steps.
//
// Two trigger situations (section 2.3):
//  1. the user does not use the tool s/he should use for a certain moment
//     (idle timeout);
//  2. the user incorrectly uses another tool.
//
// In both cases the picture and text of the correct tool are shown and its
// green LED blinks; in the wrong-tool case the red LED on the offending
// tool blinks too. Minimal reminders give a short message and fewer
// blinks; specific reminders give a long personalized message and more
// blinks.
package reminding

import (
	"fmt"
	"time"

	"coreda/internal/adl"
	"coreda/internal/core"
	"coreda/internal/wire"
)

// Trigger says why a reminder fired.
type Trigger int

// Trigger situations from the paper.
const (
	// TriggerIdle fires when the user has done nothing for the
	// statistically-derived timeout.
	TriggerIdle Trigger = iota + 1
	// TriggerWrongTool fires when the user uses a tool out of order.
	TriggerWrongTool
)

// String returns the trigger name.
func (t Trigger) String() string {
	switch t {
	case TriggerIdle:
		return "idle"
	case TriggerWrongTool:
		return "wrong-tool"
	default:
		return fmt.Sprintf("Trigger(%d)", int(t))
	}
}

// Reminder is one fully rendered reminder.
type Reminder struct {
	// At is when the reminder was delivered.
	At time.Duration
	// Tool is the tool the user should use next.
	Tool adl.ToolID
	// Level is the reminding level actually used (after escalation).
	Level core.Level
	// Trigger says what fired the reminder.
	Trigger Trigger
	// WrongTool is the offending tool for TriggerWrongTool (NoTool
	// otherwise); its red LED blinks.
	WrongTool adl.ToolID
	// Text is the message shown on the display.
	Text string
	// Picture is the asset reference of the tool picture shown.
	Picture string
	// GreenBlinks is how many times the correct tool's green LED blinks.
	GreenBlinks int
	// RedBlinks is how many times the wrong tool's red LED blinks.
	RedBlinks int
	// Escalated reports whether the level was raised above the planner's
	// choice because earlier reminders went unanswered.
	Escalated bool
}

// Praise is the encouragement shown when the user progresses (Figure 1:
// "Excellent!").
type Praise struct {
	At   time.Duration
	Text string
}

// Alert is a caregiver-facing maintenance notification — a sensor node
// died, a battery must be changed — delivered through the reminding
// subsystem's display channel but addressed to the caregiver, not the
// user. Dementia-assistive systems must run unattended for long periods;
// surfacing degradation is part of reminding sensibly.
type Alert struct {
	// At is when the alert was raised.
	At time.Duration
	// Tool is the affected tool (NoTool for system-wide alerts).
	Tool adl.ToolID
	// Text is the human-readable message.
	Text string
	// Recovered marks the symmetric all-clear for an earlier alert.
	Recovered bool
}

// AlertSink receives caregiver alerts (a pager, a log, a test recorder).
type AlertSink interface {
	ShowAlert(Alert)
}

// Display receives rendered display output (text + picture). The real
// system drives a screen in front of the user; tests and simulations
// record the calls.
type Display interface {
	ShowReminder(Reminder)
	ShowPraise(Praise)
}

// LEDs drives tool LEDs; the sensornet gateway implements the actual
// radio path.
type LEDs interface {
	Blink(tool adl.ToolID, color wire.LEDColor, blinks int, period time.Duration)
}

// Config parameterizes the subsystem.
type Config struct {
	// Activity supplies tool names and pictures.
	Activity *adl.Activity
	// UserName personalizes specific messages ("Mr. Kim"). Empty means
	// "Dear user".
	UserName string
	// MinimalBlinks is the green-LED blink count for minimal reminders
	// (zero means 3).
	MinimalBlinks int
	// SpecificBlinks is the blink count for specific reminders (zero
	// means 8).
	SpecificBlinks int
	// BlinkPeriod is the LED blink period (zero means 500 ms).
	BlinkPeriod time.Duration
	// EscalateAfter is how many unanswered reminders for the same tool
	// force the level to Specific (zero means 2; negative disables
	// escalation).
	EscalateAfter int
}

func (c *Config) fill() error {
	if c.Activity == nil {
		return fmt.Errorf("reminding: Config.Activity is required")
	}
	if c.UserName == "" {
		c.UserName = "Dear user"
	}
	if c.MinimalBlinks == 0 {
		c.MinimalBlinks = 3
	}
	if c.SpecificBlinks == 0 {
		c.SpecificBlinks = 8
	}
	if c.BlinkPeriod == 0 {
		c.BlinkPeriod = 500 * time.Millisecond
	}
	if c.EscalateAfter == 0 {
		c.EscalateAfter = 2
	}
	return nil
}

// Stats counts subsystem activity.
type Stats struct {
	Reminders    int
	MinimalSent  int
	SpecificSent int
	Escalations  int
	Praises      int
	// Alerts counts caregiver alerts raised (recoveries included).
	Alerts int
}

// Subsystem renders and delivers reminders.
type Subsystem struct {
	cfg     Config
	display Display
	leds    LEDs
	alerts  AlertSink

	// unanswered counts consecutive reminders for the same tool with no
	// progress in between; it drives escalation.
	unanswered     int32
	unansweredTool adl.ToolID

	// Stats accumulates counters.
	Stats Stats
}

// Init builds the subsystem in place, on a zero Subsystem, so an owner
// holds it by value. display and leds may be nil (that channel is then
// skipped — e.g. a deployment without tool LEDs).
func (s *Subsystem) Init(cfg Config, display Display, leds LEDs) error {
	if err := cfg.fill(); err != nil {
		return err
	}
	*s = Subsystem{cfg: cfg, display: display, leds: leds}
	return nil
}

// Remind renders prompt and delivers it through every configured channel.
// wrongTool must be the offending tool for TriggerWrongTool and NoTool
// otherwise.
func (s *Subsystem) Remind(at time.Duration, prompt core.Prompt, trigger Trigger, wrongTool adl.ToolID) (Reminder, error) {
	tool, ok := s.cfg.Activity.Tool(prompt.Tool)
	if !ok {
		return Reminder{}, fmt.Errorf("reminding: tool %d not in activity %q", prompt.Tool, s.cfg.Activity.Name)
	}

	level := prompt.Level
	escalated := false
	if s.cfg.EscalateAfter > 0 {
		if s.unansweredTool == prompt.Tool && int(s.unanswered) >= s.cfg.EscalateAfter && level == core.Minimal {
			level = core.Specific
			escalated = true
		}
		if s.unansweredTool == prompt.Tool {
			s.unanswered++
		} else {
			s.unansweredTool = prompt.Tool
			s.unanswered = 1
		}
	}

	blinks := s.cfg.MinimalBlinks
	if level == core.Specific {
		blinks = s.cfg.SpecificBlinks
	}
	r := Reminder{
		At:          at,
		Tool:        prompt.Tool,
		Level:       level,
		Trigger:     trigger,
		WrongTool:   wrongTool,
		Text:        s.message(tool, level),
		Picture:     tool.Picture,
		GreenBlinks: blinks,
		Escalated:   escalated,
	}
	if trigger == TriggerWrongTool && wrongTool != adl.NoTool {
		r.RedBlinks = blinks
	}

	if s.display != nil {
		s.display.ShowReminder(r)
	}
	if s.leds != nil {
		s.leds.Blink(r.Tool, wire.LEDGreen, r.GreenBlinks, s.cfg.BlinkPeriod)
		if r.RedBlinks > 0 {
			s.leds.Blink(r.WrongTool, wire.LEDRed, r.RedBlinks, s.cfg.BlinkPeriod)
		}
	}

	s.Stats.Reminders++
	if level == core.Specific {
		s.Stats.SpecificSent++
	} else {
		s.Stats.MinimalSent++
	}
	if escalated {
		s.Stats.Escalations++
	}
	return r, nil
}

// SetAlertSink installs (or, with nil, removes) the caregiver alert
// channel. Kept out of New so existing call sites stay unchanged.
func (s *Subsystem) SetAlertSink(sink AlertSink) { s.alerts = sink }

// Alert raises a caregiver alert through the configured sink.
func (s *Subsystem) Alert(a Alert) {
	s.Stats.Alerts++
	if s.alerts != nil {
		s.alerts.ShowAlert(a)
	}
}

// NoteProgress must be called when the user performs a step; it resets
// the escalation counter and delivers praise (Figure 1: correct progress
// earns "Excellent!").
func (s *Subsystem) NoteProgress(at time.Duration, praise bool) {
	s.unanswered = 0
	s.unansweredTool = adl.NoTool
	if praise {
		p := Praise{At: at, Text: "Excellent!"}
		if s.display != nil {
			s.display.ShowPraise(p)
		}
		s.Stats.Praises++
	}
}

// message renders the text channel for the given level.
func (s *Subsystem) message(tool adl.Tool, level core.Level) string {
	if level == core.Specific {
		return fmt.Sprintf("%s, please use the %s in front of you.", s.cfg.UserName, tool.Name)
	}
	return fmt.Sprintf("Please use %s.", tool.Name)
}
