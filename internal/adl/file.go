package adl

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"
)

// ActivityFile is the JSON schema for declaring an activity. It is the
// operational form of the paper's generalization claim: supporting a new
// ADL is writing one of these files and sticking a node on each tool —
// "What we need do is only attach one PAVENET to a tool, and configure
// its uid as the tool ID."
//
//	{
//	  "name": "evening-routine",
//	  "tools": [
//	    {"id": 61, "name": "radio", "sensor": "accelerometer", "picture": "radio.png"}
//	  ],
//	  "steps": [
//	    {"name": "Turn off the radio", "tool": 61, "duration": "1.5s", "intensity": 1.6}
//	  ]
//	}
type ActivityFile struct {
	Name  string     `json:"name"`
	Tools []ToolFile `json:"tools"`
	Steps []StepFile `json:"steps"`
}

// ToolFile declares one instrumented tool.
type ToolFile struct {
	ID      uint16 `json:"id"`
	Name    string `json:"name"`
	Sensor  string `json:"sensor"`
	Picture string `json:"picture,omitempty"`
}

// StepFile declares one step.
type StepFile struct {
	Name      string  `json:"name"`
	Tool      uint16  `json:"tool"`
	Duration  string  `json:"duration"`
	Intensity float64 `json:"intensity"`
}

// sensorNames maps file spellings to sensor kinds.
var sensorNames = map[string]SensorKind{
	"accelerometer": SensorAccelerometer,
	"pressure":      SensorPressure,
	"brightness":    SensorBrightness,
	"temperature":   SensorTemperature,
	"motion":        SensorMotion,
}

// ParseSensorKind converts a file spelling to a SensorKind.
func ParseSensorKind(name string) (SensorKind, error) {
	if k, ok := sensorNames[name]; ok {
		return k, nil
	}
	return 0, fmt.Errorf("adl: unknown sensor kind %q", name)
}

// ReadActivity parses and validates an activity declaration.
func ReadActivity(r io.Reader) (*Activity, error) {
	var f ActivityFile
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		return nil, fmt.Errorf("adl: parsing activity: %w", err)
	}
	a := &Activity{
		Name:  f.Name,
		Tools: make(map[ToolID]Tool, len(f.Tools)),
	}
	for _, t := range f.Tools {
		kind, err := ParseSensorKind(t.Sensor)
		if err != nil {
			return nil, fmt.Errorf("adl: tool %q: %w", t.Name, err)
		}
		a.Tools[ToolID(t.ID)] = Tool{ID: ToolID(t.ID), Name: t.Name, Sensor: kind, Picture: t.Picture}
	}
	for _, s := range f.Steps {
		d, err := time.ParseDuration(s.Duration)
		if err != nil {
			return nil, fmt.Errorf("adl: step %q: bad duration %q: %w", s.Name, s.Duration, err)
		}
		a.Steps = append(a.Steps, Step{
			Name:            s.Name,
			Tool:            ToolID(s.Tool),
			TypicalDuration: d,
			Intensity:       s.Intensity,
		})
	}
	if err := a.Validate(); err != nil {
		return nil, err
	}
	return a, nil
}

// LoadActivityFile reads an activity declaration from disk.
func LoadActivityFile(path string) (*Activity, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("adl: %w", err)
	}
	defer f.Close()
	return ReadActivity(f)
}
