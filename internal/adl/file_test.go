package adl

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

const sampleActivityJSON = `{
  "name": "evening-routine",
  "tools": [
    {"id": 61, "name": "radio", "sensor": "accelerometer", "picture": "radio.png"},
    {"id": 62, "name": "watering can", "sensor": "accelerometer"},
    {"id": 63, "name": "door", "sensor": "motion"}
  ],
  "steps": [
    {"name": "Turn off the radio", "tool": 61, "duration": "1.5s", "intensity": 1.6},
    {"name": "Water the plants", "tool": 62, "duration": "5s", "intensity": 2.0},
    {"name": "Lock the door", "tool": 63, "duration": "2s", "intensity": 1.8}
  ]
}`

func TestReadActivity(t *testing.T) {
	a, err := ReadActivity(strings.NewReader(sampleActivityJSON))
	if err != nil {
		t.Fatal(err)
	}
	if a.Name != "evening-routine" || a.StepCount() != 3 {
		t.Errorf("activity = %q with %d steps", a.Name, a.StepCount())
	}
	step, ok := a.StepByTool(61)
	if !ok || step.TypicalDuration != 1500*time.Millisecond || step.Intensity != 1.6 {
		t.Errorf("step = %+v", step)
	}
	door, _ := a.Tool(63)
	if door.Sensor != SensorMotion {
		t.Errorf("door sensor = %v", door.Sensor)
	}
	if err := a.Validate(); err != nil {
		t.Errorf("loaded activity invalid: %v", err)
	}
}

func TestReadActivityRejectsBadInput(t *testing.T) {
	tests := []struct {
		name string
		json string
	}{
		{"garbage", "{"},
		{"unknown field", `{"name":"x","bogus":1}`},
		{"unknown sensor", `{"name":"x","tools":[{"id":1,"name":"t","sensor":"sonar"}],"steps":[{"name":"s","tool":1,"duration":"1s","intensity":1}]}`},
		{"bad duration", `{"name":"x","tools":[{"id":1,"name":"t","sensor":"motion"}],"steps":[{"name":"s","tool":1,"duration":"soon","intensity":1}]}`},
		{"undeclared tool", `{"name":"x","tools":[{"id":1,"name":"t","sensor":"motion"}],"steps":[{"name":"s","tool":2,"duration":"1s","intensity":1}]}`},
		{"no steps", `{"name":"x","tools":[],"steps":[]}`},
		{"zero intensity", `{"name":"x","tools":[{"id":1,"name":"t","sensor":"motion"}],"steps":[{"name":"s","tool":1,"duration":"1s","intensity":0}]}`},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := ReadActivity(strings.NewReader(tt.json)); err == nil {
				t.Error("accepted")
			}
		})
	}
}

func TestActivityFileRoundTrip(t *testing.T) {
	for _, orig := range library() {
		var buf bytes.Buffer
		if err := writeActivity(&buf, orig); err != nil {
			t.Fatalf("%s: write: %v", orig.Name, err)
		}
		loaded, err := ReadActivity(&buf)
		if err != nil {
			t.Fatalf("%s: read: %v", orig.Name, err)
		}
		if loaded.Name != orig.Name || loaded.StepCount() != orig.StepCount() {
			t.Errorf("%s: shape changed", orig.Name)
		}
		for i, s := range orig.Steps {
			got := loaded.Steps[i]
			if got != s {
				t.Errorf("%s step %d: %+v != %+v", orig.Name, i, got, s)
			}
		}
		for id, tool := range orig.Tools {
			if loaded.Tools[id] != tool {
				t.Errorf("%s tool %d: %+v != %+v", orig.Name, id, loaded.Tools[id], tool)
			}
		}
	}
}

func TestLoadActivityFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "act.json")
	if err := os.WriteFile(path, []byte(sampleActivityJSON), 0o644); err != nil {
		t.Fatal(err)
	}
	a, err := LoadActivityFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if a.Name != "evening-routine" {
		t.Errorf("name = %q", a.Name)
	}
	if _, err := LoadActivityFile(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("missing file accepted")
	}
}

func TestParseSensorKind(t *testing.T) {
	for name, want := range sensorNames {
		got, err := ParseSensorKind(name)
		if err != nil || got != want {
			t.Errorf("ParseSensorKind(%q) = %v, %v", name, got, err)
		}
	}
	if _, err := ParseSensorKind("sonar"); err == nil {
		t.Error("unknown sensor accepted")
	}
}

// writeActivity serializes an activity to the file schema, the inverse
// of ReadActivity.
func writeActivity(w io.Writer, a *Activity) error {
	if err := a.Validate(); err != nil {
		return err
	}
	f := ActivityFile{Name: a.Name}
	// Emit tools in step order for stable, review-friendly output.
	for _, s := range a.Steps {
		t := a.Tools[s.Tool]
		f.Tools = append(f.Tools, ToolFile{
			ID:      uint16(t.ID),
			Name:    t.Name,
			Sensor:  t.Sensor.String(),
			Picture: t.Picture,
		})
		f.Steps = append(f.Steps, StepFile{
			Name:      s.Name,
			Tool:      uint16(s.Tool),
			Duration:  s.TypicalDuration.String(),
			Intensity: s.Intensity,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(f)
}
