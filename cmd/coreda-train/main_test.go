package main

import (
	"os"
	"path/filepath"
	"testing"

	"coreda"
	"coreda/internal/adl"
)

func TestParseRoutine(t *testing.T) {
	a := coreda.TeaMaking()
	tests := []struct {
		spec    string
		want    coreda.Routine
		wantErr bool
	}{
		{"", a.CanonicalRoutine(), false},
		{"1,2,3,4", a.CanonicalRoutine(), false},
		{"2,1,3,4", coreda.Routine{adl.StepOf(adl.ToolPot), adl.StepOf(adl.ToolTeaBox), adl.StepOf(adl.ToolKettle), adl.StepOf(adl.ToolTeaCup)}, false},
		{" 2 , 1 , 3 , 4 ", nil, false}, // whitespace tolerated
		{"1,2,3", nil, true},            // wrong arity
		{"1,2,3,9", nil, true},          // out of range
		{"1,2,3,x", nil, true},          // not a number
		{"1,1,3,4", nil, true},          // repeats -> invalid permutation
	}
	for _, tt := range tests {
		got, err := parseRoutine(a, tt.spec)
		if (err != nil) != tt.wantErr {
			t.Errorf("parseRoutine(%q) error = %v, wantErr %v", tt.spec, err, tt.wantErr)
			continue
		}
		if err == nil && tt.want != nil && !got.Equal(tt.want) {
			t.Errorf("parseRoutine(%q) = %v, want %v", tt.spec, got, tt.want)
		}
	}
}

func TestFindActivity(t *testing.T) {
	if _, err := findActivity("tea-making"); err != nil {
		t.Error(err)
	}
	if _, err := findActivity("juggling"); err == nil {
		t.Error("unknown activity accepted")
	}
}

func TestTrainAndEvalEndToEnd(t *testing.T) {
	// Training into a fleet checkpoint directory creates it.
	policy := filepath.Join(t.TempDir(), "fleet-policies", "home.ckpt")
	if err := run("tea-making", "", "test-user", 120, "2,1,3,4", 1, policy, "", ""); err != nil {
		t.Fatalf("train: %v", err)
	}
	if _, err := os.Stat(policy); err != nil {
		t.Fatalf("policy not written: %v", err)
	}
	if err := run("tea-making", "", "test-user", 0, "2,1,3,4", 1, "", policy, ""); err != nil {
		t.Fatalf("eval: %v", err)
	}
}

func TestLoadRecordedEpisodes(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "trace.jsonl")
	content := `{"t":0,"kind":"session-start","session":1,"activity":"tea-making"}
{"t":1,"kind":"step","session":1,"step":21}
{"t":2,"kind":"step","session":1,"step":22}
{"t":3,"kind":"step","session":1,"step":23}
{"t":4,"kind":"step","session":1,"step":24}
{"t":5,"kind":"session-end","session":1}
{"t":6,"kind":"session-start","session":2,"activity":"tea-making"}
{"t":7,"kind":"step","session":2,"step":21}
{"t":8,"kind":"session-end","session":2}
`
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	eps, err := loadRecordedEpisodes(path, coreda.TeaMaking())
	if err != nil {
		t.Fatal(err)
	}
	// The partial second session must be dropped.
	if len(eps) != 1 || len(eps[0]) != 4 {
		t.Errorf("episodes = %v", eps)
	}

	if _, err := loadRecordedEpisodes(path, coreda.ToothBrushing()); err == nil {
		t.Error("no episodes for tooth-brushing should error")
	}
	if _, err := loadRecordedEpisodes(filepath.Join(dir, "missing"), coreda.TeaMaking()); err == nil {
		t.Error("missing file accepted")
	}
}

func TestTrainFromTraceEndToEnd(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "trace.jsonl")
	content := `{"t":0,"kind":"session-start","session":1,"activity":"tea-making"}
{"t":1,"kind":"step","session":1,"step":22}
{"t":2,"kind":"step","session":1,"step":21}
{"t":3,"kind":"step","session":1,"step":23}
{"t":4,"kind":"step","session":1,"step":24}
{"t":5,"kind":"session-end","session":1}
`
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	policy := filepath.Join(dir, "policy.ckpt")
	if err := run("tea-making", "", "u", 120, "2,1,3,4", 1, policy, "", path); err != nil {
		t.Fatalf("train from trace: %v", err)
	}
	if _, err := os.Stat(policy); err != nil {
		t.Fatal("policy not written")
	}
}

func TestResolveActivityFromFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "act.json")
	content := `{"name":"pill-time","tools":[{"id":71,"name":"pill box","sensor":"accelerometer"}],"steps":[{"name":"Open the pill box","tool":71,"duration":"2s","intensity":1.5}]}`
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	a, err := resolveActivity("ignored", path)
	if err != nil {
		t.Fatal(err)
	}
	if a.Name != "pill-time" {
		t.Errorf("name = %q", a.Name)
	}
	if _, err := resolveActivity("tea-making", ""); err != nil {
		t.Errorf("builtin fallback: %v", err)
	}
}
