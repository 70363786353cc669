package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"coreda/internal/adl"
	"coreda/internal/rl"
)

func TestPolicyRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "tanaka-tea.ckpt")

	table := rl.NewQTable(25, 8, 0)
	table.Set(3, 2, 123.5)
	if err := SavePolicy(path, "tanaka", "tea-making", table, 42, 0.07); err != nil {
		t.Fatal(err)
	}
	var c Checkpoint
	if err := LoadFile(path, &c); err != nil {
		t.Fatal(err)
	}
	if len(c.Routines) != 0 || len(c.Policies) != 1 {
		t.Fatalf("single-policy file decoded to %d routines, %d policies", len(c.Routines), len(c.Policies))
	}
	p := c.Policies[0]
	if c.User != "tanaka" || c.Activity != "tea-making" || p.Episodes != 42 || p.Epsilon != 0.07 {
		t.Errorf("metadata = %+v", c)
	}
	if p.States != 25 || p.Actions != 8 || p.Q[3*8+2] != 123.5 {
		t.Errorf("policy = %dx%d, Q(3,2) = %v", p.States, p.Actions, p.Q[3*8+2])
	}
	if !slices.Equal(p.Q, table.Values()) {
		t.Error("table changed across round trip")
	}
}

func TestLoadPolicyRejectsCorruption(t *testing.T) {
	dir := t.TempDir()
	var c Checkpoint

	missing := filepath.Join(dir, "missing.ckpt")
	if err := LoadFile(missing, &c); !errors.Is(err, ErrNoCheckpoint) {
		t.Errorf("missing file: %v, want ErrNoCheckpoint", err)
	}

	valid, err := AppendCheckpoint(nil, &Checkpoint{Policies: []CheckpointPolicy{{States: 1, Actions: 1, Q: []float64{0}}}})
	if err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string][]byte{
		"garbage":     []byte("{not json"),
		"json":        []byte(`{"version":1,"states":1,"actions":1,"q":[0]}`),
		"bad version": appendCkptCRC(append([]byte("CKPT\x09"), valid[5:len(valid)-4]...)),
		"truncated":   valid[:len(valid)-1],
	} {
		path := filepath.Join(dir, strings.ReplaceAll(name, " ", "-")+".ckpt")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		err := LoadFile(path, &c)
		if err == nil {
			t.Errorf("%s accepted", name)
		} else if errors.Is(err, ErrNoCheckpoint) {
			t.Errorf("%s: %v; a present but unusable file is not ErrNoCheckpoint", name, err)
		}
	}
}

func TestSavePolicyRotatesBackup(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "pol.ckpt")
	t1 := rl.NewQTable(1, 1, 1)
	t2 := rl.NewQTable(1, 1, 2)
	if err := SavePolicy(path, "u", "a", t1, 1, 0.5); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path + BackupSuffix); !os.IsNotExist(err) {
		t.Errorf("first save created a backup: %v", err)
	}
	if err := SavePolicy(path, "u", "a", t2, 2, 0.4); err != nil {
		t.Fatal(err)
	}
	p, err := loadPolicyFile(path + BackupSuffix)
	if err != nil {
		t.Fatalf("backup unreadable: %v", err)
	}
	if p.Episodes != 1 || p.Q[0] != 1 {
		t.Errorf("backup holds %+v, want the previous generation", p)
	}
}

func TestLoadPolicyFallsBackToBackup(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "pol.ckpt")
	t1 := rl.NewQTable(1, 1, 1)
	t2 := rl.NewQTable(1, 1, 2)
	if err := SavePolicy(path, "u", "a", t1, 1, 0.5); err != nil {
		t.Fatal(err)
	}
	if err := SavePolicy(path, "u", "a", t2, 2, 0.4); err != nil {
		t.Fatal(err)
	}

	// Corrupt the primary after the fact; the rotated backup must serve.
	if err := os.WriteFile(path, []byte(`{"version":1,"states":`), 0o644); err != nil {
		t.Fatal(err)
	}
	var c Checkpoint
	if err := LoadFile(path, &c); err != nil {
		t.Fatalf("no fallback to backup: %v", err)
	}
	if p := c.Policies[0]; p.Episodes != 1 || p.Q[0] != 1 {
		t.Errorf("fallback loaded %+v, want the backup generation", p)
	}

	// Truncated-to-empty primary (torn copy) behaves the same.
	if err := os.WriteFile(path, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := LoadFile(path, &c); err != nil {
		t.Errorf("truncated primary not recovered: %v", err)
	}

	// With the backup gone too, the error must name both failures.
	if err := os.Remove(path + BackupSuffix); err != nil {
		t.Fatal(err)
	}
	err := LoadFile(path, &c)
	if err == nil {
		t.Fatal("corrupted policy with no backup accepted")
	}
	if !strings.Contains(err.Error(), "backup") {
		t.Errorf("error does not mention the backup attempt: %v", err)
	}
}

func TestAtomicWriteLeavesNoTempFiles(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "pol.ckpt")
	table := rl.NewQTable(2, 2, 0)
	for i := 0; i < 5; i++ {
		if err := SavePolicy(path, "u", "a", table, i, 0); err != nil {
			t.Fatal(err)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, len(entries))
	for i, e := range entries {
		names[i] = e.Name()
	}
	// Repeated saves leave exactly the file and its rotated backup: no
	// temp droppings.
	if len(entries) != 2 || names[0] != "pol.ckpt" || names[1] != "pol.ckpt"+BackupSuffix {
		t.Errorf("directory contains %v, want pol.ckpt and its backup", names)
	}
}

func TestOverwriteIsAtomicReplacement(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "pol.ckpt")
	t1 := rl.NewQTable(1, 1, 1)
	t2 := rl.NewQTable(1, 1, 2)
	if err := SavePolicy(path, "u", "a", t1, 1, 0); err != nil {
		t.Fatal(err)
	}
	if err := SavePolicy(path, "u", "a", t2, 2, 0); err != nil {
		t.Fatal(err)
	}
	var c Checkpoint
	if err := LoadFile(path, &c); err != nil {
		t.Fatal(err)
	}
	if p := c.Policies[0]; p.Episodes != 2 || p.Q[0] != 2 {
		t.Errorf("loaded old contents: %+v", p)
	}
}

func TestMultiPolicyRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "multi.ckpt")

	dress := adl.Dressing()
	r1 := dress.CanonicalRoutine()
	r2 := adl.Routine{r1[2], r1[0], r1[1], r1[3]}
	t1 := rl.NewQTable(25, 8, 0)
	t1.Set(1, 2, 7)
	t2 := rl.NewQTable(25, 8, 0)
	t2.Set(3, 4, 9)

	if err := SaveMultiPolicy(path, "u", dress.Name, []adl.Routine{r1, r2}, []*rl.QTable{t1, t2}, []TrainState{{Episodes: 12, Epsilon: 0.07}, {Episodes: 3, Epsilon: 0.21}}); err != nil {
		t.Fatal(err)
	}
	var c Checkpoint
	if err := LoadFile(path, &c); err != nil {
		t.Fatal(err)
	}
	if c.Activity != dress.Name || c.User != "u" {
		t.Errorf("metadata = %+v", c)
	}
	if c.Policies[0].Episodes != 12 || c.Policies[0].Epsilon != 0.07 || c.Policies[1].Episodes != 3 {
		t.Errorf("training state lost: %+v / %+v", c.Policies[0], c.Policies[1])
	}
	if routines := DecodeRoutines(c.Routines); len(routines) != 2 || !routines[0].Equal(r1) || !routines[1].Equal(r2) {
		t.Errorf("routines = %v", routines)
	}
	if c.Policies[0].Q[1*8+2] != 7 || c.Policies[1].Q[3*8+4] != 9 {
		t.Error("tables lost values")
	}
}

func TestMultiPolicyValidation(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "m.ckpt")
	r := adl.TeaMaking().CanonicalRoutine()
	if err := SaveMultiPolicy(path, "u", "a", []adl.Routine{r}, nil, nil); err == nil {
		t.Error("mismatched slice lengths accepted")
	}
	if err := SaveMultiPolicy(path, "u", "a", []adl.Routine{r}, []*rl.QTable{rl.NewQTable(2, 2, 0)}, []TrainState{{}, {}}); err == nil {
		t.Error("mismatched states length accepted")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("rejected saves left a file behind: %v", err)
	}
}

// loadPolicyFile loads exactly one generation (no backup fallback) of a
// single-policy file; the backup-rotation tests use it to inspect a
// specific file.
func loadPolicyFile(path string) (CheckpointPolicy, error) {
	var c Checkpoint
	if _, err := readBlobAt(path, func(data []byte) error { return DecodeCheckpoint(&c, data) }); err != nil {
		return CheckpointPolicy{}, err
	}
	if len(c.Policies) != 1 {
		return CheckpointPolicy{}, fmt.Errorf("%s has %d policies, want 1", path, len(c.Policies))
	}
	return c.Policies[0], nil
}
