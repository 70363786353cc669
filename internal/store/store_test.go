package store

import (
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
	path := filepath.Join(dir, "tanaka-tea.json")

	table := rl.NewQTable(25, 8, 0)
	table.Set(3, 2, 123.5)
	if err := SavePolicy(path, "tanaka", "tea-making", table, 42, 0.07); err != nil {
		t.Fatal(err)
	}
	f, loaded, err := LoadPolicy(path)
	if err != nil {
		t.Fatal(err)
	}
	if f.User != "tanaka" || f.Activity != "tea-making" || f.Episodes != 42 || f.Epsilon != 0.07 {
		t.Errorf("metadata = %+v", f)
	}
	if loaded.Get(3, 2) != 123.5 {
		t.Errorf("Q(3,2) = %v", loaded.Get(3, 2))
	}
	if !slices.Equal(loaded.Values(), table.Values()) {
		t.Error("table changed across round trip")
	}
}

func TestLoadPolicyRejectsCorruption(t *testing.T) {
	dir := t.TempDir()

	missing := filepath.Join(dir, "missing.json")
	if _, _, err := LoadPolicy(missing); err == nil {
		t.Error("missing file accepted")
	}

	garbage := filepath.Join(dir, "garbage.json")
	os.WriteFile(garbage, []byte("{not json"), 0o644)
	if _, _, err := LoadPolicy(garbage); err == nil {
		t.Error("garbage accepted")
	}

	badVersion := filepath.Join(dir, "badversion.json")
	os.WriteFile(badVersion, []byte(`{"version":99,"states":1,"actions":1,"q":[0]}`), 0o644)
	if _, _, err := LoadPolicy(badVersion); err == nil {
		t.Error("wrong version accepted")
	}

	badShape := filepath.Join(dir, "badshape.json")
	os.WriteFile(badShape, []byte(`{"version":1,"states":2,"actions":2,"q":[0]}`), 0o644)
	if _, _, err := LoadPolicy(badShape); err == nil {
		t.Error("mismatched shape accepted")
	}
}

func TestSavePolicyRotatesBackup(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "pol.json")
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
	f, table, err := loadPolicyFile(path + BackupSuffix)
	if err != nil {
		t.Fatalf("backup unreadable: %v", err)
	}
	if f.Episodes != 1 || table.Get(0, 0) != 1 {
		t.Errorf("backup holds %+v, want the previous generation", f)
	}
}

func TestLoadPolicyFallsBackToBackup(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "pol.json")
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
	f, table, err := LoadPolicy(path)
	if err != nil {
		t.Fatalf("no fallback to backup: %v", err)
	}
	if f.Episodes != 1 || table.Get(0, 0) != 1 {
		t.Errorf("fallback loaded %+v, want the backup generation", f)
	}

	// Truncated-to-empty primary (torn copy) behaves the same.
	if err := os.WriteFile(path, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadPolicy(path); err != nil {
		t.Errorf("truncated primary not recovered: %v", err)
	}

	// With the backup gone too, the error must name both failures.
	if err := os.Remove(path + BackupSuffix); err != nil {
		t.Fatal(err)
	}
	_, _, err = LoadPolicy(path)
	if err == nil {
		t.Fatal("corrupted policy with no backup accepted")
	}
	if !strings.Contains(err.Error(), "backup") {
		t.Errorf("error does not mention the backup attempt: %v", err)
	}
}

func TestAtomicWriteLeavesNoTempFiles(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "pol.json")
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
	if len(entries) != 2 || names[0] != "pol.json" || names[1] != "pol.json"+BackupSuffix {
		t.Errorf("directory contains %v, want pol.json and its backup", names)
	}
}

func TestOverwriteIsAtomicReplacement(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "pol.json")
	t1 := rl.NewQTable(1, 1, 1)
	t2 := rl.NewQTable(1, 1, 2)
	if err := SavePolicy(path, "u", "a", t1, 1, 0); err != nil {
		t.Fatal(err)
	}
	if err := SavePolicy(path, "u", "a", t2, 2, 0); err != nil {
		t.Fatal(err)
	}
	f, table, err := LoadPolicy(path)
	if err != nil {
		t.Fatal(err)
	}
	if f.Episodes != 2 || table.Get(0, 0) != 2 {
		t.Errorf("loaded old contents: %+v", f)
	}
}

func TestMultiPolicyRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "multi.json")

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
	f, routines, tables, err := LoadMultiPolicy(path)
	if err != nil {
		t.Fatal(err)
	}
	if f.Activity != dress.Name || f.User != "u" {
		t.Errorf("metadata = %+v", f)
	}
	if f.Policies[0].Episodes != 12 || f.Policies[0].Epsilon != 0.07 || f.Policies[1].Episodes != 3 {
		t.Errorf("training state lost: %+v / %+v", f.Policies[0], f.Policies[1])
	}
	if len(routines) != 2 || !routines[1].Equal(r2) {
		t.Errorf("routines = %v", routines)
	}
	if tables[0].Get(1, 2) != 7 || tables[1].Get(3, 4) != 9 {
		t.Error("tables lost values")
	}
}

func TestMultiPolicyValidation(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "m.json")
	r := adl.TeaMaking().CanonicalRoutine()
	if err := SaveMultiPolicy(path, "u", "a", []adl.Routine{r}, nil, nil); err == nil {
		t.Error("mismatched slice lengths accepted")
	}
	if err := SaveMultiPolicy(path, "u", "a", []adl.Routine{r}, []*rl.QTable{rl.NewQTable(2, 2, 0)}, []TrainState{{}, {}}); err == nil {
		t.Error("mismatched states length accepted")
	}
	os.WriteFile(path, []byte(`{"version":9}`), 0o644)
	if _, _, _, err := LoadMultiPolicy(path); err == nil {
		t.Error("bad version accepted")
	}
	os.WriteFile(path, []byte(`{"version":1,"routines":[],"policies":[]}`), 0o644)
	if _, _, _, err := LoadMultiPolicy(path); err == nil {
		t.Error("empty multi-policy accepted")
	}
}

// loadPolicyFile loads exactly one generation (no backup fallback); the
// backup-rotation tests use it to inspect a specific file.
func loadPolicyFile(path string) (PolicyFile, *rl.QTable, error) {
	var c Checkpoint
	if _, err := readBlobAt(path, func(data []byte) error { return DecodeCheckpoint(&c, data) }); err != nil {
		return PolicyFile{}, nil, err
	}
	return checkpointToPolicy(path, &c)
}
