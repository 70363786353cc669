package store

import (
	"os"
	"path/filepath"
	"sync"
	"testing"

	"coreda/internal/adl"
	"coreda/internal/rl"
)

// saveGeneration writes generation g of a one-routine multi-policy: the
// Q-value at (0,0) encodes the generation so a reader can tell which
// checkpoint it observed.
func saveGeneration(t *testing.T, path string, g int) {
	t.Helper()
	r := adl.TeaMaking().CanonicalRoutine()
	table := rl.NewQTable(4, 4, 0)
	table.Set(0, 0, float64(g))
	err := SaveMultiPolicy(path, "u", "tea-making", []adl.Routine{r},
		[]*rl.QTable{table}, []TrainState{{Episodes: g, Epsilon: 0.1}})
	if err != nil {
		t.Errorf("save generation %d: %v", g, err)
	}
}

// TestMultiPolicyBackupFallback pins the crash-recovery contract of the
// fleet's checkpoint files: after a save has rotated the previous
// generation to .1, a primary torn after the fact (disk fault, partial
// copy) must fall back to that backup.
func TestMultiPolicyBackupFallback(t *testing.T) {
	path := filepath.Join(t.TempDir(), "hh.ckpt")
	saveGeneration(t, path, 1)
	saveGeneration(t, path, 2)

	// Both generations on disk: primary = 2, backup = 1.
	var c Checkpoint
	if err := LoadFile(path, &c); err != nil || c.Policies[0].Q[0] != 2 {
		t.Fatalf("primary load = %v (checkpoint %+v)", err, c)
	}

	// Tear the primary mid-file; the load must recover generation 1.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if err := LoadFile(path, &c); err != nil {
		t.Fatalf("torn primary not recovered from backup: %v", err)
	}
	if c.Policies[0].Q[0] != 1 || c.Policies[0].Episodes != 1 {
		t.Errorf("fallback loaded generation %v, want 1", c.Policies[0].Q[0])
	}

	// With the backup also gone, the error must mention both attempts.
	if err := os.Remove(path + BackupSuffix); err != nil {
		t.Fatal(err)
	}
	if err := LoadFile(path, &c); err == nil {
		t.Error("torn primary with no backup loaded successfully")
	}
}

// TestMultiPolicyConcurrentCheckpointReads hammers one checkpoint path
// with repeated saves while concurrent readers load it: every load must
// observe some complete generation — atomic rename plus the .1 fallback
// guarantee a reader can never see a torn or empty state, even if it
// lands between the backup rotation and the rename of the new primary.
func TestMultiPolicyConcurrentCheckpointReads(t *testing.T) {
	path := filepath.Join(t.TempDir(), "hh.ckpt")
	const generations = 60
	saveGeneration(t, path, 1)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				var c Checkpoint
				if err := LoadFile(path, &c); err != nil {
					t.Errorf("concurrent load: %v", err)
					return
				}
				g := int(c.Policies[0].Q[0])
				if g < 1 || g > generations || c.Policies[0].Episodes != g || len(c.Routines) != 1 {
					t.Errorf("load observed inconsistent generation: q=%d episodes=%d", g, c.Policies[0].Episodes)
					return
				}
			}
		}()
	}
	for g := 2; g <= generations; g++ {
		saveGeneration(t, path, g)
	}
	close(stop)
	wg.Wait()

	// The dust settled: the primary must be the last generation.
	var c Checkpoint
	if err := LoadFile(path, &c); err != nil {
		t.Fatal(err)
	}
	if got := int(c.Policies[0].Q[0]); got != generations {
		t.Errorf("final generation = %d, want %d", got, generations)
	}
}
