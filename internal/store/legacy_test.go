package store

import (
	"crypto/sha256"
	"encoding/hex"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// legacyFixtures are checkpoints written by the JSON encoder the store
// shipped before every writer emitted CKPT: legacy-multi.json is the
// compact multi-policy blob a one-household fleet soak (seed 3, 4
// sessions) left behind, legacy-single.json the indented single-policy
// file of a 12-episode tea-making policy. sum is the canonical
// checkpoint hash (SHA-256 of the CKPT re-encoding — the formula behind
// fleet.CheckpointSum) captured from the writer that produced them.
var legacyFixtures = []struct {
	file, name string
	sum        string
}{
	{"legacy-multi.json", "h00000", "ef6546c3bf31f78fb5453446813fe9438e1f400105df35406861235a9666b012"},
	{"legacy-single.json", "tanaka", "24119aa6e7949fe6f94bfa0ac898b064f20cdea7e8579b311421b8823ca16821"},
}

func canonicalSum(t *testing.T, c *Checkpoint) string {
	t.Helper()
	canon, err := AppendCheckpoint(nil, c)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(canon)
	return hex.EncodeToString(sum[:])
}

// TestLegacyJSONFixtures pins the legacy read path: both JSON fixtures
// load through the path API (LoadPolicy) and the local-dir backend to
// their pinned canonical sums, and the backend's first Put migrates the
// name — the .json is gone, a .ckpt holds the same content.
func TestLegacyJSONFixtures(t *testing.T) {
	t.Parallel()
	for _, fx := range legacyFixtures {
		fx := fx
		t.Run(fx.file, func(t *testing.T) {
			t.Parallel()
			path := filepath.Join("testdata", fx.file)
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if legacyJSON, ok := SniffFormat(data); !ok || !legacyJSON {
				t.Fatalf("fixture is not sniffed as legacy JSON")
			}

			pf, table, err := LoadPolicy(path)
			if err != nil {
				t.Fatal(err)
			}
			var want Checkpoint
			if err := DecodeCheckpoint(&want, data); err != nil {
				t.Fatal(err)
			}
			if got := canonicalSum(t, &want); got != fx.sum {
				t.Fatalf("canonical sum %s, want %s", got, fx.sum)
			}
			p := want.Policies[0]
			if pf.Episodes != p.Episodes || pf.Epsilon != p.Epsilon || table.NumStates() != p.States || table.NumActions() != p.Actions {
				t.Fatalf("LoadPolicy view %+v disagrees with the decoded checkpoint", pf)
			}
			for i, v := range table.Values() {
				if math.Float64bits(v) != math.Float64bits(p.Q[i]) {
					t.Fatalf("LoadPolicy Q[%d] = %v, want %v", i, v, p.Q[i])
				}
			}

			dir := t.TempDir()
			legacy := filepath.Join(dir, fx.name+legacyExt)
			if err := os.WriteFile(legacy, data, 0o644); err != nil {
				t.Fatal(err)
			}
			b, err := NewDirBackend(dir)
			if err != nil {
				t.Fatal(err)
			}
			var c Checkpoint
			if err := LoadCheckpoint(b, fx.name, &c); err != nil {
				t.Fatal(err)
			}
			if got := canonicalSum(t, &c); got != fx.sum {
				t.Fatalf("backend load: canonical sum %s, want %s", got, fx.sum)
			}

			canon, err := AppendCheckpoint(nil, &c)
			if err != nil {
				t.Fatal(err)
			}
			if err := b.Put(fx.name, canon, false); err != nil {
				t.Fatal(err)
			}
			if _, err := os.Stat(legacy); !os.IsNotExist(err) {
				t.Fatalf("legacy %s survived the first Put (stat err %v)", legacy, err)
			}
			if _, err := os.Stat(filepath.Join(dir, fx.name+ckptExt)); err != nil {
				t.Fatalf("no .ckpt after the first Put: %v", err)
			}
			var after Checkpoint
			if err := LoadCheckpoint(b, fx.name, &after); err != nil {
				t.Fatal(err)
			}
			if got := canonicalSum(t, &after); got != fx.sum {
				t.Fatalf("after migration: canonical sum %s, want %s", got, fx.sum)
			}
		})
	}
}
