package fleet

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// TestSoakShardParity is the fleet's signature determinism guarantee:
// the same households soaked at different shard counts must leave
// byte-identical policy files behind — sharding is a throughput decision,
// never a behavioural one.
func TestSoakShardParity(t *testing.T) {
	cfg := SoakConfig{Seed: 42, Households: 16, Sessions: 4}
	var (
		dirs    []string
		results []SoakResult
	)
	for _, shards := range []int{1, 2, 4} {
		dir := t.TempDir()
		cfg.Shards, cfg.Dir = shards, dir
		res, err := Soak(cfg)
		if err != nil {
			t.Fatalf("soak at %d shards: %v", shards, err)
		}
		dirs = append(dirs, dir)
		results = append(results, res)
	}
	for i := 1; i < len(results); i++ {
		if results[i].Digest != results[0].Digest {
			t.Errorf("digest at %d shards = %s, want %s (1 shard)",
				results[i].Shards, results[i].Digest, results[0].Digest)
		}
		if results[i].Stats != results[0].Stats {
			t.Errorf("stats at %d shards = %+v, want %+v", results[i].Shards, results[i].Stats, results[0].Stats)
		}
	}
	// Byte-level check, not just the digest: every per-household file
	// must match exactly.
	for h := 0; h < cfg.Households; h++ {
		name := SoakHousehold(h) + ".ckpt"
		want, err := os.ReadFile(filepath.Join(dirs[0], name))
		if err != nil {
			t.Fatalf("household %s never checkpointed: %v", name, err)
		}
		for i := 1; i < len(dirs); i++ {
			got, err := os.ReadFile(filepath.Join(dirs[i], name))
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != string(want) {
				t.Errorf("%s differs between 1 and %d shards", name, results[i].Shards)
			}
		}
	}
}

// TestSoakExercisesEvictionCycle pins that the soak's mid-life idle gap
// really drives every household through evict → checkpoint → re-admit,
// so the parity gate covers the recovery path too.
func TestSoakExercisesEvictionCycle(t *testing.T) {
	res, err := Soak(SoakConfig{Seed: 1, Households: 8, Sessions: 4, Shards: 2, Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Evictions != 8 {
		t.Errorf("evictions = %d, want one per household", res.Stats.Evictions)
	}
	if res.Stats.Admissions != 16 || res.Stats.Recovered != 8 {
		t.Errorf("admissions/recovered = %d/%d, want 16/8", res.Stats.Admissions, res.Stats.Recovered)
	}
	if res.Stats.RecoveryErrors != 0 || res.Stats.Dropped != 0 {
		t.Errorf("recovery errors/dropped = %+v", res.Stats)
	}
	if res.Events != res.Stats.Events || res.Events != 8*4*8 {
		t.Errorf("events = %d (stats %d), want %d", res.Events, res.Stats.Events, 8*4*8)
	}
}

// TestSoakIsRepeatable pins that two identical runs (including worker
// count changes in the stream generator) give the same digest, and that
// the seed actually matters.
func TestSoakIsRepeatable(t *testing.T) {
	base := SoakConfig{Seed: 9, Households: 6, Sessions: 3, Shards: 2}
	run := func(cfg SoakConfig) string {
		cfg.Dir = t.TempDir()
		res, err := Soak(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.Digest
	}
	a := run(base)
	serial := base
	serial.Workers = 1
	if b := run(serial); b != a {
		t.Errorf("workers=1 digest %s != parallel digest %s", b, a)
	}
	reseeded := base
	reseeded.Seed = 10
	if c := run(reseeded); c == a {
		t.Error("different seed produced the same digest")
	}
}

func TestShardOf(t *testing.T) {
	if ShardOf("anything", 1) != 0 || ShardOf("x", 0) != 0 {
		t.Error("degenerate shard counts must map to 0")
	}
	counts := make([]int, 4)
	for i := 0; i < 1000; i++ {
		s := ShardOf(SoakHousehold(i), 4)
		if s < 0 || s >= 4 {
			t.Fatalf("shard %d out of range", s)
		}
		counts[s]++
	}
	for s, c := range counts {
		if c < 100 {
			t.Errorf("shard %d got %d/1000 households: hash is badly skewed", s, c)
		}
	}
	if ShardOf("tanaka-42", 4) != ShardOf("tanaka-42", 4) {
		t.Error("ShardOf is not stable")
	}
}

func TestSeedFor(t *testing.T) {
	a, b := SeedFor(7, "h1"), SeedFor(7, "h2")
	if a == b {
		t.Error("distinct households share a seed")
	}
	if SeedFor(7, "h1") != a {
		t.Error("SeedFor is not stable")
	}
	if SeedFor(8, "h1") == a {
		t.Error("base seed has no effect")
	}
}

func TestValidHousehold(t *testing.T) {
	for _, ok := range []string{"a", "h00042", "tanaka-42", "A_b.c"} {
		if !ValidHousehold(ok) {
			t.Errorf("%q rejected", ok)
		}
	}
	long := make([]byte, 59)
	for i := range long {
		long[i] = 'a'
	}
	for _, bad := range []string{"", ".dot", "a/b", "a\\b", "a b", "héh", string(long)} {
		if ValidHousehold(bad) {
			t.Errorf("%q accepted", bad)
		}
	}
}

// TestSoakSessionsFlattenToStream pins the contract the cluster soak
// depends on: a household's per-session slices, concatenated, are
// exactly the stream the single-process soak delivers.
func TestSoakSessionsFlattenToStream(t *testing.T) {
	cfg := SoakConfig{Seed: 11, Sessions: 5}
	for _, hh := range []string{SoakHousehold(0), SoakHousehold(3)} {
		var flat []Event
		sessions := SoakSessions(cfg, hh)
		if len(sessions) != 5 {
			t.Fatalf("%s: %d sessions, want 5", hh, len(sessions))
		}
		for _, s := range sessions {
			flat = append(flat, s...)
		}
		want := soakStream(cfg, hh)
		if !reflect.DeepEqual(flat, want) {
			t.Errorf("%s: concatenated sessions differ from soak stream", hh)
		}
	}
	// The mid-life eviction gap lands at the front of session Sessions/2.
	mid := SoakSessions(cfg, SoakHousehold(0))[2]
	if mid[0].Kind != EventAdvance {
		t.Errorf("session 2 starts with %v, want the idle-gap advance", mid[0].Kind)
	}
}
