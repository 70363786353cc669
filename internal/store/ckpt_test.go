package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// testCheckpoint builds a representative multi-policy checkpoint:
// mixed-magnitude Q values (including the zeros that dominate a young
// table), non-trivial routines, and annealing state.
func testCheckpoint() *Checkpoint {
	q1 := make([]float64, 3*4)
	for i := range q1 {
		q1[i] = float64(i) * 0.125
	}
	q2 := make([]float64, 2*2)
	q2[1] = -7.5
	q2[3] = math.Pi
	return &Checkpoint{
		User:     "Mr. Tanaka",
		Activity: "tea-making",
		Routines: EncodedRoutines{{1, 2, 3, 4}, {4, 3}},
		Policies: []CheckpointPolicy{
			{States: 3, Actions: 4, Episodes: 120, Epsilon: 0.05, Q: q1},
			{States: 2, Actions: 2, Episodes: 7, Epsilon: 0.9, Q: q2},
		},
	}
}

// checkpointsEqual compares semantically, with floats by bit pattern so
// NaN-carrying tables (the fuzzer produces them) still compare.
func checkpointsEqual(a, b *Checkpoint) bool {
	if a.User != b.User || a.Activity != b.Activity ||
		len(a.Routines) != len(b.Routines) || len(a.Policies) != len(b.Policies) {
		return false
	}
	for i := range a.Routines {
		if len(a.Routines[i]) != len(b.Routines[i]) {
			return false
		}
		for j := range a.Routines[i] {
			if a.Routines[i][j] != b.Routines[i][j] {
				return false
			}
		}
	}
	for i := range a.Policies {
		p, q := &a.Policies[i], &b.Policies[i]
		if p.States != q.States || p.Actions != q.Actions || p.Episodes != q.Episodes ||
			math.Float64bits(p.Epsilon) != math.Float64bits(q.Epsilon) || len(p.Q) != len(q.Q) {
			return false
		}
		for j := range p.Q {
			if math.Float64bits(p.Q[j]) != math.Float64bits(q.Q[j]) {
				return false
			}
		}
	}
	return true
}

func TestCheckpointRoundTrip(t *testing.T) {
	t.Parallel()
	cases := map[string]*Checkpoint{
		"multi": testCheckpoint(),
		"single": {
			User:     "u",
			Activity: "a",
			Policies: []CheckpointPolicy{{States: 1, Actions: 1, Epsilon: 0.3, Q: []float64{0}}},
		},
		"empty-names": {
			Policies: []CheckpointPolicy{{States: 2, Actions: 1, Episodes: 1, Q: []float64{1, 2}}},
		},
	}
	for name, c := range cases {
		c := c
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			data, err := AppendCheckpoint(nil, c)
			if err != nil {
				t.Fatal(err)
			}
			var got Checkpoint
			if err := DecodeCheckpoint(&got, data); err != nil {
				t.Fatal(err)
			}
			if !checkpointsEqual(c, &got) {
				t.Fatalf("round trip mismatch:\n in %+v\nout %+v", c, &got)
			}
			// Decoding again into the same Checkpoint must reuse its slices
			// and still agree.
			if err := DecodeCheckpoint(&got, data); err != nil {
				t.Fatal(err)
			}
			if !checkpointsEqual(c, &got) {
				t.Fatalf("re-decode mismatch: %+v", &got)
			}
		})
	}
}

// mutate returns a copy of data with one edit applied.
func mutate(data []byte, edit func([]byte) []byte) []byte {
	cp := append([]byte(nil), data...)
	return edit(cp)
}

func TestCheckpointDecodeRejects(t *testing.T) {
	t.Parallel()
	valid, err := AppendCheckpoint(nil, testCheckpoint())
	if err != nil {
		t.Fatal(err)
	}
	// reframe wraps a hostile body in a valid magic/version/CRC frame, so
	// the case exercises field validation rather than the checksum.
	reframe := func(body ...byte) []byte {
		out := append([]byte{}, ckptMagic...)
		out = append(out, ckptVersion)
		out = append(out, body...)
		return appendCkptCRC(out)
	}
	cases := map[string][]byte{
		"empty":       nil,
		"short":       []byte("CKP"),
		"bad magic":   mutate(valid, func(b []byte) []byte { b[0] = 'X'; return b }),
		"bad version": mutate(valid, func(b []byte) []byte { b[4] = 9; return appendCkptCRC(b[:len(b)-4]) }),
		"bad crc":     mutate(valid, func(b []byte) []byte { b[len(b)-1] ^= 0xFF; return b }),
		"flipped bit": mutate(valid, func(b []byte) []byte { b[len(b)/2] ^= 0x10; return b }),
		"truncated":   valid[:len(valid)-5],
		"trailing":    mutate(valid, func(b []byte) []byte { return appendCkptCRC(append(b[:len(b)-4], 0)) }),
		// Count bombs: huge counts with no bytes behind them. Each must be
		// rejected by the remaining-bytes check, not by attempting the
		// allocation.
		"name bomb":    reframe(0xFF, 0xFF, 0xFF, 0x7F),
		"routine bomb": reframe(0, 0, 0xFF, 0xFF, 0x7F),
		"step bomb":    reframe(0, 0, 1, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01),
		"policy bomb":  reframe(0, 0, 0, 0xFF, 0xFF, 0x7F),
		"dim bomb":     reframe(0, 0, 0, 1, 0xFF, 0xFF, 0xFF, 0x7F, 0xFF, 0xFF, 0xFF, 0x7F, 0, 0),
		"no policies":  reframe(0, 0, 0, 0),
		// 1 routine but 2 policies.
		"routine/policy mismatch": reframe(0, 0, 1, 1, 1, 2, 1, 1, 0, 0, 0, 1, 1, 0, 0, 0),
		// Step ID beyond uint16.
		"step overflow": reframe(0, 0, 1, 1, 0xFF, 0xFF, 0x7F, 1, 1, 1, 0, 0, 0),
	}
	for name, data := range cases {
		data := data
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			var c Checkpoint
			if err := DecodeCheckpoint(&c, data); err == nil {
				t.Fatalf("decode accepted %q blob", name)
			}
		})
	}
}

// appendCkptCRC frames body (which must already start with magic and
// version) with its trailing checksum, for building hostile test blobs.
func appendCkptCRC(body []byte) []byte {
	return binary.LittleEndian.AppendUint32(body, crc32.ChecksumIEEE(body))
}

func TestCheckpointEncodeRejects(t *testing.T) {
	t.Parallel()
	long := strings.Repeat("x", maxCkptName+1)
	cases := map[string]*Checkpoint{
		"no policies":      {User: "u"},
		"long user":        {User: long, Policies: []CheckpointPolicy{{States: 1, Actions: 1, Q: []float64{0}}}},
		"q shape mismatch": {Policies: []CheckpointPolicy{{States: 2, Actions: 2, Q: []float64{0}}}},
		"zero dim":         {Policies: []CheckpointPolicy{{States: 0, Actions: 1, Q: nil}}},
		"negative episodes": {Policies: []CheckpointPolicy{
			{States: 1, Actions: 1, Episodes: -1, Q: []float64{0}}}},
		"routines without parallel policies": {
			Routines: EncodedRoutines{{1}, {2}},
			Policies: []CheckpointPolicy{{States: 1, Actions: 1, Q: []float64{0}}},
		},
	}
	for name, c := range cases {
		c := c
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			buf := []byte("sentinel")
			out, err := AppendCheckpoint(buf, c)
			if err == nil {
				t.Fatal("encode accepted malformed checkpoint")
			}
			if string(out) != "sentinel" {
				t.Fatal("failed encode did not return dst unchanged")
			}
		})
	}
}

// TestNewDirBackendRefusesPreCKPT pins the stated decision that
// pre-CKPT checkpoint directories are unsupported: a <name>.json file or
// its .json.1 backup makes the backend refuse the directory, naming the
// file, instead of serving that household fresh. A household whose own
// name ends in ".json" is an ordinary current-era blob.
func TestNewDirBackendRefusesPreCKPT(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct {
		file   string
		refuse bool
	}{
		{"x.json", true},
		{"x.json" + BackupSuffix, true},
		{"h.json" + ckptExt, false},
		{"h.json" + ckptExt + BackupSuffix, false},
	} {
		tc := tc
		t.Run(tc.file, func(t *testing.T) {
			t.Parallel()
			dir := t.TempDir()
			writeFiles(t, dir, map[string][]byte{tc.file: []byte("{}")})
			b, err := NewDirBackend(dir)
			if !tc.refuse {
				if err != nil {
					t.Fatalf("NewDirBackend refused %s: %v", tc.file, err)
				}
				var names []string
				if err := b.Enumerate(func(n string) { names = append(names, n) }); err != nil {
					t.Fatal(err)
				}
				if len(names) != 1 || names[0] != "h.json" {
					t.Fatalf("Enumerate = %v, want [h.json]", names)
				}
				return
			}
			if err == nil {
				t.Fatalf("NewDirBackend accepted a directory holding %s", tc.file)
			}
			if !strings.Contains(err.Error(), filepath.Join(dir, tc.file)) {
				t.Fatalf("error %q does not name %s", err, tc.file)
			}
			if data, rerr := os.ReadFile(filepath.Join(dir, tc.file)); rerr != nil || string(data) != "{}" {
				t.Fatalf("refused file was disturbed: %q, %v", data, rerr)
			}
		})
	}
}

// TestBackendContract runs the shared Backend semantics over both
// implementations: Put/Get round-trip, generation fallback on check
// failure, ErrNoCheckpoint only when nothing exists, Enumerate dedupe,
// Delete removing every generation.
func TestBackendContract(t *testing.T) {
	t.Parallel()
	backends := map[string]func(t *testing.T) Backend{
		"dir": func(t *testing.T) Backend {
			b, err := NewDirBackend(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			return b
		},
		"mem": func(t *testing.T) Backend { return NewMemBackend() },
	}
	for name, mk := range backends {
		mk := mk
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			b := mk(t)

			if _, err := b.Get("absent", nil); !errors.Is(err, ErrNoCheckpoint) {
				t.Fatalf("Get(absent) = %v, want ErrNoCheckpoint", err)
			}

			v1, v2 := []byte("generation-1"), []byte("generation-2")
			if err := b.Put("h", v1, false); err != nil {
				t.Fatal(err)
			}
			got, err := b.Get("h", nil)
			if err != nil || string(got) != string(v1) {
				t.Fatalf("Get after first Put = %q, %v", got, err)
			}

			if err := b.Put("h", v2, true); err != nil {
				t.Fatal(err)
			}
			got, err = b.Get("h", nil)
			if err != nil || string(got) != string(v2) {
				t.Fatalf("Get after second Put = %q, %v", got, err)
			}

			// Check failure on the current generation falls back to the
			// previous one: decode-as-validation is what drives rotation.
			got, err = b.Get("h", func(data []byte) error {
				if string(data) == string(v2) {
					return fmt.Errorf("pretend torn")
				}
				return nil
			})
			if err != nil || string(got) != string(v1) {
				t.Fatalf("fallback Get = %q, %v; want previous generation", got, err)
			}

			// Both generations failing is an error, NOT ErrNoCheckpoint: a
			// checkpoint existed and was lost.
			if _, err := b.Get("h", func([]byte) error { return fmt.Errorf("reject all") }); err == nil || errors.Is(err, ErrNoCheckpoint) {
				t.Fatalf("all-generations-bad Get = %v, want non-ErrNoCheckpoint error", err)
			}

			// Streaming writes publish only on Commit.
			w, err := b.PutStream("s", false)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := w.Write([]byte("str")); err != nil {
				t.Fatal(err)
			}
			if _, err := w.Write([]byte("eamed")); err != nil {
				t.Fatal(err)
			}
			if err := w.Commit(); err != nil {
				t.Fatal(err)
			}
			if err := w.Commit(); err == nil {
				t.Fatal("double Commit succeeded")
			}
			got, err = b.Get("s", nil)
			if err != nil || string(got) != "streamed" {
				t.Fatalf("streamed Get = %q, %v", got, err)
			}

			// An aborted stream leaves no trace.
			w, err = b.PutStream("aborted", false)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := w.Write([]byte("partial")); err != nil {
				t.Fatal(err)
			}
			w.Abort()
			if _, err := b.Get("aborted", nil); !errors.Is(err, ErrNoCheckpoint) {
				t.Fatalf("Get after Abort = %v, want ErrNoCheckpoint", err)
			}

			var names []string
			if err := b.Enumerate(func(n string) { names = append(names, n) }); err != nil {
				t.Fatal(err)
			}
			if len(names) != 2 {
				t.Fatalf("Enumerate = %v, want exactly {h, s}", names)
			}
			seen := map[string]bool{}
			for _, n := range names {
				seen[n] = true
			}
			if !seen["h"] || !seen["s"] {
				t.Fatalf("Enumerate = %v, want h and s", names)
			}

			if err := b.Delete("h"); err != nil {
				t.Fatal(err)
			}
			if _, err := b.Get("h", nil); !errors.Is(err, ErrNoCheckpoint) {
				t.Fatalf("Get after Delete = %v, want ErrNoCheckpoint (all generations gone)", err)
			}
		})
	}
}

// TestDirBackendPutChunked proves large blobs survive the chunked write
// path intact.
func TestDirBackendPutChunked(t *testing.T) {
	t.Parallel()
	b, err := NewDirBackend(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	big := make([]byte, PutChunk*3+17)
	for i := range big {
		big[i] = byte(i * 31)
	}
	if err := b.Put("big", big, false); err != nil {
		t.Fatal(err)
	}
	got, err := b.Get("big", nil)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(big) {
		t.Fatal("chunked write corrupted the blob")
	}
}

// TestKillMidCheckpointRecovery reconstructs every on-disk state a
// SIGKILL can leave a checkpoint wave in — a stray temp file, a rotated
// backup with the rename never issued, a torn primary — and proves Get
// recovers the last good generation byte-for-byte under the binary
// format.
func TestKillMidCheckpointRecovery(t *testing.T) {
	t.Parallel()
	good, err := AppendCheckpoint(nil, testCheckpoint())
	if err != nil {
		t.Fatal(err)
	}
	older := testCheckpoint()
	older.Policies[0].Episodes = 60
	goodOld, err := AppendCheckpoint(nil, older)
	if err != nil {
		t.Fatal(err)
	}
	check := func(data []byte) error {
		var c Checkpoint
		return DecodeCheckpoint(&c, data)
	}

	t.Run("killed before rotate", func(t *testing.T) {
		t.Parallel()
		dir := t.TempDir()
		writeFiles(t, dir, map[string][]byte{
			"h.ckpt":     good,
			"h.ckpt.tmp": good[:len(good)/2], // partial next generation
		})
		b, err := NewDirBackend(dir)
		if err != nil {
			t.Fatal(err)
		}
		got, err := b.Get("h", check)
		if err != nil || string(got) != string(good) {
			t.Fatalf("Get = %v; want the committed generation byte-for-byte", err)
		}
	})

	t.Run("killed between rotate and rename", func(t *testing.T) {
		t.Parallel()
		dir := t.TempDir()
		writeFiles(t, dir, map[string][]byte{
			"h.ckpt.1":   good, // rotation happened...
			"h.ckpt.tmp": good, // ...but the rename never did
		})
		b, err := NewDirBackend(dir)
		if err != nil {
			t.Fatal(err)
		}
		got, err := b.Get("h", check)
		if err != nil || string(got) != string(good) {
			t.Fatalf("Get = %v; want the rotated backup byte-for-byte", err)
		}
	})

	t.Run("torn primary falls back", func(t *testing.T) {
		t.Parallel()
		dir := t.TempDir()
		torn := append([]byte{}, good...)
		torn[len(torn)/2] ^= 0x40 // CRC catches the flip
		writeFiles(t, dir, map[string][]byte{
			"h.ckpt":   torn,
			"h.ckpt.1": goodOld,
		})
		b, err := NewDirBackend(dir)
		if err != nil {
			t.Fatal(err)
		}
		got, err := b.Get("h", check)
		if err != nil || string(got) != string(goodOld) {
			t.Fatalf("Get = %v; want the previous generation byte-for-byte", err)
		}
	})

	t.Run("next put clears the wreckage", func(t *testing.T) {
		t.Parallel()
		dir := t.TempDir()
		writeFiles(t, dir, map[string][]byte{
			"h.ckpt":     good,
			"h.ckpt.tmp": good[:3],
		})
		b, err := NewDirBackend(dir)
		if err != nil {
			t.Fatal(err)
		}
		if err := b.Put("h", goodOld, false); err != nil {
			t.Fatal(err)
		}
		got, err := b.Get("h", check)
		if err != nil || string(got) != string(goodOld) {
			t.Fatalf("Get = %v; want the fresh generation", err)
		}
		if data, err := os.ReadFile(filepath.Join(dir, "h.ckpt"+BackupSuffix)); err != nil || string(data) != string(good) {
			t.Fatalf("previous generation not rotated intact: %v", err)
		}
		if _, err := os.Stat(filepath.Join(dir, "h.ckpt.tmp")); !os.IsNotExist(err) {
			t.Fatal("stray temp file survived the next Put")
		}
	})
}

func writeFiles(t *testing.T, dir string, files map[string][]byte) {
	t.Helper()
	for name, data := range files {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestLoadCheckpoint pins LoadCheckpoint's two outcomes over a backend:
// a stored blob decodes into c, and a name with no generation at all is
// ErrNoCheckpoint.
func TestLoadCheckpoint(t *testing.T) {
	t.Parallel()
	b := NewMemBackend()
	want := testCheckpoint()
	data, err := AppendCheckpoint(nil, want)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Put("h", data, false); err != nil {
		t.Fatal(err)
	}
	var got Checkpoint
	if err := LoadCheckpoint(b, "h", &got); err != nil || !checkpointsEqual(want, &got) {
		t.Fatalf("LoadCheckpoint = %+v, %v", &got, err)
	}
	if err := LoadCheckpoint(b, "absent", &got); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("LoadCheckpoint(absent) = %v, want ErrNoCheckpoint", err)
	}
}
