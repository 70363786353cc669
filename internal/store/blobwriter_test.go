package store

import (
	"errors"
	"testing"

	"coreda/internal/rl"
)

// TestBlobWriterAbortCommitEdges pins the BlobWriter lifecycle corners
// shared by both backends: an abort must not disturb existing
// generations, Commit after Abort must fail, Abort after Commit must
// not retract the published blob, and double Abort is a no-op.
func TestBlobWriterAbortCommitEdges(t *testing.T) {
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
			if err := b.Put("h", []byte("gen-1"), false); err != nil {
				t.Fatal(err)
			}
			if err := b.Put("h", []byte("gen-2"), false); err != nil {
				t.Fatal(err)
			}

			// Abort mid-stream: both existing generations survive.
			w, err := b.PutStream("h", false)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := w.Write([]byte("doomed")); err != nil {
				t.Fatal(err)
			}
			w.Abort()
			w.Abort() // idempotent
			if err := w.Commit(); err == nil {
				t.Fatal("Commit after Abort succeeded")
			}
			got, err := b.Get("h", nil)
			if err != nil || string(got) != "gen-2" {
				t.Fatalf("Get after aborted stream = %q, %v; want gen-2", got, err)
			}
			got, err = b.Get("h", func(data []byte) error {
				if string(data) == "gen-2" {
					return errors.New("pretend torn")
				}
				return nil
			})
			if err != nil || string(got) != "gen-1" {
				t.Fatalf("backup after aborted stream = %q, %v; want gen-1", got, err)
			}

			// Abort after Commit must not retract the published blob.
			w, err = b.PutStream("h", false)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := w.Write([]byte("gen-3")); err != nil {
				t.Fatal(err)
			}
			if err := w.Commit(); err != nil {
				t.Fatal(err)
			}
			w.Abort()
			got, err = b.Get("h", nil)
			if err != nil || string(got) != "gen-3" {
				t.Fatalf("Get after Commit+Abort = %q, %v; want gen-3", got, err)
			}
		})
	}
}

// TestMemBackendOverlappingStreams pins MemBackend-only semantics the
// dir backend cannot offer (its writers share one temp path per name):
// two in-flight streams for the same name are independent, the later
// Commit wins, and the earlier one rotates into the backup generation.
func TestMemBackendOverlappingStreams(t *testing.T) {
	t.Parallel()
	b := NewMemBackend()
	w1, err := b.PutStream("h", false)
	if err != nil {
		t.Fatal(err)
	}
	w2, err := b.PutStream("h", false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w1.Write([]byte("first")); err != nil {
		t.Fatal(err)
	}
	if _, err := w2.Write([]byte("second")); err != nil {
		t.Fatal(err)
	}
	if err := w1.Commit(); err != nil {
		t.Fatal(err)
	}
	// Nothing is visible from w2 until its own Commit.
	got, err := b.Get("h", nil)
	if err != nil || string(got) != "first" {
		t.Fatalf("Get between commits = %q, %v; want first", got, err)
	}
	if err := w2.Commit(); err != nil {
		t.Fatal(err)
	}
	got, err = b.Get("h", nil)
	if err != nil || string(got) != "second" {
		t.Fatalf("Get after both commits = %q, %v; want second", got, err)
	}
	got, err = b.Get("h", func(data []byte) error {
		if string(data) == "second" {
			return errors.New("pretend torn")
		}
		return nil
	})
	if err != nil || string(got) != "first" {
		t.Fatalf("backup generation = %q, %v; want first", got, err)
	}

	// A write after Abort is discarded with the writer: Commit still
	// fails and the published generations are untouched.
	w3, err := b.PutStream("h", false)
	if err != nil {
		t.Fatal(err)
	}
	w3.Abort()
	if _, err := w3.Write([]byte("zombie")); err != nil {
		t.Fatal(err)
	}
	if err := w3.Commit(); err == nil {
		t.Fatal("Commit after Abort succeeded")
	}
	if got, err := b.Get("h", nil); err != nil || string(got) != "second" {
		t.Fatalf("Get after zombie writer = %q, %v; want second", got, err)
	}
}

// faultyWriter is a BlobWriter whose Write fails once failAfter writes
// have succeeded (never, when failAfter is negative), and which records
// whether Commit and Abort ran.
type faultyWriter struct {
	failAfter, writes  int
	committed, aborted bool
}

var errWriteFault = errors.New("injected write fault")

func (w *faultyWriter) Write(p []byte) (int, error) {
	if w.writes == w.failAfter {
		return 0, errWriteFault
	}
	w.writes++
	return len(p), nil
}

func (w *faultyWriter) Commit() error { w.committed = true; return nil }
func (w *faultyWriter) Abort()        { w.aborted = true }

// faultyBackend hands its one faultyWriter to every PutStream.
type faultyBackend struct {
	discardBackend
	w *faultyWriter
}

func (b *faultyBackend) PutStream(string, bool) (BlobWriter, error) { return b.w, nil }

// TestWriteFailureAborts pins the abort paths of a checkpoint write: a
// chunk write that fails (putChunked) and a checkpoint the encoder
// rejects (MultiSaver.writeTo) must both return the error, Abort the
// writer and never Commit it.
func TestWriteFailureAborts(t *testing.T) {
	t.Parallel()
	big := make([]byte, 2*PutChunk+1)
	tables := []*rl.QTable{rl.NewQTable(2, 2, 0)}
	routines := EncodedRoutines{{1, 2}}
	for name, tc := range map[string]struct {
		failAfter int
		write     func(w *faultyWriter) error
		wantErr   error
	}{
		"first chunk": {0, func(w *faultyWriter) error { return putChunked(w, big) }, errWriteFault},
		"last chunk":  {2, func(w *faultyWriter) error { return putChunked(w, big) }, errWriteFault},
		"saver write": {0, func(w *faultyWriter) error {
			var sv MultiSaver
			return sv.Save(&faultyBackend{w: w}, "h", "u", "a", routines, tables, nil, false)
		}, errWriteFault},
		"saver encode": {-1, func(w *faultyWriter) error {
			var sv MultiSaver
			return sv.Save(&faultyBackend{w: w}, "h", "u", "a", nil, nil, nil, false)
		}, nil},
	} {
		tc := tc
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			w := &faultyWriter{failAfter: tc.failAfter}
			err := tc.write(w)
			if err == nil || (tc.wantErr != nil && !errors.Is(err, tc.wantErr)) {
				t.Fatalf("write = %v, want an error (%v)", err, tc.wantErr)
			}
			if !w.aborted || w.committed {
				t.Fatalf("aborted %v, committed %v; want Abort and no Commit", w.aborted, w.committed)
			}
		})
	}
}
