package store

import (
	"errors"
	"io"
)

// ErrNoCheckpoint is returned by checkpoint loads when no generation of
// the blob exists — neither a primary nor a rotated backup. It lets
// callers distinguish "fresh start" from "a checkpoint existed but is
// unusable" without a separate existence probe. A torn primary with no
// backup is deliberately NOT ErrNoCheckpoint — a checkpoint existed and
// was lost, and callers must be able to tell that apart from a genuine
// fresh start.
var ErrNoCheckpoint = errors.New("store: no checkpoint")

// PutChunk is the write granularity of streamed checkpoint uploads:
// encoded blobs pass through a BlobWriter in chunks of at most this
// size, so a backend that frames its writes (a network object store, a
// chunked local format) never sees one giant buffer.
const PutChunk = 64 << 10

// BlobWriter is a streaming checkpoint write in progress. Write as many
// chunks as needed, then either Commit — which publishes the blob
// atomically (readers see the whole new blob or the whole previous
// generation, never a prefix) — or Abort, which discards it. Abort
// after a successful Commit is a no-op, so callers may defer it.
type BlobWriter interface {
	io.Writer
	Commit() error
	Abort()
}

// Backend is a checkpoint blob store: named, versioned-by-one blobs
// with atomic replacement. The fleet persists each household under its
// ID; what the bytes mean is the CKPT codec's business, not the
// backend's.
//
// The contract every implementation must honor:
//
//   - Put/PutStream+Commit atomically replace the blob, keeping the
//     previous generation as a fallback (one generation of history).
//   - Get tries the newest generation first; when a generation is
//     unreadable or fails the caller's check, it falls back to the
//     older one. If no generation exists at all, Get returns
//     ErrNoCheckpoint; if generations exist but none is usable, it
//     returns the failure, never ErrNoCheckpoint.
//   - There is at most one writer per name at a time (the fleet's
//     shard-ownership rule); concurrent readers are safe.
//   - Enumerate visits each name at least one generation of which
//     exists, in unspecified order.
type Backend interface {
	// Get returns the newest usable generation of the blob. check, if
	// non-nil, validates (typically: decodes) a candidate's bytes;
	// a check failure triggers the fallback to the older generation.
	// On success the returned bytes are the ones check accepted.
	// Callers must not modify the returned slice.
	Get(name string, check func(data []byte) error) ([]byte, error)
	// Put atomically replaces the blob with data.
	Put(name string, data []byte, fsync bool) error
	// PutStream starts a streaming atomic replacement. fsync says
	// whether Commit flushes to stable storage before publishing.
	PutStream(name string, fsync bool) (BlobWriter, error)
	// Enumerate calls fn once per stored blob name.
	Enumerate(fn func(name string)) error
	// Delete removes every generation of the blob (missing is not an
	// error).
	Delete(name string) error
}

// LoadCheckpoint reads and decodes the named checkpoint from a backend
// into c, using decode-as-validation so a corrupt newest generation
// falls back to the previous one without a second decode pass.
func LoadCheckpoint(b Backend, name string, c *Checkpoint) error {
	_, err := b.Get(name, func(data []byte) error { return DecodeCheckpoint(c, data) })
	return err
}

// putChunked streams data through w in PutChunk-sized writes (see
// PutChunk) and is the shared Put-via-PutStream implementation.
func putChunked(w BlobWriter, data []byte) error {
	for off := 0; off < len(data); off += PutChunk {
		end := min(off+PutChunk, len(data))
		if _, err := w.Write(data[off:end]); err != nil {
			w.Abort()
			return err
		}
	}
	return w.Commit()
}
