package store

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
)

// ckptExt is the local-dir backend's file extension: every blob is
// <name>.ckpt, with its rotated previous generation at <name>.ckpt.1.
const ckptExt = ".ckpt"

// fileBlobWriter is the local filesystem's BlobWriter and the single
// home of the store's crash-safety protocol: stream into a fixed
// <path>.tmp (one writer per path — shards own their tenants — so no
// CreateTemp name hunt), then on Commit optionally fsync, rotate the
// previous generation to path+BackupSuffix, and rename the temp into
// place. A reader that lands anywhere in that window sees either the
// previous generation (primary or just-rotated backup) or the complete
// new one, never a prefix. The temp file is only unlinked on the error
// path: after a successful rename there is nothing to remove, and an
// unconditional deferred Remove would cost a failing unlink syscall per
// checkpoint.
type fileBlobWriter struct {
	path, tmp string
	f         *os.File
	fsync     bool
	done      bool
}

func newFileBlobWriter(path string, fsync bool) (*fileBlobWriter, error) {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: temp file: %w", err)
	}
	return &fileBlobWriter{path: path, tmp: tmp, f: f, fsync: fsync}, nil
}

func (w *fileBlobWriter) Write(p []byte) (int, error) { return w.f.Write(p) }

func (w *fileBlobWriter) Commit() (err error) {
	if w.done {
		return fmt.Errorf("store: blob %s already committed", w.path)
	}
	w.done = true
	defer func() {
		if err != nil {
			os.Remove(w.tmp)
		}
	}()
	if w.fsync {
		if err := w.f.Sync(); err != nil {
			w.f.Close()
			return fmt.Errorf("store: sync %s: %w", w.tmp, err)
		}
	}
	if err := w.f.Close(); err != nil {
		return fmt.Errorf("store: close %s: %w", w.tmp, err)
	}
	if err := rotateBackup(w.path); err != nil {
		return err
	}
	if err := os.Rename(w.tmp, w.path); err != nil {
		return fmt.Errorf("store: rename: %w", err)
	}
	return nil
}

func (w *fileBlobWriter) Abort() {
	if w.done {
		return
	}
	w.done = true
	w.f.Close()
	os.Remove(w.tmp)
}

// readBlobAt reads one generation and runs the caller's check on it.
func readBlobAt(path string, check func([]byte) error) ([]byte, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("store: read: %w", err)
	}
	if check != nil {
		if err := check(data); err != nil {
			return nil, fmt.Errorf("store: %s: %w", path, err)
		}
	}
	return data, nil
}

// loadBlobFile reads the blob at path with the torn-read fallback: if
// the primary is missing, unreadable or fails check, the rotated backup
// (path+BackupSuffix) is tried before giving up. Two missing
// generations collapse to ErrNoCheckpoint; any other failure pair
// reports both attempts.
func loadBlobFile(path string, check func([]byte) error) ([]byte, error) {
	data, err := readBlobAt(path, check)
	if err == nil {
		return data, nil
	}
	data, berr := readBlobAt(path+BackupSuffix, check)
	if berr == nil {
		return data, nil
	}
	if errors.Is(err, fs.ErrNotExist) && errors.Is(berr, fs.ErrNotExist) {
		return nil, ErrNoCheckpoint
	}
	return nil, fmt.Errorf("%w (backup: %v)", err, berr)
}

// DirBackend is the local-directory Backend: each blob is
// <dir>/<name>.ckpt with the crash-safe rotation fileBlobWriter
// implements.
type DirBackend struct {
	dir string
}

// NewDirBackend creates dir if needed. It refuses a directory that holds
// a pre-CKPT checkpoint (<name>.json or its .json.1 backup, written
// before the binary format existed), naming the file: such a file is a
// household's learned routine in a format the store no longer reads,
// and serving on would start that household fresh without a word.
// Pre-CKPT checkpoint directories are unsupported.
func NewDirBackend(dir string) (*DirBackend, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: creating checkpoint dir: %w", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("store: listing checkpoint dir: %w", err)
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if name, ok := strings.CutSuffix(strings.TrimSuffix(e.Name(), BackupSuffix), ".json"); ok && name != "" {
			return nil, fmt.Errorf("store: %s is a pre-CKPT checkpoint; pre-CKPT checkpoint directories are unsupported",
				filepath.Join(dir, e.Name()))
		}
	}
	return &DirBackend{dir: dir}, nil
}

func (d *DirBackend) path(name string) string { return filepath.Join(d.dir, name+ckptExt) }

// Get reads the primary and falls back to its rotated backup (see
// loadBlobFile).
func (d *DirBackend) Get(name string, check func([]byte) error) ([]byte, error) {
	return loadBlobFile(d.path(name), check)
}

func (d *DirBackend) Put(name string, data []byte, fsync bool) error {
	w, err := d.PutStream(name, fsync)
	if err != nil {
		return err
	}
	return putChunked(w, data)
}

func (d *DirBackend) PutStream(name string, fsync bool) (BlobWriter, error) {
	w, err := newFileBlobWriter(d.path(name), fsync)
	if err != nil {
		return nil, err
	}
	return w, nil
}

// Enumerate lists blob names: a primary or a rotated backup counts, and
// the two generations of one name are deduped to a single visit.
func (d *DirBackend) Enumerate(fn func(name string)) error {
	entries, err := os.ReadDir(d.dir)
	if err != nil {
		return fmt.Errorf("store: listing checkpoint dir: %w", err)
	}
	seen := make(map[string]bool, len(entries))
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		name, ok := strings.CutSuffix(strings.TrimSuffix(e.Name(), BackupSuffix), ckptExt)
		if !ok || name == "" || seen[name] {
			continue
		}
		seen[name] = true
		fn(name)
	}
	return nil
}

// Delete removes both generations of the blob.
func (d *DirBackend) Delete(name string) error {
	var first error
	for _, p := range [2]string{d.path(name), d.path(name) + BackupSuffix} {
		if err := os.Remove(p); err != nil && !os.IsNotExist(err) && first == nil {
			first = fmt.Errorf("store: delete %s: %w", p, err)
		}
	}
	return first
}
