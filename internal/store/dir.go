package store

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
)

// File extensions of the local-dir backend. The extension names the
// era, not the encoding: current-era blobs live in .ckpt files whatever
// their format (content sniffing decides), legacy pre-backend
// checkpoints in .json files, and either may have a rotated .1 backup.
const (
	ckptExt   = ".ckpt"
	legacyExt = ".json"
)

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
	// onCommit, if non-nil, runs after the rename (DirBackend hooks
	// legacy-file cleanup here).
	onCommit func() error
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
	if w.onCommit != nil {
		return w.onCommit()
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
// implements, and checkpoints from before the backend era
// (<name>.json, plus its .1 backup) remain loadable as a last-resort
// generation. The legacy set is scanned once at construction and
// consulted from memory, so a Get for a never-persisted name costs
// exactly two failed opens and a Put never stats for stale files it
// does not need to clean. A successful Put removes the name's legacy
// files — the transparent JSON→binary migration: old checkpoint loads,
// next save upgrades, nothing is left behind.
type DirBackend struct {
	dir string

	mu sync.Mutex
	// legacy is the set of names with pre-backend .json-era files still
	// on disk. Guarded by mu; the flag is read before any I/O and
	// cleared after it, so the lock is never held across a syscall.
	legacy map[string]bool
}

// NewDirBackend creates dir if needed and scans it once for legacy
// checkpoint files.
func NewDirBackend(dir string) (*DirBackend, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: creating checkpoint dir: %w", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("store: listing checkpoint dir: %w", err)
	}
	b := &DirBackend{dir: dir, legacy: make(map[string]bool)}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if name, ok := strings.CutSuffix(strings.TrimSuffix(e.Name(), BackupSuffix), legacyExt); ok && name != "" {
			b.legacy[name] = true
		}
	}
	return b, nil
}

func (d *DirBackend) path(name string) string { return filepath.Join(d.dir, name+ckptExt) }

func (d *DirBackend) hasLegacy(name string) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.legacy[name]
}

// Get implements the Backend fallback chain: current-era primary, its
// rotated backup, then — only for names the construction scan saw
// legacy files for — the .json-era pair.
func (d *DirBackend) Get(name string, check func([]byte) error) ([]byte, error) {
	data, err := loadBlobFile(d.path(name), check)
	if err == nil {
		return data, nil
	}
	if !d.hasLegacy(name) {
		return nil, err
	}
	data, lerr := loadBlobFile(filepath.Join(d.dir, name+legacyExt), check)
	if lerr == nil {
		return data, nil
	}
	switch {
	case errors.Is(err, ErrNoCheckpoint):
		return nil, lerr
	case errors.Is(lerr, ErrNoCheckpoint):
		return nil, err
	}
	return nil, fmt.Errorf("%w (legacy: %v)", err, lerr)
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
	if d.hasLegacy(name) {
		w.onCommit = func() error { return d.removeLegacy(name) }
	}
	return w, nil
}

// removeLegacy deletes a name's .json-era files after a current-era
// blob has been committed (the upgrade leg of the transparent
// migration). If a removal fails the legacy flag stays set, so loads
// keep consulting the files and the next Put retries the cleanup.
func (d *DirBackend) removeLegacy(name string) error {
	p := filepath.Join(d.dir, name+legacyExt)
	err := os.Remove(p)
	if berr := os.Remove(p + BackupSuffix); err == nil || os.IsNotExist(err) {
		err = berr
	}
	if err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("store: removing legacy checkpoint: %w", err)
	}
	d.mu.Lock()
	delete(d.legacy, name)
	d.mu.Unlock()
	return nil
}

// Enumerate lists blob names: any file of either era, backups included,
// counts; the variants of one name (extensions, eras, backups) are
// deduped to a single visit.
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
		base := strings.TrimSuffix(e.Name(), BackupSuffix)
		name, ok := strings.CutSuffix(base, ckptExt)
		if !ok {
			name, ok = strings.CutSuffix(base, legacyExt)
		}
		if !ok || name == "" || seen[name] {
			continue
		}
		seen[name] = true
		fn(name)
	}
	return nil
}

// Delete removes every generation of the blob, both eras.
func (d *DirBackend) Delete(name string) error {
	var first error
	for _, p := range [4]string{
		d.path(name), d.path(name) + BackupSuffix,
		filepath.Join(d.dir, name+legacyExt), filepath.Join(d.dir, name+legacyExt) + BackupSuffix,
	} {
		if err := os.Remove(p); err != nil && !os.IsNotExist(err) && first == nil {
			first = fmt.Errorf("store: delete %s: %w", p, err)
		}
	}
	d.mu.Lock()
	delete(d.legacy, name)
	d.mu.Unlock()
	return first
}
