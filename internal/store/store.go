// Package store persists learned policies as checkpoint blobs in the
// binary CKPT format (see ckpt.go), written through a pluggable Backend
// (see backend.go) or directly at a path; every write is atomic (temp
// file + rename) with the previous generation rotated to a .1 backup,
// so a crash mid-save never corrupts a user's learned routine.
package store

import (
	"fmt"
	"os"

	"coreda/internal/rl"
)

// BackupSuffix is appended to a policy path to name the rotated previous
// generation kept as a recovery fallback.
const BackupSuffix = ".1"

// SavePolicy writes a single-policy CKPT file atomically. The previous
// generation, if any, is rotated to path+BackupSuffix, so a policy file
// corrupted after the fact (disk fault, torn copy) still has a
// one-generation-old fallback next to it.
func SavePolicy(path, user, activity string, table *rl.QTable, episodes int, epsilon float64) error {
	c := Checkpoint{
		User:     user,
		Activity: activity,
		Policies: []CheckpointPolicy{{
			States:   table.NumStates(),
			Actions:  table.NumActions(),
			Episodes: episodes,
			Epsilon:  epsilon,
			Q:        table.Values(),
		}},
	}
	data, err := AppendCheckpoint(nil, &c)
	if err != nil {
		return err
	}
	w, err := newFileBlobWriter(path, true)
	if err != nil {
		return err
	}
	return putChunked(w, data)
}

// rotateBackup moves the previous generation of path, if any, to
// path+BackupSuffix. Save paths call it before writing so a file
// corrupted after the fact (disk fault, torn copy) still has a
// one-generation-old fallback next to it.
func rotateBackup(path string) error {
	// Rename directly and tolerate a missing previous generation: one
	// syscall on the checkpoint hot path instead of a stat-then-rename
	// pair.
	if err := os.Rename(path, path+BackupSuffix); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("store: rotating backup: %w", err)
	}
	return nil
}

// LoadFile reads and decodes the checkpoint at path into c: the path
// twin of LoadCheckpoint. If the primary file is unreadable or fails to
// decode, the rotated backup (path+BackupSuffix) is tried before giving
// up; the returned error then covers both attempts, except that two
// missing files collapse to ErrNoCheckpoint. A torn primary with no
// backup is deliberately NOT ErrNoCheckpoint — a checkpoint existed and
// was lost, and callers must be able to tell that apart from a genuine
// fresh start.
func LoadFile(path string, c *Checkpoint) error {
	_, err := loadBlobFile(path, func(data []byte) error { return DecodeCheckpoint(c, data) })
	return err
}
