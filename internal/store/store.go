// Package store persists learned policies and user profiles. Policies
// are checkpoint blobs in the binary CKPT format (legacy JSON stays
// loadable via content sniffing; see ckpt.go), written
// through a pluggable Backend (see backend.go) or directly at a path;
// every write is atomic (temp file + rename) with the previous
// generation rotated to a .1 backup, so a crash mid-save never corrupts
// a user's learned routine. Profiles remain human-editable JSON.
package store

import (
	"fmt"
	"os"

	"coreda/internal/rl"
)

// policyVersion is the current PolicyFile schema version.
const policyVersion = 1

// PolicyFile is the serialized form of one learned Q-table plus the
// metadata needed to resume training.
type PolicyFile struct {
	Version  int       `json:"version"`
	User     string    `json:"user"`
	Activity string    `json:"activity"`
	States   int       `json:"states"`
	Actions  int       `json:"actions"`
	Episodes int       `json:"episodes"`
	Epsilon  float64   `json:"epsilon"`
	Q        []float64 `json:"q"`
}

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

// LoadPolicy reads and validates a single-policy file of either format
// (content is sniffed, so pre-binary JSON files load transparently),
// returning the metadata and a reconstructed Q-table. If the primary
// file is unreadable or malformed, the rotated backup
// (path+BackupSuffix) is tried before giving up; the returned error
// then covers both attempts (two missing generations collapse to
// ErrNoCheckpoint).
func LoadPolicy(path string) (PolicyFile, *rl.QTable, error) {
	var c Checkpoint
	if _, err := loadBlobFile(path, func(data []byte) error { return DecodeCheckpoint(&c, data) }); err != nil {
		return PolicyFile{}, nil, err
	}
	return checkpointToPolicy(path, &c)
}

// checkpointToPolicy converts a decoded single-policy checkpoint to the
// PolicyFile view plus a materialized Q-table.
func checkpointToPolicy(path string, c *Checkpoint) (PolicyFile, *rl.QTable, error) {
	if len(c.Policies) != 1 {
		return PolicyFile{}, nil, fmt.Errorf("store: policy %s has %d policies, want 1", path, len(c.Policies))
	}
	p := c.Policies[0]
	table := rl.NewQTable(p.States, p.Actions, 0)
	if err := table.SetValues(p.Q); err != nil {
		return PolicyFile{}, nil, err
	}
	return PolicyFile{
		Version:  policyVersion,
		User:     c.User,
		Activity: c.Activity,
		States:   p.States,
		Actions:  p.Actions,
		Episodes: p.Episodes,
		Epsilon:  p.Epsilon,
		Q:        p.Q,
	}, table, nil
}
