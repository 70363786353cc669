package store

import (
	"testing"

	"coreda/internal/rl"
)

// benchCheckpoint is a fleet-scale checkpoint: one routine and one
// learned Q-table of a few thousand entries, mostly small values with a
// sparse tail of zeros — the shape an evicted tenant actually writes.
func benchCheckpoint() *Checkpoint {
	const states, actions = 256, 16
	q := make([]float64, states*actions)
	for i := range q {
		if i%3 != 0 { // young tables are mostly zero
			q[i] = float64(i%97) * 0.03125
		}
	}
	routine := make([]uint16, 24)
	for i := range routine {
		routine[i] = uint16(i + 1)
	}
	return &Checkpoint{
		User:     "h04231",
		Activity: "tea-making",
		Routines: EncodedRoutines{routine},
		Policies: []CheckpointPolicy{{States: states, Actions: actions, Episodes: 240, Epsilon: 0.04, Q: q}},
	}
}

// materialize converts a Checkpoint into the live objects a tenant
// hands the saver.
func materialize(tb testing.TB, c *Checkpoint) ([]*rl.QTable, []TrainState) {
	tb.Helper()
	tables := make([]*rl.QTable, len(c.Policies))
	states := make([]TrainState, len(c.Policies))
	for i, p := range c.Policies {
		t := rl.NewQTable(p.States, p.Actions, 0)
		if err := t.SetValues(p.Q); err != nil {
			tb.Fatal(err)
		}
		tables[i] = t
		states[i] = TrainState{Episodes: p.Episodes, Epsilon: p.Epsilon}
	}
	return tables, states
}

// discardBackend swallows writes through a single reusable writer: the
// saver benchmarks and alloc budgets measure encode cost, not the
// filesystem.
type discardBackend struct{ w discardWriter }

type discardWriter struct{}

func (discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (discardWriter) Commit() error               { return nil }
func (discardWriter) Abort()                      {}

func (d *discardBackend) Get(string, func([]byte) error) ([]byte, error) { return nil, ErrNoCheckpoint }
func (d *discardBackend) Put(name string, data []byte, fsync bool) error {
	w, _ := d.PutStream(name, fsync)
	return putChunked(w, data)
}
func (d *discardBackend) PutStream(string, bool) (BlobWriter, error) { return &d.w, nil }
func (d *discardBackend) Enumerate(func(string)) error               { return nil }
func (d *discardBackend) Delete(string) error                        { return nil }

func BenchmarkCheckpointEncode(b *testing.B) {
	c := benchCheckpoint()
	tables, states := materialize(b, c)
	b.Run("binary", func(b *testing.B) {
		var sv MultiSaver
		back := &discardBackend{}
		if err := sv.Save(back, "h", c.User, c.Activity, c.Routines, tables, states, false); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := sv.Save(back, "h", c.User, c.Activity, c.Routines, tables, states, false); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkCheckpointDecode(b *testing.B) {
	data, err := AppendCheckpoint(nil, benchCheckpoint())
	if err != nil {
		b.Fatal(err)
	}
	b.Run("binary", func(b *testing.B) {
		var dec Checkpoint
		if err := DecodeCheckpoint(&dec, data); err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(len(data)))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := DecodeCheckpoint(&dec, data); err != nil {
				b.Fatal(err)
			}
		}
	})
}
