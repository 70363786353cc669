package stats

import (
	"sync"
	"time"
)

// Durations tracks per-key duration statistics. The sensing subsystem
// keeps one over each tool's arrival gap (the time from the previous
// tool use to this tool's use) and derives from it the idle timeout the
// paper's footnote calls for: "this time should be determined from the
// statistical data". The zero Durations is empty and ready to use.
//
// Durations is safe for concurrent use.
type Durations struct {
	mu sync.Mutex
	e  []durationEntry // one per key, in first-Observe order
}

// durationEntry is one key's running statistics.
type durationEntry struct {
	key uint32
	r   Running
}

// find returns key's statistics, or nil before its first Observe. A
// household has a handful of tools, so a scan beats a map. The caller
// holds d.mu.
func (d *Durations) find(key uint32) *Running {
	for i := range d.e {
		if d.e[i].key == key {
			return &d.e[i].r
		}
	}
	return nil
}

// Observe records one duration for a key.
func (d *Durations) Observe(key uint32, dur time.Duration) {
	d.mu.Lock()
	defer d.mu.Unlock()
	r := d.find(key)
	if r == nil {
		d.e = append(d.e, durationEntry{key: key})
		r = &d.e[len(d.e)-1].r
	}
	r.Add(dur.Seconds())
}

// Timeout returns mean + k*stddev for the key, clamped to [floor, ceil].
// With fewer than minSamples observations it returns the floor — the
// system falls back to a safe default (e.g. the paper's illustrative 30 s)
// until enough data has been seen.
func (d *Durations) Timeout(key uint32, k float64, minSamples int, floor, ceil time.Duration) time.Duration {
	d.mu.Lock()
	defer d.mu.Unlock()
	r := d.find(key)
	if r == nil || r.N() < minSamples {
		return floor
	}
	t := time.Duration((r.Mean() + k*r.StdDev()) * float64(time.Second))
	if t < floor {
		t = floor
	}
	if ceil > 0 && t > ceil {
		t = ceil
	}
	return t
}
