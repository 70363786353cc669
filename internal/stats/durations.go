package stats

import (
	"sync"
	"time"
)

// Durations tracks per-key usage-duration statistics. The reminding
// subsystem uses it to derive the idle timeout the paper's footnote calls
// for: "this time should be determined from the statistical data of how
// long a user will use this tool".
//
// Durations is safe for concurrent use.
type Durations struct {
	mu sync.Mutex
	m  map[uint32]*Running // built on the first Observe
}

// NewDurations returns an empty tracker. An empty tracker holds no map,
// so the idle households of a fleet pay nothing for one.
func NewDurations() *Durations {
	return &Durations{}
}

// Observe records one usage duration for a key.
func (d *Durations) Observe(key uint32, dur time.Duration) {
	d.mu.Lock()
	defer d.mu.Unlock()
	r, ok := d.m[key]
	if !ok {
		if d.m == nil {
			d.m = make(map[uint32]*Running)
		}
		r = &Running{}
		d.m[key] = r
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
	r, ok := d.m[key]
	if !ok || r.N() < minSamples {
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
