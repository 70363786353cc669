// Fixture for the lockheld analyzer's parrun rule, type-checked as
// coreda/internal/fleet: parrun.Map blocks until every index has run —
// a checkpoint wave's writes, retries included — so reaching it with a
// mutex held couples every goroutine contending for that mutex to the
// slowest write. Imports resolve to the miniature parrun package under
// testdata/src.
package fleet

import (
	"sync"

	"coreda/internal/parrun"
)

type shard struct {
	mu      sync.Mutex
	written map[string]bool
	ids     []string
}

func (s *shard) write(i int) error { return nil }

// writeWaveLocked runs the wave under the shard mutex — the coupling the
// wave boundary exists to avoid.
func (s *shard) writeWaveLocked() {
	s.mu.Lock()
	defer s.mu.Unlock()
	errs, _ := parrun.Map(len(s.ids), 4, func(i int) (error, error) { // want `s\.mu held across blocking call parrun\.Map`
		return s.write(i), nil
	})
	for i, err := range errs {
		if err == nil {
			s.written[s.ids[i]] = true
		}
	}
}

// writeWave releases before the wave and takes the lock again only to
// apply the outcomes: the sanctioned shape.
func (s *shard) writeWave() {
	s.mu.Lock()
	ids := append([]string(nil), s.ids...)
	s.mu.Unlock()
	errs, _ := parrun.Map(len(ids), 4, func(i int) (error, error) {
		return s.write(i), nil
	})
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, err := range errs {
		if err == nil {
			s.written[ids[i]] = true
		}
	}
}
