// Package chaosnet wraps net.Conn with scripted transport faults — frame
// splitting, garbage bytes, stalls and resets — for exercising the wire
// reader's resynchronization and the node-facing read/write deadlines. The byte
// transformations are a deterministic function of the seeded rng and the
// write sequence; only the timing side (stalls) touches the wall clock,
// which is why this lives outside the chaos package's sim-scoped
// determinism boundary.
package chaosnet

import (
	"math/rand"
	"net"
	"sync"
	"time"
)

// ConnPlan scripts the faults applied to a wrapped connection. The zero
// value passes traffic through untouched.
type ConnPlan struct {
	// SplitMax, when positive, splits every Write into chunks of at most
	// this many bytes, issued as separate writes — a frame fragmented
	// across TCP segments.
	SplitMax int
	// Garbage is the probability that a Write is preceded by GarbageLen
	// random non-Magic bytes, which the wire.Reader must skip.
	Garbage float64
	// GarbageLen is how many garbage bytes each injection emits (zero
	// means 7).
	GarbageLen int
	// StallEvery, when positive, pauses for Stall before every n-th
	// Write (a congested or dying link).
	StallEvery int
	// Stall is the pause duration (zero means 50 ms).
	Stall time.Duration
	// ResetAfter, when positive, hard-closes the connection after that
	// many Writes have completed; subsequent operations fail like a
	// peer reset.
	ResetAfter int
}

// Conn is a net.Conn with scripted faults on the write path. Reads pass
// through untouched (fault the peer's writes to disturb reads).
type Conn struct {
	net.Conn
	plan ConnPlan
	rng  *rand.Rand

	mu     sync.Mutex
	writes int
}

// Wrap applies the plan to an established connection. rng drives the
// probabilistic faults and garbage contents; it must not be shared.
func Wrap(c net.Conn, plan ConnPlan, rng *rand.Rand) *Conn {
	if plan.GarbageLen == 0 {
		plan.GarbageLen = 7
	}
	if plan.Stall == 0 {
		plan.Stall = 50 * time.Millisecond
	}
	return &Conn{Conn: c, plan: plan, rng: rng}
}

// Write applies the scripted faults, then forwards to the wrapped
// connection. Fault decisions are serialized, so concurrent writers see a
// consistent write count.
func (c *Conn) Write(b []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.writes++
	if c.plan.ResetAfter > 0 && c.writes > c.plan.ResetAfter {
		c.Conn.Close()
		return 0, net.ErrClosed
	}
	if c.plan.StallEvery > 0 && c.writes%c.plan.StallEvery == 0 {
		time.Sleep(c.plan.Stall)
	}
	if c.plan.Garbage > 0 && c.rng.Float64() < c.plan.Garbage {
		garbage := make([]byte, c.plan.GarbageLen)
		for i := range garbage {
			// Any byte but the frame magic: garbage must desynchronize,
			// not fabricate frame starts.
			garbage[i] = byte(c.rng.Intn(0xC5))
		}
		if _, err := c.Conn.Write(garbage); err != nil {
			return 0, err
		}
	}
	if c.plan.SplitMax > 0 {
		written := 0
		for written < len(b) {
			end := written + c.plan.SplitMax
			if end > len(b) {
				end = len(b)
			}
			n, err := c.Conn.Write(b[written:end])
			written += n
			if err != nil {
				return written, err
			}
		}
		return written, nil
	}
	return c.Conn.Write(b)
}
