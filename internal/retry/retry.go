// Package retry is a retry/backoff policy: capped exponential backoff
// with deterministic jitter. Peer replication (internal/cluster) and the
// fleet's checkpoint writes both go through it.
//
// Determinism: the jitter is drawn from a *rand.Rand the caller provides
// — conventionally a named stream like sim.RNG(seed, "cluster/retry/p1")
// per coreda-vet's nondeterminism rules — so a retry schedule is a pure
// function of (policy, stream, failure pattern) and a soak that injects
// the same faults backs off at the same instants every run. Only the
// sleep itself touches the wall clock, and it is injectable for tests.
package retry

import (
	"math/rand"
	"time"
)

// Policy is a complete retry schedule. The zero value makes exactly one
// attempt with no backoff; see Default for the peer-RPC schedule.
type Policy struct {
	// Attempts is the maximum number of attempts (minimum 1; zero and
	// negative are treated as 1).
	Attempts int
	// Base is the backoff before the second attempt; each further
	// attempt doubles it (exponential backoff).
	Base time.Duration
	// Cap bounds the backoff growth. Zero means no cap.
	Cap time.Duration
	// Jitter is the fraction of each backoff that is randomized, in
	// [0, 1]: a backoff b becomes b*(1-Jitter) + rand*b*Jitter. Zero
	// retries on exact doublings; positive jitter decorrelates peers
	// retrying against the same overloaded replica.
	Jitter float64
	// Sleep replaces time.Sleep between attempts (tests pass a recorder;
	// nil means time.Sleep).
	Sleep func(time.Duration)
}

// Default is the peer-RPC schedule of cluster replication: 4 attempts,
// 25 ms doubling to a 200 ms cap, half-jittered.
func Default() Policy {
	return Policy{Attempts: 4, Base: 25 * time.Millisecond, Cap: 200 * time.Millisecond, Jitter: 0.5}
}

// Backoff returns the pause before attempt n+1 (n counts completed
// attempts, so Backoff(rng, 1) follows the first failure), drawing the
// jitter from rng. The rng is consumed exactly once per call when Jitter
// is positive — a fixed consumption pattern, so one stream can serve a
// whole sequence of RPCs reproducibly.
func (p Policy) Backoff(rng *rand.Rand, n int) time.Duration {
	b := p.Base
	for i := 1; i < n; i++ {
		b *= 2
		if p.Cap > 0 && b >= p.Cap {
			b = p.Cap
			break
		}
	}
	if p.Cap > 0 && b > p.Cap {
		b = p.Cap
	}
	if p.Jitter > 0 && b > 0 && rng != nil {
		b = time.Duration(float64(b) * (1 - p.Jitter + p.Jitter*rng.Float64()))
	}
	return b
}

// Do runs op until it succeeds or the attempt budget is exhausted; the
// last error is returned. op receives the 1-based attempt number. rng
// supplies the jitter (may be nil with Jitter 0).
func (p Policy) Do(rng *rand.Rand, op func(attempt int) error) error {
	attempts := p.Attempts
	if attempts < 1 {
		attempts = 1
	}
	sleep := p.Sleep
	if sleep == nil {
		sleep = time.Sleep
	}
	var err error
	for n := 1; n <= attempts; n++ {
		err = op(n)
		if err == nil {
			return nil
		}
		if n < attempts {
			if d := p.Backoff(rng, n); d > 0 {
				sleep(d)
			}
		}
	}
	return err
}
