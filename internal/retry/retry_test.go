package retry

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"coreda/internal/sim"
)

func TestDoSucceedsFirstTry(t *testing.T) {
	p := Policy{Attempts: 3, Base: time.Second, Sleep: func(time.Duration) { t.Fatal("slept on success") }}
	calls := 0
	if err := p.Do(nil, func(attempt int) error {
		calls++
		if attempt != 1 {
			t.Errorf("attempt = %d, want 1", attempt)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Errorf("calls = %d, want 1", calls)
	}
}

func TestDoRetriesUntilSuccess(t *testing.T) {
	var slept []time.Duration
	p := Policy{Attempts: 5, Base: 10 * time.Millisecond, Sleep: func(d time.Duration) { slept = append(slept, d) }}
	calls := 0
	err := p.Do(nil, func(int) error {
		calls++
		if calls < 3 {
			return errors.New("transient")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 3 {
		t.Errorf("calls = %d, want 3", calls)
	}
	// Two failures, two sleeps: base, then doubled.
	want := []time.Duration{10 * time.Millisecond, 20 * time.Millisecond}
	if len(slept) != len(want) || slept[0] != want[0] || slept[1] != want[1] {
		t.Errorf("slept = %v, want %v", slept, want)
	}
}

func TestDoExhaustsAttempts(t *testing.T) {
	slept := 0
	p := Policy{Attempts: 3, Base: time.Millisecond, Sleep: func(time.Duration) { slept++ }}
	calls := 0
	err := p.Do(nil, func(int) error { calls++; return fmt.Errorf("fail %d", calls) })
	if calls != 3 {
		t.Errorf("calls = %d, want 3", calls)
	}
	if err == nil || err.Error() != "fail 3" {
		t.Errorf("err = %v, want the last failure", err)
	}
	if slept != 2 {
		t.Errorf("slept %d times, want 2 (no sleep after the final failure)", slept)
	}
}

func TestDoZeroValueMakesOneAttempt(t *testing.T) {
	var p Policy
	calls := 0
	if err := p.Do(nil, func(int) error { calls++; return errors.New("no") }); err == nil {
		t.Fatal("want error")
	}
	if calls != 1 {
		t.Errorf("calls = %d, want 1", calls)
	}
}

func TestBackoffDoublesToCap(t *testing.T) {
	p := Policy{Attempts: 10, Base: 10 * time.Millisecond, Cap: 45 * time.Millisecond}
	want := []time.Duration{
		10 * time.Millisecond, // after attempt 1
		20 * time.Millisecond,
		40 * time.Millisecond,
		45 * time.Millisecond, // capped
		45 * time.Millisecond,
	}
	for i, w := range want {
		if got := p.Backoff(nil, i+1); got != w {
			t.Errorf("Backoff(%d) = %v, want %v", i+1, got, w)
		}
	}
}

func TestBackoffJitterIsDeterministic(t *testing.T) {
	p := Default()
	a := sim.RNG(7, "retry/test")
	b := sim.RNG(7, "retry/test")
	for n := 1; n <= 6; n++ {
		da, db := p.Backoff(a, n), p.Backoff(b, n)
		if da != db {
			t.Fatalf("Backoff(%d) diverged across identical streams: %v vs %v", n, da, db)
		}
		full := p.Backoff(nil, n) // un-jittered envelope, jitter ignored with nil rng
		if da > full || da < time.Duration(float64(full)*(1-p.Jitter))-time.Nanosecond {
			t.Errorf("Backoff(%d) = %v outside [%v*(1-jitter), %v]", n, da, full, full)
		}
	}
}

func TestBackoffJitterVariesAcrossStreams(t *testing.T) {
	p := Default()
	a := sim.RNG(7, "retry/a")
	b := sim.RNG(7, "retry/b")
	same := 0
	for n := 1; n <= 8; n++ {
		if p.Backoff(a, n) == p.Backoff(b, n) {
			same++
		}
	}
	if same == 8 {
		t.Error("independent streams produced identical jitter on every draw")
	}
}
