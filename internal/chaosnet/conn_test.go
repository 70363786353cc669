package chaosnet

import (
	"errors"
	"math/rand"
	"net"
	"testing"
	"time"

	"coreda/internal/wire"
)

// pump writes n heartbeat frames through a faulty conn on one side of a
// pipe and decodes with a resynchronizing wire.Reader on the other.
func pump(t *testing.T, plan ConnPlan, n int) (decoded int, writeErr error) {
	t.Helper()
	client, server := net.Pipe()
	defer client.Close()
	defer server.Close()

	faulty := Wrap(client, plan, rand.New(rand.NewSource(42)))
	done := make(chan int)
	go func() {
		r := wire.NewReader(server)
		var f wire.Frame
		got := 0
		for got < n {
			if err := r.ReadFrame(&f); err != nil {
				break
			}
			got++
		}
		done <- got
	}()

	for i := 0; i < n; i++ {
		frame, err := wire.Encode(&wire.Heartbeat{UID: 1, Seq: uint16(i + 1), Battery: 90})
		if err != nil {
			t.Fatalf("Encode: %v", err)
		}
		if _, err := faulty.Write(frame); err != nil {
			writeErr = err
			break
		}
	}
	client.Close()
	select {
	case decoded = <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("reader did not finish")
	}
	return decoded, writeErr
}

func TestSplitFramesReassemble(t *testing.T) {
	got, err := pump(t, ConnPlan{SplitMax: 3}, 20)
	if err != nil {
		t.Fatalf("write: %v", err)
	}
	if got != 20 {
		t.Errorf("decoded %d/20 frames split into 3-byte chunks", got)
	}
}

func TestGarbageIsResynced(t *testing.T) {
	got, err := pump(t, ConnPlan{Garbage: 1, GarbageLen: 9}, 20)
	if err != nil {
		t.Fatalf("write: %v", err)
	}
	if got != 20 {
		t.Errorf("decoded %d/20 frames with garbage before each", got)
	}
}

func TestSplitAndGarbageTogether(t *testing.T) {
	got, err := pump(t, ConnPlan{SplitMax: 2, Garbage: 0.5}, 30)
	if err != nil {
		t.Fatalf("write: %v", err)
	}
	if got != 30 {
		t.Errorf("decoded %d/30 frames under split+garbage", got)
	}
}

func TestResetAfterClosesConn(t *testing.T) {
	got, err := pump(t, ConnPlan{ResetAfter: 5}, 20)
	if !errors.Is(err, net.ErrClosed) {
		t.Errorf("write error = %v, want net.ErrClosed", err)
	}
	if got != 5 {
		t.Errorf("decoded %d frames, want exactly the 5 before the reset", got)
	}
}

func TestZeroPlanPassesThrough(t *testing.T) {
	got, err := pump(t, ConnPlan{}, 10)
	if err != nil {
		t.Fatalf("write: %v", err)
	}
	if got != 10 {
		t.Errorf("decoded %d/10 frames through a zero plan", got)
	}
}

func TestStallDelaysWrites(t *testing.T) {
	got, err := pump(t, ConnPlan{StallEvery: 3, Stall: time.Millisecond}, 9)
	if err != nil {
		t.Fatalf("write: %v", err)
	}
	if got != 9 {
		t.Errorf("decoded %d/9 frames with periodic stalls", got)
	}
}
