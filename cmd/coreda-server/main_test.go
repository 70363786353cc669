package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"coreda"
	"coreda/internal/adl"
	"coreda/internal/rtbridge"
	"coreda/internal/store"
)

// procOutput collects a child process's combined output; safe for
// concurrent writes from the process and polling reads from the test.
type procOutput struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (p *procOutput) Write(b []byte) (int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.buf.Write(b)
}

func (p *procOutput) String() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.buf.String()
}

func awaitOutput(t *testing.T, out *procOutput, substr string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !strings.Contains(out.String(), substr) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %q in output:\n%s", substr, out.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// awaitAddr extracts the bound listen address from the server banner:
// "coreda-server: tea-making on 127.0.0.1:PORT (mode learn, speed 200x)".
func awaitAddr(t *testing.T, out *procOutput) string {
	t.Helper()
	awaitOutput(t, out, " on 127.0.0.1:")
	for _, line := range strings.Split(out.String(), "\n") {
		if !strings.Contains(line, " on 127.0.0.1:") {
			continue
		}
		rest := line[strings.Index(line, " on ")+len(" on "):]
		return strings.Fields(rest)[0]
	}
	t.Fatalf("no listen banner in output:\n%s", out.String())
	return ""
}

func buildServer(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "coreda-server")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

func startServerProc(t *testing.T, bin string, args ...string) (*exec.Cmd, *procOutput) {
	t.Helper()
	out := &procOutput{}
	cmd := exec.Command(bin, args...)
	cmd.Stdout = out
	cmd.Stderr = out
	if err := cmd.Start(); err != nil {
		t.Fatalf("start server: %v", err)
	}
	t.Cleanup(func() {
		if cmd.ProcessState == nil {
			cmd.Process.Kill()
			cmd.Wait()
		}
	})
	return cmd, out
}

// TestKillAndRestartRecoversCheckpoint is the crash-safety acceptance
// test: SIGKILL the server mid-episode and verify a restart with the
// same flags resumes from the last periodic checkpoint — and that the
// recovered state it then saves is byte-for-byte that checkpoint.
func TestKillAndRestartRecoversCheckpoint(t *testing.T) {
	bin := buildServer(t)
	ckpt := filepath.Join(t.TempDir(), "policy.ckpt")
	args := []string{
		"-addr", "127.0.0.1:0", "-speed", "200", "-mode", "learn",
		"-save", ckpt, "-checkpoint", "50ms",
	}

	cmd, out := startServerProc(t, bin, args...)
	addr := awaitAddr(t, out)

	// One node client per tea-making tool, as cmd/coreda-node would run.
	steps := coreda.TeaMaking().StepIDs()
	nodes := map[adl.ToolID]*rtbridge.NodeClient{}
	for _, step := range steps {
		n, err := rtbridge.DialNode(addr, uint16(step), nil)
		if err != nil {
			t.Fatal(err)
		}
		defer n.Close()
		nodes[adl.ToolOf(step)] = n
	}
	use := func(step adl.StepID) {
		n := nodes[adl.ToolOf(step)]
		if err := n.UseStart(time.Second, 5); err != nil {
			t.Fatal(err)
		}
		if err := n.UseEnd(2*time.Second, time.Second); err != nil {
			t.Fatal(err)
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Complete one full episode, then start a second and abandon it —
	// the SIGKILL below lands mid-episode.
	for _, step := range steps {
		use(step)
	}
	for _, step := range steps[:2] {
		use(step)
	}

	// Wait for a periodic checkpoint that includes the finished episode.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if f, _, err := store.LoadPolicy(ckpt); err == nil && f.Episodes >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no checkpoint with a finished episode; output:\n%s", out.String())
		}
		time.Sleep(20 * time.Millisecond)
	}
	// Traffic has stopped; let the final state settle into a checkpoint
	// (several 50ms intervals) and snapshot it as the reference.
	time.Sleep(300 * time.Millisecond)
	want, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}

	// Power cut: no shutdown save, no warning.
	if err := cmd.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	cmd.Wait() // exits with the kill signal; only reaping matters
	for _, n := range nodes {
		n.Close()
	}

	// Restart with the same flags: the server must announce recovery,
	// serve, and on clean shutdown write back exactly the recovered state.
	cmd2, out2 := startServerProc(t, bin, args...)
	awaitOutput(t, out2, "recovered policy from checkpoint")
	awaitAddr(t, out2)
	if err := cmd2.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := cmd2.Wait(); err != nil {
		t.Fatalf("restarted server exited uncleanly: %v\n%s", err, out2.String())
	}

	got, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("recovered state differs from last checkpoint (%d vs %d bytes)", len(got), len(want))
	}
	f, _, err := store.LoadPolicy(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if f.Episodes < 1 {
		t.Errorf("recovered checkpoint has %d episodes, want >= 1", f.Episodes)
	}
}
