package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// epoch anchors every timestamp the benchmark records: nanoseconds on the
// monotonic clock since process start, comparable across goroutines.
var epoch = time.Now()

func clock() int64 { return int64(time.Since(epoch)) }

// snapshot is the process and host state at one edge of a timed window.
type snapshot struct {
	wall    int64   // clock()
	cpu     float64 // process user+sys CPU seconds (getrusage)
	steal   uint64  // host steal jiffies (/proc/stat)
	total   uint64  // host total jiffies
	gcs     uint64  // completed GC cycles
	gcCPU   float64 // GC CPU seconds
	heapLiv uint64  // live heap bytes at the last GC
}

var runtimeSamples = []string{
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/gc/heap/live:bytes",
}

func takeSnapshot() snapshot {
	s := snapshot{wall: clock()}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		s.cpu = float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
	}
	s.steal, s.total = hostJiffies()
	ms := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		ms[i].Name = name
	}
	metrics.Read(ms)
	s.gcs = sampleUint(ms[0])
	if ms[1].Value.Kind() == metrics.KindFloat64 {
		s.gcCPU = ms[1].Value.Float64()
	}
	s.heapLiv = sampleUint(ms[2])
	return s
}

func sampleUint(s metrics.Sample) uint64 {
	if s.Value.Kind() == metrics.KindUint64 {
		return s.Value.Uint64()
	}
	return 0
}

// window is the difference between two snapshots.
type window struct {
	seconds  float64
	cpu      float64
	stealPct float64
	gcs      uint64
	gcCPU    float64
	// heapLive is the live heap at the last GC before the window closed
	// (the largest over accumulated windows).
	heapLive uint64
}

func between(a, b snapshot) window {
	w := window{
		seconds:  float64(b.wall-a.wall) / 1e9,
		cpu:      b.cpu - a.cpu,
		gcs:      b.gcs - a.gcs,
		gcCPU:    b.gcCPU - a.gcCPU,
		heapLive: b.heapLiv,
	}
	if dt := b.total - a.total; dt > 0 {
		w.stealPct = 100 * float64(b.steal-a.steal) / float64(dt)
	}
	return w
}

// add accumulates another window (the churn workload times several
// passes).
func (w *window) add(o window) {
	total := w.seconds + o.seconds
	if total > 0 {
		w.stealPct = (w.stealPct*w.seconds + o.stealPct*o.seconds) / total
	}
	w.seconds = total
	w.cpu += o.cpu
	w.gcs += o.gcs
	w.gcCPU += o.gcCPU
	w.heapLive = max(w.heapLive, o.heapLive)
}

// hostJiffies reads the aggregate steal and total CPU time from
// /proc/stat; zeros where the file is unavailable.
func hostJiffies() (steal, total uint64) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0, 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return 0, 0
	}
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, v := range fields[1:] {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return 0, 0
		}
		// guest and guest_nice (fields 9-10) are already part of user
		// and nice.
		if i < 8 {
			total += n
		}
		if i == 7 {
			steal = n
		}
	}
	return steal, total
}

// liveHeap forces collection and returns the live heap. Objects with
// finalizers (closed files) are only freed by the cycle after their
// finalizer ran, and sync.Pool victim caches by the second cycle, so it
// collects, lets the finalizer goroutine run, and collects twice more.
func liveHeap() uint64 {
	runtime.GC()
	time.Sleep(10 * time.Millisecond)
	runtime.GC()
	runtime.GC()
	ms := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(ms)
	return sampleUint(ms[0])
}

// fsType names the filesystem holding dir, from its statfs magic.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53:     "ext4",
		0x01021994: "tmpfs",
		0x794c7630: "overlayfs",
		0x58465342: "xfs",
		0x9123683E: "btrfs",
		0x6969:     "nfs",
		0x65735546: "fuse",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}

// flushDirty writes back every dirty page (sync), so checkpoints left
// by input preparation or by an earlier run are not written back inside
// a timed window.
func flushDirty() { syscall.Sync() }

// envRecord describes the host a run measured, so a later comparison can
// tell a noisy host from a regression.
func envRecord(checkpointFS string, w window) string {
	return fmt.Sprintf("env: gomaxprocs=%d nproc=%d go=%s checkpoint_fs=%s host.steal_pct=%.2f",
		runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version(), checkpointFS, w.stealPct)
}
