package main

import (
	"bufio"
	"encoding/json"
	"net"
	"os"
	"sync"
	"sync/atomic"

	"coreda/internal/notify"
	"coreda/internal/store"
	"coreda/internal/wire"
)

// spanCap bounds how many spans one traced run keeps in memory (and
// writes out). Per-layer metrics are computed from the full samples,
// not from the kept spans.
const spanCap = 200_000

// span is one timed interval at a layer boundary. Spans of one report
// share Trace, "household/seq" of the report they belong to.
type span struct {
	Trace  string `json:"trace"`
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	mu      sync.Mutex
	spans   []span
	dropped int
}

// add records a span and returns its ID (0 when the cap dropped it).
func (t *tracer) add(trace string, parent int, name string, start, end int64) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= spanCap {
		t.dropped++
		return 0
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{Trace: trace, ID: id, Parent: parent, Name: name, Start: start, End: end})
	return id
}

// write stores the spans as JSON lines at path.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// wireStats is what the traced listener saw on the server side of every
// gateway connection.
type wireStats struct {
	reads, writes, bytes atomic.Int64

	mu      sync.Mutex
	writeNS []float64
	// startRead holds, per household, when the wrapped Read that
	// completed each UsageStart frame returned, in arrival order.
	startRead map[string][]int64
}

func newWireStats() *wireStats { return &wireStats{startRead: make(map[string][]int64)} }

// tracedListener hands Server.Serve connections that count and time
// every Read and Write the server makes.
type tracedListener struct {
	net.Listener
	st *wireStats
}

func (l tracedListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &tracedConn{Conn: c, st: l.st}, nil
}

// tracedConn reassembles the frames the server reads, so it knows when
// a UsageStart has been fully read and for which household.
type tracedConn struct {
	net.Conn
	st        *wireStats
	frame     []byte
	parsed    wire.Frame
	household string
}

func (c *tracedConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	now := clock()
	c.st.reads.Add(1)
	c.st.bytes.Add(int64(n))
	for _, b := range p[:n] {
		c.feed(b, now)
	}
	return n, err
}

// feed appends one byte to the frame being assembled, mirroring the
// wire reader: hunt for the magic byte, then read the length-prefixed
// payload and CRC.
func (c *tracedConn) feed(b byte, now int64) {
	if len(c.frame) == 0 && b != wire.Magic {
		return
	}
	c.frame = append(c.frame, b)
	if len(c.frame) < 4 {
		return
	}
	n := int(c.frame[3])
	if n > wire.MaxPayload {
		c.frame = c.frame[:0]
		return
	}
	if len(c.frame) < 6+n {
		return
	}
	if wire.DecodeInto(&c.parsed, c.frame) == nil {
		switch c.parsed.Kind {
		case wire.TypeHello:
			c.household = c.parsed.Hello.Household
		case wire.TypeUsageStart:
			c.st.mu.Lock()
			c.st.startRead[c.household] = append(c.st.startRead[c.household], now)
			c.st.mu.Unlock()
		}
	}
	c.frame = c.frame[:0]
}

func (c *tracedConn) Write(p []byte) (int, error) {
	t0 := clock()
	n, err := c.Conn.Write(p)
	d := clock() - t0
	c.st.writes.Add(1)
	c.st.bytes.Add(int64(n))
	c.st.mu.Lock()
	c.st.writeNS = append(c.st.writeNS, float64(d))
	c.st.mu.Unlock()
	return n, err
}

// timedBackend counts and times every checkpoint read and write the
// fleet makes through a store.Backend.
type timedBackend struct {
	store.Backend
	tr *tracer

	mu        sync.Mutex
	puts      int
	fsyncPuts int
	putBytes  int64
	putNS     []float64
	gets      int
	getNS     []float64
}

func (b *timedBackend) Get(name string, check func([]byte) error) ([]byte, error) {
	t0 := clock()
	data, err := b.Backend.Get(name, check)
	t1 := clock()
	b.tr.add(name, 0, "store.get", t0, t1)
	b.mu.Lock()
	b.gets++
	b.getNS = append(b.getNS, float64(t1-t0))
	b.mu.Unlock()
	return data, err
}

func (b *timedBackend) Put(name string, data []byte, fsync bool) error {
	t0 := clock()
	err := b.Backend.Put(name, data, fsync)
	b.putDone(name, t0, int64(len(data)), fsync)
	return err
}

func (b *timedBackend) PutStream(name string, fsync bool) (store.BlobWriter, error) {
	t0 := clock()
	w, err := b.Backend.PutStream(name, fsync)
	if err != nil {
		return nil, err
	}
	return &timedWriter{BlobWriter: w, b: b, name: name, start: t0, fsync: fsync}, nil
}

func (b *timedBackend) putDone(name string, t0, size int64, fsync bool) {
	t1 := clock()
	b.tr.add(name, 0, "store.put", t0, t1)
	b.mu.Lock()
	b.puts++
	if fsync {
		b.fsyncPuts++
	}
	b.putBytes += size
	b.putNS = append(b.putNS, float64(t1-t0))
	b.mu.Unlock()
}

// timedWriter times a streamed put from PutStream to Commit.
type timedWriter struct {
	store.BlobWriter
	b     *timedBackend
	name  string
	start int64
	size  int64
	fsync bool
}

func (w *timedWriter) Write(p []byte) (int, error) {
	n, err := w.BlobWriter.Write(p)
	w.size += int64(n)
	return n, err
}

func (w *timedWriter) Commit() error {
	err := w.BlobWriter.Commit()
	w.b.putDone(w.name, w.start, w.size, w.fsync)
	return err
}

// hubTrace records, on the shard loop that owns a household, when the
// System hooks fired: every non-idle step and every reminder.
type hubTrace struct {
	steps     []int64
	reminders []int64
}

// busCounter subscribes to the fleet's control-plane bus and counts the
// checkpoint waves it announces.
type busCounter struct {
	bus   *notify.Bus
	l     *notify.Listener
	done  chan struct{}
	waves int
}

func newBusCounter() *busCounter {
	b := &busCounter{bus: notify.NewBus(), done: make(chan struct{})}
	// Large enough that a checkpoint wave per shard per drain never
	// overflows between two receives.
	b.l = b.bus.Subscribe(4096, notify.CheckpointDone, notify.WritebackFailed)
	go func() {
		defer close(b.done)
		for ev := range b.l.C() {
			if ev.Kind == notify.CheckpointDone {
				b.waves++
			}
		}
	}()
	return b
}

// busOrNil is the bus to hand the fleet; nil when not tracing.
func (b *busCounter) busOrNil() *notify.Bus {
	if b == nil {
		return nil
	}
	return b.bus
}

// close stops the subscriber and waits for it; safe to call twice.
func (b *busCounter) close() {
	b.l.Close()
	<-b.done
}

// layers reports the waves and the bus's drops; call after the fleet
// stopped.
func (b *busCounter) layers(L map[string]float64) {
	b.close()
	L["notify.checkpoint_waves"] = float64(b.waves)
	L["notify.dropped"] = float64(b.bus.Stats().Dropped)
}
