package telemetry

import (
	"bufio"
	"io"
	"sort"
	"strconv"
	"sync"
)

// Trace streams Chrome trace-event JSON (the "JSON Array Format" that
// Perfetto and chrome://tracing load). Events are written as they are
// emitted, so arbitrarily long runs never buffer the whole trace in memory.
//
// The simulator maps model time onto trace time at one cycle per
// microsecond: Perfetto's timeline then reads directly in cycles.
//
// Track layout convention (see AttachMachine): one thread per threadlet
// context carrying epoch spans and squash/conflict instants, plus counter
// tracks for per-interval commit-slot attribution.
//
// Emission is serialised internally, so several MachineTracers on different
// goroutines (the parallel-in-time windows of a sampled run, each on its own
// trace pid) can share one Trace.
type Trace struct {
	mu     sync.Mutex
	w      *bufio.Writer
	closer io.Closer
	n      int    // events written
	buf    []byte // the event being encoded, reused across events
	err    error
}

// NewTrace starts a trace on w. If w is an io.Closer, Close closes it after
// finalising the JSON.
func NewTrace(w io.Writer) *Trace {
	t := &Trace{w: bufio.NewWriterSize(w, 64<<10)}
	if c, ok := w.(io.Closer); ok {
		t.closer = c
	}
	t.raw(`{"displayTimeUnit":"ms","traceEvents":[`)
	return t
}

// Err returns the first write error, if any.
func (t *Trace) Err() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.err
}

// Close finalises the JSON document and closes the underlying writer when it
// is an io.Closer.
func (t *Trace) Close() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.raw("\n]}\n")
	if err := t.w.Flush(); err != nil && t.err == nil {
		t.err = err
	}
	if t.closer != nil {
		if err := t.closer.Close(); err != nil && t.err == nil {
			t.err = err
		}
	}
	return t.err
}

func (t *Trace) raw(s string) {
	if t.err != nil {
		return
	}
	if _, err := t.w.WriteString(s); err != nil {
		t.err = err
	}
}

// event writes one trace event object; body is the event's fields after the
// common ones, already JSON-encoded. It is the single funnel for every
// emission, so the lock here serialises concurrent tracers.
func (t *Trace) event(ph string, pid, tid int, ts int64, name, body string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.write(append(t.head(ph, pid, tid, ts, name), body...))
}

// eventBytes is event with the body in a byte slice.
func (t *Trace) eventBytes(ph string, pid, tid int, ts int64, name string, body []byte) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.write(append(t.head(ph, pid, tid, ts, name), body...))
}

// head encodes an event's separator and common fields into t.buf, leaving
// the object open for the body. t.mu must be held.
func (t *Trace) head(ph string, pid, tid int, ts int64, name string) []byte {
	b := t.buf[:0]
	if t.n > 0 {
		b = append(b, ',')
	}
	t.n++
	b = append(b, "\n{\"ph\":"...)
	b = strconv.AppendQuote(b, ph)
	b = append(b, `,"pid":`...)
	b = strconv.AppendInt(b, int64(pid), 10)
	b = append(b, `,"tid":`...)
	b = strconv.AppendInt(b, int64(tid), 10)
	b = append(b, `,"ts":`...)
	b = strconv.AppendInt(b, ts, 10)
	b = append(b, `,"name":`...)
	return strconv.AppendQuote(b, name)
}

// write closes the encoded event b and writes it. t.mu must be held.
func (t *Trace) write(b []byte) {
	b = append(b, '}')
	t.buf = b
	if t.err != nil {
		return
	}
	if _, err := t.w.Write(b); err != nil {
		t.err = err
	}
}

// MetaProcess names a process track.
func (t *Trace) MetaProcess(pid int, name string) {
	t.event("M", pid, 0, 0, "process_name", `,"args":{"name":`+strconv.Quote(name)+`}`)
}

// MetaThread names a thread track within a process.
func (t *Trace) MetaThread(pid, tid int, name string) {
	t.event("M", pid, tid, 0, "thread_name", `,"args":{"name":`+strconv.Quote(name)+`}`)
}

// Begin opens a duration span on (pid, tid) at ts.
func (t *Trace) Begin(pid, tid int, ts int64, name string, args map[string]int64) {
	t.event("B", pid, tid, ts, name, encodeArgs(args))
}

// End closes the innermost open span on (pid, tid) at ts.
func (t *Trace) End(pid, tid int, ts int64) {
	t.event("E", pid, tid, ts, "", "")
}

// Instant emits a thread-scoped instant event.
func (t *Trace) Instant(pid, tid int, ts int64, name string, args map[string]int64) {
	t.event("i", pid, tid, ts, name, `,"s":"t"`+encodeArgs(args))
}

// Counter emits a counter sample; Perfetto renders the series as a stacked
// area chart. Series are emitted in sorted key order for determinism.
func (t *Trace) Counter(pid int, ts int64, name string, series map[string]int64) {
	t.event("C", pid, 0, ts, name, encodeArgs(series))
}

// Events returns the number of events written so far.
func (t *Trace) Events() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.n
}

func encodeArgs(args map[string]int64) string {
	if len(args) == 0 {
		return ""
	}
	keys := make([]string, 0, len(args))
	for k := range args {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	s := `,"args":{`
	for i, k := range keys {
		if i > 0 {
			s += ","
		}
		s += strconv.Quote(k) + ":" + strconv.FormatInt(args[k], 10)
	}
	return s + "}"
}
