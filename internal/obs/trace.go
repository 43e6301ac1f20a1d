package obs

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"sync"
	"time"
)

// A Tracer accumulates a Chrome trace_event timeline (the JSON format
// Perfetto and chrome://tracing load). Timestamps are wall-clock
// microseconds since the tracer was created: the timeline attributes
// real execution time, not simulated time.
//
// Structure mirrors the trace viewer's model: a Tracer holds
// Processes (one per experiment cell), a Process holds Tracks (the
// simulation's one "serial" track), and a Track holds events: a "run"
// span per simulation and a span per checkpoint capture. Cells run
// concurrently under a matrix worker pool, each recording into its
// own Process. Track event buffers are single-writer by contract —
// only the simulation loop that created a track appends to it — so
// recording takes no locks; Process/Track creation is rare and
// mutex-guarded.
//
// A nil Tracer/Process/Track no-ops on every method, so callers
// record unconditionally.
type Tracer struct {
	start time.Time
	mu    sync.Mutex
	procs []*Process
}

// NewTracer returns a tracer whose clock starts now.
func NewTracer() *Tracer {
	return &Tracer{start: time.Now()}
}

// A Process is one top-level group of tracks in the trace viewer.
type Process struct {
	t      *Tracer
	name   string
	pid    int
	mu     sync.Mutex
	tracks []*Track
}

// Process creates a named process group; nil on a nil receiver.
func (t *Tracer) Process(name string) *Process {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	p := &Process{t: t, name: name, pid: len(t.procs) + 1}
	t.procs = append(t.procs, p)
	return p
}

// A Track is one horizontal lane of events. All appends must come
// from a single goroutine (the lane's owner); reads happen only in
// WriteJSON after the run has quiesced.
type Track struct {
	p      *Process
	name   string
	tid    int
	events []traceEvent
}

// Track creates a named lane in creation order; nil on a nil
// receiver.
func (p *Process) Track(name string) *Track {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	tk := &Track{p: p, name: name, tid: len(p.tracks) + 1}
	p.tracks = append(p.tracks, tk)
	return tk
}

// An Arg is an optional integer annotation on a span.
type Arg struct {
	Key string
	Val int64
}

type traceEvent struct {
	name string
	ts   int64
	dur  int64
	args []Arg
}

// Now returns the current trace timestamp (µs since tracer start);
// 0 on a nil receiver. Capture it before an operation and pass it to
// Span after.
func (tk *Track) Now() int64 {
	if tk == nil {
		return 0
	}
	return int64(time.Since(tk.p.t.start) / time.Microsecond)
}

// Span records a complete event ("ph":"X") from start (a Now value)
// to the current time. No-op on a nil receiver.
func (tk *Track) Span(name string, start int64, args ...Arg) {
	if tk == nil {
		return
	}
	now := tk.Now()
	if now < start {
		now = start
	}
	tk.events = append(tk.events, traceEvent{name: name, ts: start, dur: now - start, args: args})
}

// WriteJSON emits the accumulated timeline as a Chrome trace_event
// JSON object: {"traceEvents":[...],"displayTimeUnit":"ms"}, with
// process_name/thread_name metadata so viewers label every lane.
// Call only after all recording goroutines have finished. A nil
// tracer writes an empty (but valid) trace.
func (t *Tracer) WriteJSON(w io.Writer) error {
	bw := bufio.NewWriter(w)
	bw.WriteString("{\"traceEvents\":[")
	first := true
	emit := func(s string) {
		if !first {
			bw.WriteString(",\n")
		}
		first = false
		bw.WriteString(s)
	}
	if t != nil {
		t.mu.Lock()
		procs := append([]*Process(nil), t.procs...)
		t.mu.Unlock()
		for _, p := range procs {
			emit(fmt.Sprintf("{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,\"tid\":0,\"args\":{\"name\":%s}}",
				p.pid, strconv.Quote(p.name)))
			p.mu.Lock()
			tracks := append([]*Track(nil), p.tracks...)
			p.mu.Unlock()
			for _, tk := range tracks {
				emit(fmt.Sprintf("{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":%d,\"tid\":%d,\"args\":{\"name\":%s}}",
					p.pid, tk.tid, strconv.Quote(tk.name)))
				for _, ev := range tk.events {
					emit(renderEvent(p.pid, tk.tid, ev))
				}
			}
		}
	}
	bw.WriteString("],\"displayTimeUnit\":\"ms\"}\n")
	return bw.Flush()
}

func renderEvent(pid, tid int, ev traceEvent) string {
	var args string
	if len(ev.args) > 0 {
		args = ",\"args\":{"
		for i, a := range ev.args {
			if i > 0 {
				args += ","
			}
			args += fmt.Sprintf("%s:%d", strconv.Quote(a.Key), a.Val)
		}
		args += "}"
	}
	return fmt.Sprintf("{\"name\":%s,\"ph\":\"X\",\"ts\":%d,\"dur\":%d,\"pid\":%d,\"tid\":%d%s}",
		strconv.Quote(ev.name), ev.ts, ev.dur, pid, tid, args)
}
