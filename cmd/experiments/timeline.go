package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"time"

	"netbatch/internal/obs"
)

// timeline draws the run log as a Chrome trace_event timeline, the JSON
// Perfetto and chrome://tracing load. It stamps each record on arrival
// and gives each cell one process, "cell <label>", with one "serial"
// lane: a "run" span from cell_start to cell_done, covering the cell's
// whole sim.Run, with its events; and a "checkpoint" span per checkpoint
// record, ending on arrival and reaching back over the capture,
// encoding and file write the record reports, with the file's bytes.
// A RunLog calls Write under its lock, one record per call.
type timeline struct {
	start time.Time
	cells []*timelineCell
	index map[string]*timelineCell
}

// A timelineCell is one cell's lane: its spans, and which is its run.
type timelineCell struct {
	label string
	spans []timelineSpan
	run   int
}

type timelineSpan struct {
	name, arg  string
	start, end time.Duration
	val        int64
}

func newTimeline() *timeline {
	return &timeline{start: time.Now(), index: map[string]*timelineCell{}}
}

// Write reads one run-log record.
func (tl *timeline) Write(p []byte) (int, error) {
	now := time.Since(tl.start)
	var rec obs.RunRecord
	if err := json.Unmarshal(p, &rec); err != nil {
		return 0, fmt.Errorf("timeline: run log record: %w", err)
	}
	c := tl.index[rec.Cell]
	switch {
	case rec.Type == "cell_start":
		if c == nil {
			c = &timelineCell{label: rec.Cell}
			tl.index[rec.Cell] = c
			tl.cells = append(tl.cells, c)
		}
		c.run = len(c.spans)
		c.spans = append(c.spans, timelineSpan{name: "run", arg: "events", start: now, end: now})
	case c == nil: // only cell_start opens a cell
	case rec.Type == "cell_done":
		c.spans[c.run].end, c.spans[c.run].val = now, rec.Events
	case rec.Type == "checkpoint":
		took := time.Duration((rec.CaptureMS + rec.WriteMS) * float64(time.Millisecond))
		start := max(now-took, c.spans[c.run].start)
		c.spans = append(c.spans, timelineSpan{name: "checkpoint", arg: "bytes", start: start, end: now, val: rec.Bytes})
	}
	return len(p), nil
}

// WriteJSON writes {"traceEvents":[...],"displayTimeUnit":"ms"}, with
// process_name and thread_name metadata so viewers label every lane,
// and times in microseconds.
func (tl *timeline) WriteJSON(w io.Writer) error {
	bw := bufio.NewWriter(w)
	bw.WriteString(`{"traceEvents":[`)
	sep := ""
	emit := func(format string, args ...any) {
		bw.WriteString(sep)
		sep = ",\n"
		fmt.Fprintf(bw, format, args...)
	}
	for i, c := range tl.cells {
		pid := i + 1
		emit(`{"name":"process_name","ph":"M","pid":%d,"tid":0,"args":{"name":%q}}`, pid, "cell "+c.label)
		emit(`{"name":"thread_name","ph":"M","pid":%d,"tid":1,"args":{"name":"serial"}}`, pid)
		for _, s := range c.spans {
			ts, end := s.start.Microseconds(), s.end.Microseconds()
			emit(`{"name":%q,"ph":"X","ts":%d,"dur":%d,"pid":%d,"tid":1,"args":{%q:%d}}`, s.name, ts, end-ts, pid, s.arg, s.val)
		}
	}
	bw.WriteString("],\"displayTimeUnit\":\"ms\"}\n")
	return bw.Flush()
}
