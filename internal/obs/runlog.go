package obs

import (
	"encoding/json"
	"io"
	"sync"
)

// A RunRecord is one line of the JSONL run log. Type is "cell_start",
// "progress", "checkpoint", "cell_done", or "metrics"; the other fields
// are populated as applicable.
type RunRecord struct {
	Type         string   `json:"type"`
	Cell         string   `json:"cell,omitempty"`    // scenario/policy/replicate label
	WallMS       float64  `json:"wall_ms,omitempty"` // wall time since cell start
	SimTime      float64  `json:"t_sim,omitempty"`   // simulated-time frontier, minutes
	Events       int64    `json:"events,omitempty"`
	EventsPerSec float64  `json:"events_per_sec,omitempty"`
	ETASec       float64  `json:"eta_s,omitempty"`      // crude horizon-proportional estimate
	Bytes        int64    `json:"bytes,omitempty"`      // checkpoint file size
	CaptureMS    float64  `json:"capture_ms,omitempty"` // checkpoint capture and encoding
	WriteMS      float64  `json:"write_ms,omitempty"`   // checkpoint file write
	Err          string   `json:"err,omitempty"`
	Metrics      []Metric `json:"metrics,omitempty"` // registry snapshot ("metrics" records)
}

// A RunLog serializes records as JSON lines to a writer, safe for
// concurrent emitters (experiment cells run on a worker pool). The
// nil RunLog discards everything.
type RunLog struct {
	mu sync.Mutex
	w  io.Writer
}

// NewRunLog returns a run log writing to w.
func NewRunLog(w io.Writer) *RunLog {
	return &RunLog{w: w}
}

// Emit marshals rec and appends it as one line. No-op on a nil
// receiver; marshal or write errors are returned but safe to ignore
// (telemetry must never fail a run).
func (l *RunLog) Emit(rec RunRecord) error {
	if l == nil {
		return nil
	}
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	b = append(b, '\n')
	l.mu.Lock()
	defer l.mu.Unlock()
	_, err = l.w.Write(b)
	return err
}
