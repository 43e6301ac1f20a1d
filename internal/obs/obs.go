// Package obs holds the run-level observability sinks: a metrics
// registry (counters and gauges) and a JSONL run log. The experiments
// runner records into them from the facts the simulator reports
// (sim.Result counters, each sim.Checkpoint's wall time, the
// sim.Config.Progress hook); the simulator itself imports nothing
// from here. Consumers read the run log's stream: cmd/experiments
// writes it to a file, mirrors its progress records to stderr and
// draws its -timeline from it.
//
// Every handle (*Registry, *Counter, *Gauge, *RunLog) treats a nil
// receiver as "observability disabled" and returns immediately, so a
// disabled run records nothing and allocates nothing.
//
// Nothing in this package may influence simulation behavior: metrics
// and run logs attribute wall-clock execution, not simulated time, and
// are excluded from the simulator's bit-identity contract.
package obs

import (
	"sort"
	"sync"
	"sync/atomic"
)

// A Counter is a monotonically increasing sum, safe for concurrent
// use. The nil Counter discards all updates.
type Counter struct{ v atomic.Int64 }

// Add adds n to the counter. No-op on a nil receiver.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current sum; 0 on a nil receiver.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// A Gauge records a high-water mark, safe for concurrent use. The nil
// Gauge discards all updates.
type Gauge struct{ v atomic.Int64 }

// Max raises the gauge to n if n exceeds the current value — the
// high-water-mark update used for queue depths. No-op on nil.
func (g *Gauge) Max(n int64) {
	if g == nil {
		return
	}
	for {
		cur := g.v.Load()
		if n <= cur || g.v.CompareAndSwap(cur, n) {
			return
		}
	}
}

// Value returns the current level; 0 on a nil receiver.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// A Registry names and owns metrics. The zero value is unusable; use
// NewRegistry. A nil *Registry is the disabled sink: every getter
// returns a nil handle, so resolution and recording both no-op.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
	}
}

// Counter returns the named counter, creating it on first use; nil on
// a nil receiver.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use; nil on a
// nil receiver.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// A Metric is one registry entry at snapshot time.
type Metric struct {
	Name  string `json:"name"`
	Kind  string `json:"kind"` // "counter" | "gauge"
	Value int64  `json:"value"`
}

// Snapshot returns every metric sorted by name — a deterministic
// ordering so snapshots diff cleanly. Nil on a nil receiver.
// Concurrent recorders may still be running; each value is an
// independently atomic read.
func (r *Registry) Snapshot() []Metric {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Metric, 0, len(r.counters)+len(r.gauges))
	for name, c := range r.counters {
		out = append(out, Metric{Name: name, Kind: "counter", Value: c.Value()})
	}
	for name, g := range r.gauges {
		out = append(out, Metric{Name: name, Kind: "gauge", Value: g.Value()})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
