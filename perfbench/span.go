package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"time"

	"netbatch/internal/obs"
)

// A span is one timed call the benchmark made into a layer, or one
// cell the matrix runner reported through its run log.
type span struct {
	Name   string // "<layer>.<operation>"; the layer is the text before the first dot
	ID     string // shared id: the cell label, else the plan or scenario it serves
	Parent int    // index of the enclosing span, -1 for a root
	Start  time.Duration
	End    time.Duration
	Args   map[string]float64
}

// layer names the module a span's time belongs to.
func (s *span) layer() string {
	if i := strings.IndexByte(s.Name, '.'); i >= 0 {
		return s.Name[:i]
	}
	return s.Name
}

// A tracer keeps spans in memory until the run ends. The nil tracer is
// the untraced mode: begin returns -1 and end does nothing, so the
// timed code records unconditionally.
type tracer struct {
	epoch time.Time
	reg   *obs.Registry // registry counter deltas attach to benchmark spans

	mu    sync.Mutex
	spans []span
	open  map[int]*spanStart
}

// spanStart is what a benchmark span samples when it opens, so that it
// can attach deltas when it closes.
type spanStart struct {
	rt  []metrics.Sample
	reg map[string]int64
}

// runtimeDeltas are the runtime/metrics every benchmark span carries.
var runtimeDeltas = []struct{ name, arg string }{
	{"/gc/heap/allocs:bytes", "alloc_bytes"},
	{"/gc/cycles/total:gc-cycles", "gc_cycles"},
	{"/cpu/classes/gc/total:cpu-seconds", "gc_cpu_s"},
}

func newTracer(reg *obs.Registry) *tracer {
	return &tracer{epoch: time.Now(), reg: reg, open: map[int]*spanStart{}}
}

func readRuntime() []metrics.Sample {
	s := make([]metrics.Sample, len(runtimeDeltas))
	for i, d := range runtimeDeltas {
		s[i].Name = d.name
	}
	metrics.Read(s)
	return s
}

func sampleValue(s metrics.Sample) float64 {
	switch s.Value.Kind() {
	case metrics.KindUint64:
		return float64(s.Value.Uint64())
	case metrics.KindFloat64:
		return s.Value.Float64()
	}
	return 0
}

func counters(reg *obs.Registry) map[string]int64 {
	out := map[string]int64{}
	for _, m := range reg.Snapshot() {
		if m.Kind == "counter" {
			out[m.Name] = m.Value
		}
	}
	return out
}

// begin opens a benchmark span and samples runtime/metrics and the
// registry's counters.
func (t *tracer) begin(name, id string, parent int) int {
	if t == nil {
		return -1
	}
	st := &spanStart{rt: readRuntime(), reg: counters(t.reg)}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Start: time.Since(t.epoch), Args: map[string]float64{}})
	i := len(t.spans) - 1
	t.open[i] = st
	return i
}

// end closes a benchmark span and attaches the runtime/metrics and
// registry counter deltas it covered.
func (t *tracer) end(i int) {
	if t == nil {
		return
	}
	rt, reg := readRuntime(), counters(t.reg)
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[i]
	s.End = time.Since(t.epoch)
	st := t.open[i]
	delete(t.open, i)
	for k, d := range runtimeDeltas {
		if v := sampleValue(rt[k]) - sampleValue(st.rt[k]); v != 0 {
			s.Args[d.arg] = v
		}
	}
	for name, v := range reg {
		if dv := v - st.reg[name]; dv != 0 {
			s.Args[name] = float64(dv)
		}
	}
}

// setArg annotates a span.
func (t *tracer) setArg(i int, key string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[i].Args[key] = v
}

// add records a span whose interval is already known.
func (t *tracer) add(s span) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, s)
	return len(t.spans) - 1
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// cellLog turns the matrix runner's run-log records into per-cell
// spans: a cell_start record opens a span under the current parent and
// the matching cell_done record closes it with the cell's event count.
// Its Write is called under the run log's lock, one record per call.
type cellLog struct {
	t      *tracer
	parent int
	open   map[string]int
}

func newCellLog(t *tracer) *cellLog {
	return &cellLog{t: t, parent: -1, open: map[string]int{}}
}

func (c *cellLog) Write(p []byte) (int, error) {
	var rec obs.RunRecord
	if err := json.Unmarshal(p, &rec); err != nil {
		return 0, fmt.Errorf("run log record: %w", err)
	}
	now := time.Since(c.t.epoch)
	switch rec.Type {
	case "cell_start":
		c.open[rec.Cell] = c.t.add(span{Name: "sim.cell", ID: rec.Cell, Parent: c.parent, Start: now, Args: map[string]float64{}})
	case "cell_done":
		i, ok := c.open[rec.Cell]
		if !ok {
			return 0, fmt.Errorf("run log: cell_done for %s without cell_start", rec.Cell)
		}
		delete(c.open, rec.Cell)
		c.t.mu.Lock()
		c.t.spans[i].End = now
		c.t.spans[i].Args["events"] = float64(rec.Events)
		c.t.spans[i].Args["wall_ms"] = rec.WallMS
		c.t.mu.Unlock()
	}
	return len(p), nil
}

// selfTimes splits the interval of span root among the layers of its
// subtree. Every instant goes to the innermost spans open at that
// instant, shared equally when several are open at once (cells running
// side by side on matrix workers), so the layer totals sum to the
// root's duration. Instants whose innermost span belongs to the
// benchmark itself (layer "bench") are reported as "unattributed".
func selfTimes(spans []span, root int) map[string]float64 {
	in := make([]bool, len(spans))
	for i := range spans {
		for j := i; j >= 0; j = spans[j].Parent {
			if j == root {
				in[i] = true
				break
			}
		}
	}
	lo, hi := spans[root].Start, spans[root].End
	clip := func(d time.Duration) time.Duration { return max(lo, min(hi, d)) }
	var cuts []time.Duration
	for i := range spans {
		if in[i] {
			cuts = append(cuts, clip(spans[i].Start), clip(spans[i].End))
		}
	}
	sort.Slice(cuts, func(a, b int) bool { return cuts[a] < cuts[b] })
	out := map[string]float64{}
	inner := make([]bool, len(spans))
	for k := 1; k < len(cuts); k++ {
		a, b := cuts[k-1], cuts[k]
		if b <= a {
			continue
		}
		// Open spans cover all of [a, b); an open span is innermost
		// unless one of its children is open too.
		for i := range spans {
			inner[i] = in[i] && spans[i].Start <= a && spans[i].End >= b
		}
		for i := range spans {
			if in[i] && i != root && spans[i].Start <= a && spans[i].End >= b {
				inner[spans[i].Parent] = false
			}
		}
		n := 0
		for i := range spans {
			if inner[i] {
				n++
			}
		}
		share := (b - a).Seconds() / float64(n)
		for i := range spans {
			if inner[i] {
				l := spans[i].layer()
				if l == "bench" {
					l = "unattributed"
				}
				out[l] += share
			}
		}
	}
	return out
}

// writeChromeTrace writes spans as Chrome trace_event JSON. Spans go
// to the lowest lane (tid) where they nest inside the lane's open span,
// so side-by-side cells land on separate lanes.
func writeChromeTrace(w io.Writer, spans []span) error {
	order := make([]int, len(spans))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return spans[order[a]].Start < spans[order[b]].Start })
	var lanes [][]int // per lane, the stack of open spans
	tid := make([]int, len(spans))
	for _, i := range order {
		s := spans[i]
		placed := false
		for l := range lanes {
			st := lanes[l]
			for len(st) > 0 && spans[st[len(st)-1]].End <= s.Start {
				st = st[:len(st)-1]
			}
			lanes[l] = st
			if len(st) == 0 || (spans[st[len(st)-1]].End >= s.End && isAncestor(spans, st[len(st)-1], i)) {
				lanes[l] = append(st, i)
				tid[i] = l + 1
				placed = true
				break
			}
		}
		if !placed {
			lanes = append(lanes, []int{i})
			tid[i] = len(lanes)
		}
	}
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	events := make([]event, 0, len(spans))
	for i, s := range spans {
		args := map[string]any{"span": i, "parent": s.Parent, "id": s.ID}
		for k, v := range s.Args {
			args[k] = v
		}
		events = append(events, event{
			Name: s.Name, Ph: "X", Pid: 1, Tid: tid[i], Args: args,
			Ts:  float64(s.Start.Nanoseconds()) / 1e3,
			Dur: float64((s.End - s.Start).Nanoseconds()) / 1e3,
		})
	}
	bw := bufio.NewWriter(w)
	if err := json.NewEncoder(bw).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"}); err != nil {
		return err
	}
	return bw.Flush()
}

func isAncestor(spans []span, a, i int) bool {
	for j := spans[i].Parent; j >= 0; j = spans[j].Parent {
		if j == a {
			return true
		}
	}
	return false
}
