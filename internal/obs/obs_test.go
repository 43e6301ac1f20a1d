package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

// Every handle type must no-op on nil receivers — the disabled fast
// path instrumented code relies on.
func TestNilSafety(t *testing.T) {
	var r *Registry
	c, g := r.Counter("c"), r.Gauge("g")
	if c != nil || g != nil {
		t.Fatal("nil registry handed out non-nil handles")
	}
	c.Add(1)
	if c.Value() != 0 {
		t.Error("nil counter recorded")
	}
	g.Max(9)
	if g.Value() != 0 {
		t.Error("nil gauge recorded")
	}
	if r.Snapshot() != nil {
		t.Error("nil registry snapshot non-nil")
	}

	var tr *Tracer
	p := tr.Process("cell")
	if p != nil {
		t.Fatal("nil tracer handed out a process")
	}
	tk := p.Track("shard")
	if tk != nil {
		t.Fatal("nil process handed out a track")
	}
	tk.Span("x", tk.Now(), Arg{"n", 1})
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatalf("nil tracer WriteJSON: %v", err)
	}
	var out struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("nil tracer emitted invalid JSON: %v", err)
	}
	if len(out.TraceEvents) != 0 {
		t.Errorf("nil tracer emitted %d events", len(out.TraceEvents))
	}

	var l *RunLog
	if err := l.Emit(RunRecord{Type: "progress"}); err != nil {
		t.Errorf("nil runlog Emit: %v", err)
	}
}

func TestGaugeMax(t *testing.T) {
	g := NewRegistry().Gauge("g")
	g.Max(7)
	g.Max(3)
	if g.Value() != 7 {
		t.Errorf("high-water: got %d want 7", g.Value())
	}
}

// Many goroutines hammering the same names must neither race (run
// with -race) nor lose updates.
func TestConcurrentRecording(t *testing.T) {
	r := NewRegistry()
	const workers, per = 8, 10_000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Counter("shared.counter")
			g := r.Gauge("shared.gauge")
			for i := 0; i < per; i++ {
				c.Add(1)
				g.Max(int64(i))
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("shared.counter").Value(); got != workers*per {
		t.Errorf("counter lost updates: got %d want %d", got, workers*per)
	}
	if got := r.Gauge("shared.gauge").Value(); got != per-1 {
		t.Errorf("gauge high-water: got %d want %d", got, per-1)
	}
}

func TestSnapshotDeterministic(t *testing.T) {
	r := NewRegistry()
	r.Counter("z.last").Add(3)
	r.Gauge("a.first").Max(1)
	r.Counter("m.middle").Add(4)
	snap := r.Snapshot()
	names := make([]string, len(snap))
	for i, m := range snap {
		names[i] = m.Name
	}
	if strings.Join(names, ",") != "a.first,m.middle,z.last" {
		t.Errorf("snapshot not name-sorted: %v", names)
	}
	if snap[0].Kind != "gauge" || snap[0].Value != 1 || snap[1].Kind != "counter" || snap[1].Value != 4 {
		t.Errorf("snapshot metrics malformed: %+v", snap)
	}
}

// The emitted timeline must be valid Chrome trace_event JSON: an
// object with a traceEvents array where every event carries
// name/ph/ts/pid/tid, complete events carry dur, and every lane is
// labeled by metadata events.
func TestTracerChromeFormat(t *testing.T) {
	tr := NewTracer()
	p1 := tr.Process("cell multisite/norm/r0")
	run := p1.Track("serial")
	aux := p1.Track("aux")
	t0 := run.Now()
	run.Span("run", t0, Arg{"events", 12})
	aux.Span("capture", aux.Now(), Arg{"bytes", 12}, Arg{"keyframe", 1})
	p2 := tr.Process("cell multisite/norm/r1")
	p2.Track("serial").Span("checkpoint", 0, Arg{"bytes", 4096})

	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var out struct {
		TraceEvents []map[string]any `json:"traceEvents"`
		Unit        string           `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("timeline is not valid JSON: %v\n%s", err, buf.String())
	}
	if out.Unit != "ms" {
		t.Errorf("displayTimeUnit: got %q want ms", out.Unit)
	}
	metaNames := map[string]bool{}
	evNames := map[string]bool{}
	for _, ev := range out.TraceEvents {
		ph, _ := ev["ph"].(string)
		name, _ := ev["name"].(string)
		if name == "" {
			t.Fatalf("event without name: %v", ev)
		}
		if _, ok := ev["pid"].(float64); !ok {
			t.Fatalf("event without pid: %v", ev)
		}
		if _, ok := ev["tid"].(float64); !ok {
			t.Fatalf("event without tid: %v", ev)
		}
		switch ph {
		case "M":
			args, _ := ev["args"].(map[string]any)
			label, _ := args["name"].(string)
			metaNames[label] = true
		case "X":
			if ts, ok := ev["ts"].(float64); !ok || ts < 0 {
				t.Fatalf("complete event bad ts: %v", ev)
			}
			if dur, ok := ev["dur"].(float64); !ok || dur < 0 {
				t.Fatalf("complete event bad dur: %v", ev)
			}
			evNames[name] = true
		default:
			t.Fatalf("unexpected ph %q: %v", ph, ev)
		}
	}
	for _, want := range []string{"cell multisite/norm/r0", "cell multisite/norm/r1", "serial", "aux"} {
		if !metaNames[want] {
			t.Errorf("missing metadata label %q (have %v)", want, metaNames)
		}
	}
	for _, want := range []string{"run", "capture", "checkpoint"} {
		if !evNames[want] {
			t.Errorf("missing event %q", want)
		}
	}
}

func TestRunLogJSONL(t *testing.T) {
	var buf bytes.Buffer
	l := NewRunLog(&buf)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				l.Emit(RunRecord{Type: "progress", Cell: "c", Events: int64(j)})
			}
		}()
	}
	wg.Wait()
	l.Emit(RunRecord{Type: "metrics", Metrics: []Metric{{Name: "sim.events", Kind: "counter", Value: 9}}})
	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	if len(lines) != 201 {
		t.Fatalf("line count: got %d want 201", len(lines))
	}
	for _, line := range lines {
		var rec RunRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("bad JSONL line %q: %v", line, err)
		}
		if rec.Type == "" {
			t.Fatalf("record without type: %q", line)
		}
	}
}
