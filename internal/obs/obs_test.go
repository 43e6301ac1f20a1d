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
