package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"netbatch/internal/experiments"
	"netbatch/internal/obs"
)

var updateTimelineGolden = flag.Bool("update-timeline", false, "regenerate testdata/timeline_tracks.golden")

// validateChromeTrace asserts the bytes are a well-formed Chrome
// trace_event JSON envelope and returns the decoded events.
func validateChromeTrace(t *testing.T, data []byte) []map[string]any {
	t.Helper()
	var env struct {
		TraceEvents     []map[string]any `json:"traceEvents"`
		DisplayTimeUnit string           `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(data, &env); err != nil {
		t.Fatalf("timeline is not valid JSON: %v\n%s", err, data)
	}
	if env.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit %q, want ms", env.DisplayTimeUnit)
	}
	if len(env.TraceEvents) == 0 {
		t.Fatal("timeline has no events")
	}
	for i, e := range env.TraceEvents {
		if name, _ := e["name"].(string); name == "" {
			t.Fatalf("event %d: missing name: %v", i, e)
		}
		if pid, ok := e["pid"].(float64); !ok || pid <= 0 {
			t.Fatalf("event %d: bad pid: %v", i, e)
		}
		if _, ok := e["tid"].(float64); !ok {
			t.Fatalf("event %d: no tid: %v", i, e)
		}
		switch e["ph"] {
		case "M":
		case "X":
			if ts, ok := e["ts"].(float64); !ok || ts < 0 {
				t.Fatalf("event %d: bad ts: %v", i, e)
			}
			if d, ok := e["dur"].(float64); !ok || d < 0 {
				t.Fatalf("event %d: complete event with bad dur: %v", i, e)
			}
		default:
			t.Fatalf("event %d: unexpected phase: %v", i, e)
		}
	}
	return env.TraceEvents
}

// span is one complete event of a decoded timeline.
type span struct {
	name    string
	ts, end float64
	arg     float64
}

// decodeLanes groups a decoded timeline's complete events by lane,
// named "<process> / <thread>", each lane's events in file order.
func decodeLanes(t *testing.T, events []map[string]any) map[string][]span {
	t.Helper()
	procs := map[float64]string{}
	threads := map[[2]float64]string{}
	for _, e := range events {
		if e["ph"] != "M" {
			continue
		}
		args, _ := e["args"].(map[string]any)
		name, _ := args["name"].(string)
		key := [2]float64{e["pid"].(float64), e["tid"].(float64)}
		switch e["name"] {
		case "process_name":
			procs[key[0]] = name
		case "thread_name":
			threads[key] = name
		}
	}
	lanes := map[string][]span{}
	for key, thread := range threads {
		lanes[procs[key[0]]+" / "+thread] = nil
	}
	for _, e := range events {
		if e["ph"] != "X" {
			continue
		}
		key := [2]float64{e["pid"].(float64), e["tid"].(float64)}
		thread, ok := threads[key]
		if !ok {
			t.Fatalf("event on an unnamed lane: %v", e)
		}
		args, _ := e["args"].(map[string]any)
		s := span{name: e["name"].(string), ts: e["ts"].(float64), end: e["ts"].(float64) + e["dur"].(float64)}
		switch s.name {
		case "run":
			s.arg, _ = args["events"].(float64)
		case "checkpoint":
			s.arg, _ = args["bytes"].(float64)
		default:
			t.Fatalf("unexpected span %v", e)
		}
		lane := procs[key[0]] + " / " + thread
		lanes[lane] = append(lanes[lane], s)
	}
	return lanes
}

// TestTimelineTracksGolden runs six multisite cells on four workers
// through the command's own wiring — a shared registry, a run-log file
// and a timeline, all reading the one run-log stream — with checkpoints
// written. It pins the timeline's lanes, one "cell <label> / serial"
// per cell, against a golden file (span timings are not
// machine-stable). Each lane must hold one run span whose events arg is
// its cell's Result.Events, its checkpoint spans must lie inside that
// run span, their bytes args must sum to the checkpoint directory's
// size, and the final metrics record's sim.events must be the cells'
// Result.Events summed.
func TestTimelineTracksGolden(t *testing.T) {
	dir := t.TempDir()
	tlPath, logPath, ckDir := filepath.Join(dir, "timeline.json"), filepath.Join(dir, "run.jsonl"), filepath.Join(dir, "ck")
	opts := experiments.Options{Seed: 42, Scale: 0.02, Jobs: 4, CheckpointDir: ckDir, CheckpointKeyframe: 4, Logf: t.Logf}
	flush, err := armObservability(tlPath, logPath, 0, &opts)
	if err != nil {
		t.Fatal(err)
	}
	e, err := experiments.Get("multisite")
	if err != nil {
		t.Fatal(err)
	}
	m := e.Plan(opts)
	m.Scenarios = m.Scenarios[:2]
	mr, err := m.Run(opts)
	if ferr := flush(); ferr != nil {
		t.Fatal(ferr)
	}
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(tlPath)
	if err != nil {
		t.Fatal(err)
	}
	lanes := decodeLanes(t, validateChromeTrace(t, data))

	var sumEvents, ckBytes, dirBytes float64
	for s, id := range mr.ScenarioIDs {
		for p, name := range mr.PolicyNames {
			res := mr.At(s, p, 0).Result
			sumEvents += float64(res.Events)
			lane := fmt.Sprintf("cell %s/%s/r0 / serial", id, name)
			spans := lanes[lane]
			if len(spans) == 0 || spans[0].name != "run" {
				t.Fatalf("lane %s: spans %v, want a run span first", lane, spans)
			}
			run := spans[0]
			if int64(run.arg) != res.Events {
				t.Errorf("lane %s: run span events arg %v, want Result.Events %d", lane, run.arg, res.Events)
			}
			for _, ck := range spans[1:] {
				if ck.name != "checkpoint" || ck.ts < run.ts || ck.end > run.end {
					t.Errorf("lane %s: span %+v, want a checkpoint span inside run span %+v", lane, ck, run)
				}
				ckBytes += ck.arg
			}
		}
	}
	entries, err := os.ReadDir(ckDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		dirBytes += float64(info.Size())
	}
	if ckBytes != dirBytes || dirBytes == 0 {
		t.Errorf("checkpoint spans carry %v bytes, the directory holds %v", ckBytes, dirBytes)
	}
	if got := lastMetric(t, logPath, "sim.events"); float64(got) != sumEvents {
		t.Errorf("metrics record sim.events = %d, want %v (the cells' Result.Events summed)", got, sumEvents)
	}

	var names []string
	for lane := range lanes {
		names = append(names, lane)
	}
	sort.Strings(names)
	got := strings.Join(names, "\n") + "\n"
	path := filepath.Join("testdata", "timeline_tracks.golden")
	if *updateTimelineGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update-timeline to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("timeline lanes drifted from the golden file.\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// lastMetric returns the named metric of the run log's final metrics
// record.
func lastMetric(t *testing.T, path, name string) int64 {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var last obs.RunRecord
	for sc := bufio.NewScanner(f); sc.Scan(); {
		if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
			t.Fatal(err)
		}
	}
	if last.Type != "metrics" {
		t.Fatalf("run log ends with a %q record, want metrics", last.Type)
	}
	for _, m := range last.Metrics {
		if m.Name == name {
			return m.Value
		}
	}
	t.Fatalf("metrics record has no %s", name)
	return 0
}

// TestTimelineChromeFormat feeds the timeline a run log by hand: two
// cells, checkpoints, and records it ignores. It must write valid
// Chrome trace_event JSON with one labeled process and serial lane per
// cell, a run span per cell carrying its events, and a checkpoint span
// per record carrying its bytes and reaching back over the capture and
// write the record reports, but never before its cell's run span.
func TestTimelineChromeFormat(t *testing.T) {
	tl := newTimeline()
	log := obs.NewRunLog(tl)
	emit := func(rec obs.RunRecord) {
		t.Helper()
		if err := log.Emit(rec); err != nil {
			t.Fatal(err)
		}
	}
	a, b := "multisite/norm/r0", "multisite/norm/r1"
	emit(obs.RunRecord{Type: "cell_start", Cell: a})
	emit(obs.RunRecord{Type: "cell_start", Cell: b})
	time.Sleep(5 * time.Millisecond)
	emit(obs.RunRecord{Type: "progress", Cell: a, Events: 256})
	emit(obs.RunRecord{Type: "checkpoint", Cell: a, Bytes: 4096, CaptureMS: 0.5, WriteMS: 0.25})
	emit(obs.RunRecord{Type: "checkpoint", Cell: b, Bytes: 512, CaptureMS: 6e4})
	emit(obs.RunRecord{Type: "cell_done", Cell: a, Events: 12})
	emit(obs.RunRecord{Type: "cell_done", Cell: b, Events: 7})
	emit(obs.RunRecord{Type: "checkpoint", Cell: "never/started/r0", Bytes: 1})
	emit(obs.RunRecord{Type: "metrics", Metrics: []obs.Metric{{Name: "sim.events", Kind: "counter", Value: 19}}})
	if _, err := tl.Write([]byte("not a record\n")); err == nil {
		t.Error("timeline accepted a line that is not a run-log record")
	}

	var buf strings.Builder
	if err := tl.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	lanes := decodeLanes(t, validateChromeTrace(t, []byte(buf.String())))
	if len(lanes) != 2 {
		t.Fatalf("lanes %v, want one per started cell", lanes)
	}
	la, lb := lanes["cell "+a+" / serial"], lanes["cell "+b+" / serial"]
	if len(la) != 2 || len(lb) != 2 {
		t.Fatalf("lanes %v, want a run and a checkpoint span each", lanes)
	}
	for _, c := range []struct {
		lane         []span
		events, size float64
	}{{la, 12, 4096}, {lb, 7, 512}} {
		run, ck := c.lane[0], c.lane[1]
		if run.name != "run" || run.arg != c.events || ck.name != "checkpoint" || ck.arg != c.size {
			t.Errorf("spans %+v, want a run span with %v events and a checkpoint span of %v bytes", c.lane, c.events, c.size)
		}
		if ck.ts < run.ts || ck.end > run.end {
			t.Errorf("checkpoint span %+v outside run span %+v", ck, run)
		}
	}
	// The first checkpoint reports 750 µs of capture and write; the
	// second reports a minute, more than its run has lasted, so it
	// starts with its run span.
	if d := la[1].end - la[1].ts; d < 749 || d > 751 {
		t.Errorf("checkpoint span lasts %v µs, want the 750 its record reports", d)
	}
	if lb[1].ts != lb[0].ts {
		t.Errorf("checkpoint span starts at %v, want its run span's start %v", lb[1].ts, lb[0].ts)
	}
}

// TestProgressMirror: without -runlog, -progress mirrors the run log's
// progress records through Logf, with or without -timeline; with
// -runlog it mirrors nothing, and the final metrics record carries the
// registry.
func TestProgressMirror(t *testing.T) {
	dir := t.TempDir()
	progress := obs.RunRecord{Type: "progress", Cell: "c/p/r0", SimTime: 60, Events: 512, EventsPerSec: 1000, ETASec: 3}
	for _, c := range []struct {
		name, timeline, runlog string
		lines                  int
	}{
		{"progress", "", "", 1},
		{"progress and timeline", filepath.Join(dir, "t1.json"), "", 1},
		{"progress and runlog", "", filepath.Join(dir, "r.jsonl"), 0},
	} {
		var lines []string
		logf := func(format string, args ...any) { lines = append(lines, fmt.Sprintf(format, args...)) }
		opts := experiments.Options{Logf: logf}
		flush, err := armObservability(c.timeline, c.runlog, time.Millisecond, &opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := opts.RunLog.Emit(progress); err != nil {
			t.Fatal(err)
		}
		if err := flush(); err != nil {
			t.Fatal(err)
		}
		if len(lines) != c.lines || opts.ProgressEvery != time.Millisecond || (opts.Metrics != nil) != (c.runlog != "") {
			t.Errorf("%s: logged %q, ProgressEvery %v, registry %v", c.name, lines, opts.ProgressEvery, opts.Metrics != nil)
		}
		if want := "experiments: cell c/p/r0: t=60 events=512 (1000 ev/s) eta=3s"; c.lines == 1 && lines[0] != want {
			t.Errorf("%s: logged %q, want %q", c.name, lines[0], want)
		}
	}
}
