package sim

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"netbatch/internal/core"
	"netbatch/internal/job"
	"netbatch/internal/obs"
	"netbatch/internal/sched"
)

var updateObsGolden = flag.Bool("update-obs", false, "regenerate observability golden files")

// obsFederation builds a deterministic small multi-site workload for
// the observability tests (fixed seed into the shared random-federation
// generator).
func obsFederation(t *testing.T, seed uint64) (Config, []job.Spec) {
	t.Helper()
	r := rand.New(rand.NewPCG(seed, seed^0x9e3779b9))
	plat, specs, err := randomFederation(r)
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Platform: plat,
		Initial:  federatedInitial(sched.LocalityFirst{}),
		Policy:   core.NewResSusWaitUtil(),
	}, specs
}

// TestObservabilitySharedRegistry runs several simulations concurrently
// against ONE shared registry and tracer — the cmd/experiments wiring —
// while progress callbacks fire at every poll. Under -race this is the
// concurrency proof for the obs hot path; the counter reconciliation
// below is the correctness proof (every run reports its event count
// through the same atomic counter, none lost).
func TestObservabilitySharedRegistry(t *testing.T) {
	reg := obs.NewRegistry()
	tr := obs.NewTracer()
	var wantEvents, progressCalls atomic.Int64
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	run := 0
	for range 2 {
		for _, seed := range []uint64{11, 23} {
			cfg, specs := obsFederation(t, seed)
			cfg.Metrics = reg
			cfg.Trace = tr.Process(fmt.Sprintf("run %02d seed %d", run, seed))
			cfg.ProgressEvery = time.Nanosecond
			cfg.Progress = func(p obs.Progress) {
				if p.SimTime < 0 || p.Events < 0 {
					t.Errorf("progress with negative fields: %+v", p)
				}
				progressCalls.Add(1)
			}
			run++
			wg.Add(1)
			go func() {
				defer wg.Done()
				res, err := Run(cfg, specs)
				if err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					return
				}
				wantEvents.Add(res.Events)
			}()
		}
	}
	wg.Wait()
	if firstErr != nil {
		t.Fatal(firstErr)
	}
	if got, want := reg.Counter("sim.events").Value(), wantEvents.Load(); got != want {
		t.Errorf("shared registry sim.events = %d, want %d (sum of per-run Result.Events)", got, want)
	}
	if progressCalls.Load() == 0 {
		t.Error("no progress callbacks fired despite ProgressEvery=1ns")
	}
	// The tracer must have collected real spans from the concurrent runs.
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	validateChromeTrace(t, buf.Bytes())
}

// TestObservabilityDoesNotPerturbResults pins the instrument-nothing
// contract: a fully instrumented run (registry + timeline + progress)
// must be bit-identical to a bare run of the same configuration.
func TestObservabilityDoesNotPerturbResults(t *testing.T) {
	bare, specs := obsFederation(t, 37)
	bareRes, err := Run(bare, specs)
	if err != nil {
		t.Fatalf("bare: %v", err)
	}
	inst, specs2 := obsFederation(t, 37)
	inst.Metrics = obs.NewRegistry()
	inst.Trace = obs.NewTracer().Process("cell probe")
	inst.ProgressEvery = time.Nanosecond
	inst.Progress = func(obs.Progress) {}
	instRes, err := Run(inst, specs2)
	if err != nil {
		t.Fatalf("instrumented: %v", err)
	}
	if fingerprint(bareRes) != fingerprint(instRes) {
		t.Errorf("instrumented run differs from bare run:\n%s",
			firstDiff(fingerprint(bareRes), fingerprint(instRes)))
	}
}

// TestTimelineTracksGolden runs a fixed workload with a timeline and
// pins the emitted track structure — process and thread names —
// against a golden file, so the track list is machine-stable even
// though span timings are not. The run must also record its "run"
// span, with the dispatched event count as its arg.
func TestTimelineTracksGolden(t *testing.T) {
	tr := obs.NewTracer()
	cfg, specs := obsFederation(t, 7)
	cfg.Trace = tr.Process("cell golden/serial")
	res, err := Run(cfg, specs)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	events := validateChromeTrace(t, buf.Bytes())

	runs := 0
	for _, e := range events {
		if e["ph"] != "X" || e["name"] != "run" {
			continue
		}
		runs++
		args, _ := e["args"].(map[string]any)
		if n, _ := args["events"].(float64); int64(n) != res.Events {
			t.Errorf("run span events arg %v, want %d", args["events"], res.Events)
		}
	}
	if runs != 1 {
		t.Errorf("timeline has %d run spans, want 1", runs)
	}

	// Rebuild "process / track" names from the metadata events alone.
	procs := map[float64]string{}
	type key struct{ pid, tid float64 }
	tracks := map[key]string{}
	for _, e := range events {
		args, _ := e["args"].(map[string]any)
		name, _ := args["name"].(string)
		pid, _ := e["pid"].(float64)
		tid, _ := e["tid"].(float64)
		switch e["name"] {
		case "process_name":
			procs[pid] = name
		case "thread_name":
			tracks[key{pid, tid}] = name
		}
	}
	var lines []string
	for k, track := range tracks {
		lines = append(lines, procs[k.pid]+" / "+track)
	}
	sort.Strings(lines)
	got := strings.Join(lines, "\n") + "\n"

	path := filepath.Join("testdata", "timeline_tracks.golden")
	if *updateObsGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update-obs to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("timeline track structure drifted from golden file.\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// validateChromeTrace asserts the bytes are a well-formed Chrome
// trace_event JSON envelope and returns the decoded events.
func validateChromeTrace(t *testing.T, data []byte) []map[string]any {
	t.Helper()
	var env struct {
		TraceEvents     []map[string]any `json:"traceEvents"`
		DisplayTimeUnit string           `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(data, &env); err != nil {
		t.Fatalf("timeline is not valid JSON: %v", err)
	}
	if env.DisplayTimeUnit == "" {
		t.Error("timeline envelope missing displayTimeUnit")
	}
	if len(env.TraceEvents) == 0 {
		t.Fatal("timeline has no events")
	}
	for i, e := range env.TraceEvents {
		ph, _ := e["ph"].(string)
		switch ph {
		case "X":
			if d, ok := e["dur"].(float64); !ok || d < 0 {
				t.Fatalf("event %d: complete event with bad dur: %v", i, e)
			}
		case "i", "M":
		default:
			t.Fatalf("event %d: unexpected phase %q: %v", i, ph, e)
		}
		if name, _ := e["name"].(string); name == "" {
			t.Fatalf("event %d: missing name: %v", i, e)
		}
		if pid, ok := e["pid"].(float64); !ok || pid <= 0 {
			t.Fatalf("event %d: bad pid: %v", i, e)
		}
		if ph != "M" {
			if ts, ok := e["ts"].(float64); !ok || ts < 0 {
				t.Fatalf("event %d: bad ts: %v", i, e)
			}
		}
	}
	return env.TraceEvents
}
