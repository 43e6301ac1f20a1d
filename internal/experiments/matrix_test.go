package experiments

// Matrix-runner contract tests: parallel execution must be
// byte-identical to serial execution (per-cell RNG streams are pure
// functions of the cell coordinates, never of worker scheduling),
// replication seeds must be stable, and cancellation must abort
// promptly. Run under -race these also prove the worker pool and the
// trace/platform memoization are data-race free.

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"netbatch/internal/obs"
	"netbatch/internal/sched"
	"netbatch/internal/trace"
)

// matrixOpts shrinks the workload so a full matrix runs in well under a
// second per cell.
func matrixOpts(jobs int) Options {
	return Options{Seed: 42, Scale: 0.05, Jobs: jobs}
}

// testMatrix covers both axes that could leak scheduling order: a
// stale-view scenario (snapshot events) and randomized policies.
func testMatrix() Matrix {
	return Matrix{
		Scenarios: []Scenario{
			WeekScenario("normal", 1.0, 0, func() sched.InitialScheduler { return sched.NewRoundRobin() }),
			WeekScenario("stale", 0.5, 30, func() sched.InitialScheduler { return sched.NewUtilizationBased() }),
		},
		Policies: susPolicies(),
	}
}

// fingerprint serializes everything observable about a matrix result.
func fingerprint(t *testing.T, mr *MatrixResult) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	if err := enc.Encode(mr.PolicyNames); err != nil {
		t.Fatal(err)
	}
	if err := enc.Encode(mr.Seeds); err != nil {
		t.Fatal(err)
	}
	for i := range mr.cells {
		c := &mr.cells[i]
		if err := enc.Encode(c.Cell); err != nil {
			t.Fatal(err)
		}
		if err := enc.Encode(c.Summary); err != nil {
			t.Fatal(err)
		}
		if err := enc.Encode(c.Result.Util.Points()); err != nil {
			t.Fatal(err)
		}
		if err := enc.Encode(c.Result.Suspended.Points()); err != nil {
			t.Fatal(err)
		}
		if err := enc.Encode(c.Result.Waiting.Points()); err != nil {
			t.Fatal(err)
		}
		if err := enc.Encode([]int64{c.Result.Preemptions, c.Result.Restarts,
			c.Result.Migrations, c.Result.WaitMoves, c.Result.Events}); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

func TestMatrixParallelIdenticalToSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("full matrix run")
	}
	m := testMatrix()
	serialOpts := matrixOpts(1)
	serialOpts.Seeds = 2
	serial, err := m.Run(serialOpts)
	if err != nil {
		t.Fatal(err)
	}
	parallelOpts := matrixOpts(8)
	parallelOpts.Seeds = 2
	parallel, err := m.Run(parallelOpts)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fingerprint(t, serial), fingerprint(t, parallel)) {
		t.Fatal("parallel matrix output differs from serial")
	}
}

func TestMatrixSeedStreamsIndependentOfScheduling(t *testing.T) {
	if testing.Short() {
		t.Skip("full matrix run")
	}
	// Running a replicate alone must give the same result as running it
	// inside a larger replicated matrix: per-seed streams cannot depend
	// on which cells ran before them.
	m := Matrix{
		Scenarios: []Scenario{WeekScenario("normal", 1.0, 0,
			func() sched.InitialScheduler { return sched.NewRoundRobin() })},
		Policies: susPolicies(),
	}
	multiOpts := matrixOpts(4)
	multiOpts.Seeds = 3
	multi, err := m.Run(multiOpts)
	if err != nil {
		t.Fatal(err)
	}
	for rep := 0; rep < 3; rep++ {
		alone := m
		alone.Seeds = []uint64{multi.Seeds[rep]}
		single, err := alone.Run(matrixOpts(2))
		if err != nil {
			t.Fatal(err)
		}
		for p := range m.Policies {
			if single.At(0, p, 0).Summary != multi.At(0, p, rep).Summary {
				t.Fatalf("replicate %d policy %d differs when run alone", rep, p)
			}
		}
	}
}

func TestReplicateSeeds(t *testing.T) {
	seeds := ReplicateSeeds(42, 4)
	if seeds[0] != 42 {
		t.Fatalf("first replicate seed = %d, want the base seed", seeds[0])
	}
	seen := map[uint64]bool{}
	for _, s := range seeds {
		if seen[s] {
			t.Fatalf("duplicate replicate seed %d", s)
		}
		seen[s] = true
	}
	again := ReplicateSeeds(42, 4)
	for i := range seeds {
		if seeds[i] != again[i] {
			t.Fatal("ReplicateSeeds not deterministic")
		}
	}
	if got := ReplicateSeeds(42, 0); len(got) != 1 {
		t.Fatalf("n=0 should clamp to one seed, got %d", len(got))
	}
}

func TestMatrixCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opts := matrixOpts(2)
	opts.Context = ctx
	_, err := testMatrix().Run(opts)
	if err == nil {
		t.Fatal("canceled matrix run should fail")
	}
	if !strings.Contains(err.Error(), "cancel") {
		t.Fatalf("err = %v, want cancellation", err)
	}
}

func TestMatrixValidation(t *testing.T) {
	if _, err := (Matrix{Policies: susPolicies()}).Run(matrixOpts(1)); err == nil {
		t.Fatal("matrix without scenarios should fail")
	}
	m := Matrix{Scenarios: []Scenario{WeekScenario("x", 1.0, 0,
		func() sched.InitialScheduler { return sched.NewRoundRobin() })}}
	if _, err := m.Run(matrixOpts(1)); err == nil {
		t.Fatal("matrix without policies should fail")
	}
}

func TestMultiSeedTableReportsCI(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment run")
	}
	e, err := Get("table1")
	if err != nil {
		t.Fatal(err)
	}
	opts := matrixOpts(0)
	opts.Seeds = 3
	out, err := e.Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Replicates) != len(out.Names) {
		t.Fatalf("replicate sets = %d, want %d", len(out.Replicates), len(out.Names))
	}
	for i, reps := range out.Replicates {
		if len(reps) != 3 {
			t.Fatalf("strategy %s has %d replicates, want 3", out.Names[i], len(reps))
		}
		if out.Summaries[i] != reps[0] {
			t.Fatalf("strategy %s Summaries[%d] is not replicate 0", out.Names[i], i)
		}
	}
	var sb strings.Builder
	if err := out.Tables[0].Render(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "±") {
		t.Fatalf("multi-seed table lacks ± CI cells:\n%s", sb.String())
	}
	if !strings.Contains(sb.String(), "over 3 seeds") {
		t.Fatalf("multi-seed table lacks replication note:\n%s", sb.String())
	}
}

// TestRunCellMatchesMatrix runs one cell as a one-cell matrix: its
// result must not depend on the other cells of the matrix it came from.
func TestRunCellMatchesMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("full matrix run")
	}
	sc := WeekScenario("normal", 1.0, 0, func() sched.InitialScheduler { return sched.NewRoundRobin() })
	pols := susPolicies()
	mr, err := Matrix{Scenarios: []Scenario{sc}, Policies: pols}.Run(matrixOpts(4))
	if err != nil {
		t.Fatal(err)
	}
	one, err := Matrix{Scenarios: []Scenario{sc}, Policies: pols[:1]}.Run(matrixOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	if one.At(0, 0, 0).Summary != mr.At(0, 0, 0).Summary {
		t.Fatal("a one-cell matrix differs from the same cell in a full matrix")
	}
}

// runAllPair is two small matrices with no cell in common: a stale-view
// scenario under the waiting-job policies, and the normal week.
func runAllPair() (a, b Matrix) {
	a = Matrix{
		Scenarios: []Scenario{WeekScenario("stale", 0.5, 30, func() sched.InitialScheduler { return sched.NewUtilizationBased() })},
		Policies:  waitPolicies(),
	}
	b = Matrix{
		Scenarios: []Scenario{WeekScenario("normal", 1.0, 0, func() sched.InitialScheduler { return sched.NewRoundRobin() })},
		Policies:  susPolicies()[:2],
	}
	return a, b
}

// TestRunAllMatchesSeparateRuns pins that sharing one worker pool
// across matrices changes no result: RunAll of two matrices gives each
// the summaries, series, counters and event counts of its own Run.
func TestRunAllMatchesSeparateRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("full matrix run")
	}
	a, b := runAllPair()
	wantA, err := a.Run(matrixOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	wantB, err := b.Run(matrixOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, jobs := range []int{1, 4} {
		got, err := RunAll([]Matrix{a, b}, matrixOpts(jobs))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(fingerprint(t, got[0]), fingerprint(t, wantA)) {
			t.Errorf("jobs=%d: first matrix differs from its own Run", jobs)
		}
		if !bytes.Equal(fingerprint(t, got[1]), fingerprint(t, wantB)) {
			t.Errorf("jobs=%d: second matrix differs from its own Run", jobs)
		}
	}
}

// TestRunAllSharesRepeatedMatrix pins the dedupe: a matrix that repeats
// an earlier one's scenario IDs, policy names and seeds shares its
// result, and its cells run once (one cell_done record each).
func TestRunAllSharesRepeatedMatrix(t *testing.T) {
	a, b := runAllPair()
	a.Policies = a.Policies[:1]
	b.Policies = b.Policies[:1]
	var log bytes.Buffer
	opts := Options{Seed: 42, Scale: 0.02, Jobs: 2, RunLog: obs.NewRunLog(&log)}
	got, err := RunAll([]Matrix{a, b, a}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != got[2] {
		t.Fatal("the repeated matrix did not share the first one's result")
	}
	if got[1] == got[0] {
		t.Fatal("a distinct matrix shares another's result")
	}
	done := map[string]int{}
	for _, line := range strings.Split(strings.TrimSpace(log.String()), "\n") {
		var rec obs.RunRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatal(err)
		}
		if rec.Type == "cell_done" {
			done[rec.Cell]++
		}
	}
	want := map[string]int{"stale/NoRes/r0": 1, "normal/NoRes/r0": 1}
	if fmt.Sprint(done) != fmt.Sprint(want) {
		t.Fatalf("cell_done records per cell = %v, want %v", done, want)
	}
}

// TestRunAllCancelKeepsFinishedMatrices cancels the run while the second
// matrix builds its trace: RunAll must return the first matrix, whose
// cells all finished, and an error wrapping the cancellation.
func TestRunAllCancelKeepsFinishedMatrices(t *testing.T) {
	a, b := runAllPair()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	build := b.Scenarios[0].Trace
	b.Scenarios[0].Trace = func(seed uint64, scale float64) (*trace.Trace, error) {
		cancel()
		return build(seed, scale)
	}
	got, err := RunAll([]Matrix{a, b}, Options{Seed: 42, Scale: 0.02, Jobs: 1, Context: ctx})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want one wrapping context.Canceled", err)
	}
	if got[0] == nil || got[1] != nil {
		t.Fatalf("results = %v, want the first matrix only", got)
	}
	for i := range got[0].cells {
		if got[0].cells[i].Result == nil {
			t.Fatalf("first matrix cell %d has no result", i)
		}
	}
}

// TestMatrixCheckpointResume pins the per-cell checkpoint/resume
// plumbing: a checkpointed run writes one snapshot file per cell, a
// resumed run continues from those files, and both produce results
// byte-identical to a run that never checkpointed. A corrupted
// checkpoint must fall back to a fresh run (with a warning), not to a
// wrong result.
func TestMatrixCheckpointResume(t *testing.T) {
	m := testMatrix()
	plain, err := m.Run(matrixOpts(2))
	if err != nil {
		t.Fatal(err)
	}
	want := fingerprint(t, plain)

	dir := t.TempDir()
	ckOpts := matrixOpts(2)
	ckOpts.CheckpointDir = dir
	ckOpts.CheckpointEvery = 500 // well under the busy week's makespan
	ck, err := m.Run(ckOpts)
	if err != nil {
		t.Fatal(err)
	}
	if got := fingerprint(t, ck); !bytes.Equal(got, want) {
		t.Fatal("checkpointing perturbed matrix results")
	}
	// Every cell keeps a chronological checkpoint history.
	for s := range m.Scenarios {
		for p := range m.Policies {
			prefix := cellCheckpointPrefix(dir, m.Scenarios[s].ID, p, 0)
			got, err := filepath.Glob(prefix + "_t*.ckpt")
			if err != nil {
				t.Fatal(err)
			}
			if len(got) == 0 {
				t.Fatalf("cell %s/p%d has no checkpoint files", m.Scenarios[s].ID, p)
			}
		}
	}

	var warnings []string
	resOpts := ckOpts
	resOpts.Resume = true
	resOpts.Logf = func(format string, args ...any) {
		warnings = append(warnings, fmt.Sprintf(format, args...))
	}
	resumed, err := m.Run(resOpts)
	if err != nil {
		t.Fatal(err)
	}
	if got := fingerprint(t, resumed); !bytes.Equal(got, want) {
		t.Fatal("resumed matrix results differ from straight run")
	}
	if len(warnings) != 0 {
		t.Fatalf("clean resume produced warnings: %v", warnings)
	}

	// Corrupt one cell's newest checkpoint (the one resume picks): the
	// run must fall back to a fresh simulation for that cell, warn, and
	// still match.
	victim := latestCheckpoint(cellCheckpointPrefix(dir, m.Scenarios[0].ID, 0, 0))
	if victim == "" {
		t.Fatal("no checkpoint to corrupt")
	}
	data, err := os.ReadFile(victim)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x55
	if err := os.WriteFile(victim, data, 0o644); err != nil {
		t.Fatal(err)
	}
	warnings = nil
	fell, err := m.Run(resOpts)
	if err != nil {
		t.Fatal(err)
	}
	if got := fingerprint(t, fell); !bytes.Equal(got, want) {
		t.Fatal("fallback-after-corruption results differ from straight run")
	}
	if len(warnings) != 1 || !strings.Contains(warnings[0], "not resumable") {
		t.Fatalf("expected one fallback warning, got %v", warnings)
	}
}

// version5Snapshot rewrites a snapshot's format-version word (the
// second header word, after the magic) to 5 and recomputes the
// CRC-32C trailer. The result passes the integrity check and fails
// only on its version, as every snapshot of an older build does.
func version5Snapshot(t *testing.T, data []byte) []byte {
	t.Helper()
	const versionAt = 8
	if got := binary.LittleEndian.Uint64(data[versionAt:]); got != 6 {
		t.Fatalf("checkpoint format version %d, want 6", got)
	}
	out := append([]byte(nil), data[:len(data)-8]...)
	binary.LittleEndian.PutUint64(out[versionAt:], 5)
	sum := crc32.Checksum(out, crc32.MakeTable(crc32.Castagnoli))
	return binary.LittleEndian.AppendUint64(out, uint64(sum))
}

// TestMatrixResumeLegacyEngineCheckpoint points -resume at a version-5
// checkpoint, the format that saved every job's record, submitted or
// not, in the placement section: the cell must log that the checkpoint
// is not resumable, restart from t=0, and match a fresh run.
func TestMatrixResumeLegacyEngineCheckpoint(t *testing.T) {
	m := Matrix{
		Scenarios: []Scenario{MultiSiteScenario("fed3", 3, 0,
			func() sched.SiteSelector { return sched.LatencyPenalizedUtil{} })},
		Policies: multiSitePolicies()[:1],
	}
	opts := Options{Seed: 42, Scale: 0.03, Jobs: 1}
	plain, err := m.Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	want := fingerprint(t, plain)

	ckOpts := opts
	ckOpts.CheckpointDir = t.TempDir()
	ckOpts.CheckpointEvery = 500
	if _, err := m.Run(ckOpts); err != nil {
		t.Fatal(err)
	}
	path := latestCheckpoint(cellCheckpointPrefix(ckOpts.CheckpointDir, "fed3", 0, 0))
	if path == "" {
		t.Fatal("no checkpoint written")
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	legacy := version5Snapshot(t, data)
	if err := os.WriteFile(path, legacy, 0o644); err != nil {
		t.Fatal(err)
	}

	var warnings []string
	resOpts := ckOpts
	resOpts.Resume = true
	resOpts.Logf = func(format string, args ...any) {
		warnings = append(warnings, fmt.Sprintf(format, args...))
	}
	resumed, err := m.Run(resOpts)
	if err != nil {
		t.Fatal(err)
	}
	if got := fingerprint(t, resumed); !bytes.Equal(got, want) {
		t.Fatal("fallback-after-legacy-checkpoint results differ from a fresh run")
	}
	if len(warnings) != 1 || !strings.Contains(warnings[0], "not resumable") {
		t.Fatalf("expected one not-resumable warning, got %v", warnings)
	}
}

// TestMatrixCheckpointKeyframes pins the delta-checkpoint file plumbing:
// with CheckpointKeyframe set, cells write mixed .ckpt/.dckpt streams,
// LoadCheckpoint reconstructs any member from its keyframe chain, and a
// resume whose newest file is a delta still reproduces the straight run
// byte-identically. A corrupted delta falls back to a fresh run.
func TestMatrixCheckpointKeyframes(t *testing.T) {
	m := testMatrix()
	plain, err := m.Run(matrixOpts(2))
	if err != nil {
		t.Fatal(err)
	}
	want := fingerprint(t, plain)

	dir := t.TempDir()
	ckOpts := matrixOpts(2)
	ckOpts.CheckpointDir = dir
	ckOpts.CheckpointEvery = 400 // several marks per cell
	ckOpts.CheckpointKeyframe = 3
	ck, err := m.Run(ckOpts)
	if err != nil {
		t.Fatal(err)
	}
	if got := fingerprint(t, ck); !bytes.Equal(got, want) {
		t.Fatal("keyframed checkpointing perturbed matrix results")
	}
	deltas := 0
	for s := range m.Scenarios {
		for p := range m.Policies {
			prefix := cellCheckpointPrefix(dir, m.Scenarios[s].ID, p, 0)
			files := cellCheckpointFiles(prefix)
			if len(files) == 0 {
				t.Fatalf("cell %s/p%d has no checkpoint files", m.Scenarios[s].ID, p)
			}
			if strings.HasSuffix(files[0], ".dckpt") {
				t.Fatalf("cell %s/p%d starts with a delta: %s", m.Scenarios[s].ID, p, files[0])
			}
			for _, f := range files {
				if !strings.HasSuffix(f, ".dckpt") {
					continue
				}
				deltas++
				// Every delta file must reconstruct through its chain.
				if _, err := LoadCheckpoint(f); err != nil {
					t.Fatalf("LoadCheckpoint(%s): %v", f, err)
				}
			}
		}
	}
	if deltas == 0 {
		t.Fatal("keyframed matrix run wrote no .dckpt files; lower the cadence")
	}

	var warnings []string
	resOpts := ckOpts
	resOpts.Resume = true
	resOpts.Logf = func(format string, args ...any) {
		warnings = append(warnings, fmt.Sprintf(format, args...))
	}
	resumed, err := m.Run(resOpts)
	if err != nil {
		t.Fatal(err)
	}
	if got := fingerprint(t, resumed); !bytes.Equal(got, want) {
		t.Fatal("resume through delta chains differs from straight run")
	}
	if len(warnings) != 0 {
		t.Fatalf("clean keyframed resume produced warnings: %v", warnings)
	}

	// Corrupt the newest file of a cell that ends on a delta: resume
	// must fall back, warn, and still match.
	victim := ""
	for s := range m.Scenarios {
		for p := range m.Policies {
			newest := latestCheckpoint(cellCheckpointPrefix(dir, m.Scenarios[s].ID, p, 0))
			if strings.HasSuffix(newest, ".dckpt") {
				victim = newest
			}
		}
	}
	if victim == "" {
		t.Skip("no cell's newest checkpoint is a delta at this cadence")
	}
	data, err := os.ReadFile(victim)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x55
	if err := os.WriteFile(victim, data, 0o644); err != nil {
		t.Fatal(err)
	}
	warnings = nil
	fell, err := m.Run(resOpts)
	if err != nil {
		t.Fatal(err)
	}
	if got := fingerprint(t, fell); !bytes.Equal(got, want) {
		t.Fatal("fallback after delta corruption differs from straight run")
	}
	if len(warnings) != 1 || !strings.Contains(warnings[0], "not resumable") {
		t.Fatalf("expected one fallback warning, got %v", warnings)
	}
}

// TestMatrixCheckpointKeyframeCadenceChange pins delta-chain resume
// across a keyframe-cadence change: a run checkpointed with one
// cadence is interrupted (its newer marks dropped), then resumed with
// a different cadence. The loader must reconstruct the pre-change
// chain for the resume point, the resumed run must open its own chain
// with a fresh keyframe (its deltas must never chain across the
// cadence boundary into the old run's emissions), and the final
// results must be byte-identical to the straight run — a broken chain
// may only ever mean a warned fallback, never an error or a silently
// wrong result.
func TestMatrixCheckpointKeyframeCadenceChange(t *testing.T) {
	m := testMatrix()
	plain, err := m.Run(matrixOpts(2))
	if err != nil {
		t.Fatal(err)
	}
	want := fingerprint(t, plain)

	dir := t.TempDir()
	ckOpts := matrixOpts(2)
	ckOpts.CheckpointDir = dir
	ckOpts.CheckpointEvery = 400 // several marks per cell
	ckOpts.CheckpointKeyframe = 3
	if _, err := m.Run(ckOpts); err != nil {
		t.Fatal(err)
	}

	// Interrupt: keep only the first two marks of every cell, so the
	// resume point sits mid-run (and, with keyframe 3, is usually a
	// delta that must reconstruct through the old chain).
	kept := 0
	for s := range m.Scenarios {
		for p := range m.Policies {
			files := cellCheckpointFiles(cellCheckpointPrefix(dir, m.Scenarios[s].ID, p, 0))
			if len(files) < 3 {
				t.Fatalf("cell %s/p%d wrote %d marks; need at least 3 to interrupt mid-run",
					m.Scenarios[s].ID, p, len(files))
			}
			for _, f := range files[2:] {
				if err := os.Remove(f); err != nil {
					t.Fatal(err)
				}
			}
			kept += 2
		}
	}

	var warnings []string
	resOpts := ckOpts
	resOpts.Resume = true
	resOpts.CheckpointKeyframe = 5 // cadence change across the resume
	resOpts.Logf = func(format string, args ...any) {
		warnings = append(warnings, fmt.Sprintf(format, args...))
	}
	resumed, err := m.Run(resOpts)
	if err != nil {
		t.Fatal(err)
	}
	if got := fingerprint(t, resumed); !bytes.Equal(got, want) {
		t.Fatal("resume across keyframe-cadence change differs from straight run")
	}
	if len(warnings) != 0 {
		t.Fatalf("clean cadence-change resume produced warnings: %v", warnings)
	}

	// The mixed directory — old cadence-3 prefix, new cadence-5 tail —
	// must stay fully loadable file by file, and the resumed tail must
	// actually have re-emitted marks, opening with a full keyframe.
	total, firstNew := 0, 0
	for s := range m.Scenarios {
		for p := range m.Policies {
			files := cellCheckpointFiles(cellCheckpointPrefix(dir, m.Scenarios[s].ID, p, 0))
			if len(files) <= 2 {
				t.Fatalf("cell %s/p%d re-emitted no marks after the interrupt", m.Scenarios[s].ID, p)
			}
			if strings.HasSuffix(files[2], ".dckpt") {
				t.Fatalf("cell %s/p%d opened its post-resume chain with a delta: %s",
					m.Scenarios[s].ID, p, files[2])
			}
			firstNew++
			for _, f := range files {
				if _, err := LoadCheckpoint(f); err != nil {
					t.Fatalf("LoadCheckpoint(%s): %v", f, err)
				}
				total++
			}
		}
	}
	if total <= kept || firstNew == 0 {
		t.Fatalf("cadence-change resume exercised nothing: %d files total, %d kept", total, kept)
	}
}
