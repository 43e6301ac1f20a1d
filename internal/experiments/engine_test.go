package experiments

// Engine determinism at the experiment level: the serial and
// optimistic simulation engines must produce byte-identical rendered
// reports and hex-float-identical series for the multisite experiment
// (single-site baseline, 3-site federations, 6-site federation), the
// faults experiment, and the single-site paper experiments (where the
// optimistic engine falls back to the serial kernel). CI runs this
// under -race.

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"netbatch/internal/sim"
)

// engineOpts pins every knob that affects output except the engine.
func engineOpts(engine string) Options {
	return Options{Seed: 42, Seeds: 1, Scale: 0.03, Engine: engine}
}

// seriesFingerprint renders every series point in hex so comparison is
// bit-exact.
func seriesFingerprint(t *testing.T, out *Output) string {
	t.Helper()
	names := make([]string, 0, len(out.Series))
	for name := range out.Series {
		names = append(names, name)
	}
	sort.Strings(names)
	var sb strings.Builder
	for _, name := range names {
		fmt.Fprintf(&sb, "%s:", name)
		for _, p := range out.Series[name] {
			fmt.Fprintf(&sb, " %x/%x", p.X, p.Y)
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

func runEngine(t *testing.T, id, engine string) (rendered, series string) {
	t.Helper()
	e, err := Get(id)
	if err != nil {
		t.Fatal(err)
	}
	out, err := e.Run(engineOpts(engine))
	if err != nil {
		t.Fatalf("%s engine %s: %v", id, engine, err)
	}
	return renderOutput(t, out), seriesFingerprint(t, out)
}

// TestMultiSiteEnginesBitIdentical is the determinism contract of the
// partitioned engine on the experiment that exercises it: fed1 (serial
// fallback), the three 3-site federations, and the 6-site federation,
// across all three rescheduling policies.
func TestMultiSiteEnginesBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment run")
	}
	compareEngines(t, "multisite")
}

// compareEngines runs one experiment on both engines and requires
// byte-identical reports and series. Output.EngineCounters describes
// the execution and stays out of the comparison (renderOutput renders
// tables and notes only).
func compareEngines(t *testing.T, id string) {
	t.Helper()
	serialOut, serialSeries := runEngine(t, id, sim.EngineSerial)
	optOut, optSeries := runEngine(t, id, sim.EngineOptimistic)
	if serialOut != optOut {
		t.Errorf("%s rendered reports differ between engines:\n%s", id, diffHead(serialOut, optOut))
	}
	if serialSeries != optSeries {
		t.Errorf("%s series differ between engines:\n%s", id, diffHead(serialSeries, optSeries))
	}
}

// TestSingleSiteEnginesBitIdentical pins the fallback contract on every
// registered single-site experiment: Engine=optimistic must change
// nothing at all.
func TestSingleSiteEnginesBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment runs")
	}
	for _, id := range IDs() {
		if id == "multisite" || id == "faults" {
			continue // covered above / below, with real partitions
		}
		id := id
		t.Run(id, func(t *testing.T) {
			compareEngines(t, id)
		})
	}
}

// TestFaultsEnginesBitIdentical extends the determinism contract to
// the fault & maintenance subsystem: the faults experiment — crashes,
// maintenance windows, kill/requeue and drain cells on 1/3/6-site
// federations — must render byte-identically under both engines.
func TestFaultsEnginesBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment run")
	}
	compareEngines(t, "faults")
}

// diffHead shows the first few differing lines of two renderings.
func diffHead(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	var sb strings.Builder
	shown := 0
	for i := 0; i < len(al) || i < len(bl); i++ {
		var x, y string
		if i < len(al) {
			x = al[i]
		}
		if i < len(bl) {
			y = bl[i]
		}
		if x == y {
			continue
		}
		fmt.Fprintf(&sb, "line %d:\n  serial:     %.160s\n  optimistic: %.160s\n", i+1, x, y)
		if shown++; shown >= 4 {
			sb.WriteString("  ...\n")
			break
		}
	}
	return sb.String()
}
