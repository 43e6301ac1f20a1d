package sim

// FuzzFederationRun runs the serial kernel on random federations: a
// fuzzed (seed, policy, site selector, staleness, fault regime)
// coordinate synthesizes a random multi-site platform and workload.
// Every run must return a result or an error, never panic; the only
// acceptable error is the MaxTime cap that bounds per-input cost; a
// successful run must reproduce its fingerprint bit for bit when run
// again; and every completed job must pass the accounting identity
// (the engine checks it on completion, so a violation fails the run).
// faultPick == 0 disables the fault subsystem; any other value enables
// machine crashes (and, depending on its low bits, maintenance windows
// under either victim policy). The committed corpus pins coordinates that
// once broke a partitioned engine: a cross-site alias dispatch, an
// arrival/refresh tie on the sample grid, a stale decision fence, a
// lost cancellation, and machine crashes racing cross-site arrivals
// and drain windows.

import (
	"math/rand/v2"
	"strings"
	"testing"
)

// fuzzFaults derives a fault regime from one fuzz byte pair: zero
// disables the subsystem entirely (historical behavior); otherwise
// crashes are always on and the low bits of faultPick select window
// cadence and victim policy.
func fuzzFaults(seed uint64, faultPick, victimPick byte) FaultConfig {
	if faultPick == 0 {
		return FaultConfig{}
	}
	f := FaultConfig{
		MTBF: 40 + float64(faultPick)*3,
		MTTR: 15 + float64(victimPick%16)*5,
		Seed: seed ^ 0xFA17,
	}
	if faultPick%4 != 0 {
		f.MaintPeriod = 150 + float64(faultPick%4)*150
		f.MaintDuration = 40
		f.MaintFraction = 0.3
	}
	if victimPick%2 == 1 {
		f.Victim = VictimDrain
	}
	return f
}

func FuzzFederationRun(f *testing.F) {
	f.Add(uint64(0x64ccd4a6193fcb8f), byte(0xcb), byte(0x38), byte(0x3e), byte(0), byte(0))
	f.Add(uint64(0xaeb86490e1d38afc), byte(0xaa), byte(0x67), byte(0x8d), byte(0), byte(0))
	f.Add(uint64(0xcd3965e7d3eebe1f), byte(0x65), byte(0x8b), byte(0xda), byte(0), byte(0))
	f.Add(uint64(0x770d30828739e4ab), byte(0x0b), byte(0x97), byte(0xac), byte(0), byte(0))
	f.Add(uint64(42), byte(0), byte(0), byte(0), byte(0), byte(0))
	f.Add(uint64(7), byte(1), byte(2), byte(20), byte(0), byte(0))
	f.Add(uint64(11), byte(3), byte(2), byte(5), byte(9), byte(1))
	// The seed, policy, selector and staleness of three fault
	// coordinates whose cross-site alias cascades (a job started or
	// resumed on another site's machine) once broke a partitioned
	// engine, here with crashes and maintenance windows on.
	f.Add(uint64(0xc3f6e86ceb22700c), byte(0x4d), byte(0xef), byte(0), byte(1), byte(0))
	f.Add(uint64(0xea88b13d3b3caf29), byte(0xaf), byte(0x3c), byte(33), byte(1), byte(0))
	f.Add(uint64(0xb28cd8d1d946a1fd), byte(0xa1), byte(0x46), byte(29), byte(1), byte(0))
	f.Fuzz(func(t *testing.T, seed uint64, polPick, selPick, staleness, faultPick, victimPick byte) {
		r := rand.New(rand.NewPCG(seed, seed^0x9e3779b9))
		plat, specs, err := randomFederation(r)
		if err != nil {
			t.Skip()
		}
		// Bound per-input cost: truncate the workload and cap simulated
		// time.
		if len(specs) > 80 {
			specs = specs[:80]
		}
		mk := func() Config {
			return Config{
				Platform:      plat,
				Initial:       federatedInitial(siteSelectorForIndex(int(selPick))),
				Policy:        multiSitePolicyForIndex(int(polPick), seed),
				UtilStaleness: float64(staleness % 40),
				Faults:        fuzzFaults(seed, faultPick, victimPick),
				MaxTime:       20000,
			}
		}
		res, err := Run(mk(), specs)
		if err != nil {
			if !strings.Contains(err.Error(), "exceeded MaxTime") {
				t.Fatalf("run failed: %v", err)
			}
			return
		}
		again, err := Run(mk(), specs)
		if err != nil {
			t.Fatalf("second run failed: %v", err)
		}
		if a, b := fingerprint(res), fingerprint(again); a != b {
			t.Fatalf("rerun diverged:\n%s", firstDiff(a, b))
		}
	})
}
