package sim

// FuzzParallelOrdering model-checks the optimistic engine's
// cross-partition event ordering against the serial kernel: a fuzzed
// (seed, policy, site selector, staleness, fault regime) coordinate
// synthesizes a random multi-site federation and workload, both
// engines simulate the same trace, and every observable — job records,
// counters (including the fault set), series — must match bit for bit.
// faultPick == 0 reproduces the historical fault-free corpus; any other
// value enables machine crashes (and, depending on its low bits,
// maintenance windows under either victim policy). Runs where the
// optimistic engine reports an ambiguous cross-partition timestamp tie
// (possible with fuzzed integer delays; the serial scheduling-order
// tie-break is not reconstructible) skip the comparison but still
// require both engines to complete cleanly. The committed corpus pins
// the coordinates that found real ordering bugs during development: a
// cross-site alias dispatch, an arrival/refresh tie on the sample
// grid, a stale decision fence ahead of an unclaimed spawning event,
// and a machine crash whose kill-requeue races a cross-site arrival
// (the coordinate class that exposed the cross-alias victim hazard —
// see the alias-risk ledger promotion in shard.go).

import (
	"math/rand/v2"
	"sync"
	"testing"
)

// fuzzCmp tallies how many corpus inputs actually reached the
// bit-identity comparison versus skipping it on an ambiguous tie. A
// skip is legitimate for one coordinate, but if every input skips the
// fuzz target has silently stopped checking anything — the coverage
// test after the fuzz target turns that into a failure.
var fuzzCmp struct {
	sync.Mutex
	runs, skips int
}

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

func FuzzParallelOrdering(f *testing.F) {
	f.Add(uint64(0x64ccd4a6193fcb8f), byte(0xcb), byte(0x38), byte(0x3e), byte(0), byte(0))
	f.Add(uint64(0xaeb86490e1d38afc), byte(0xaa), byte(0x67), byte(0x8d), byte(0), byte(0))
	f.Add(uint64(0xcd3965e7d3eebe1f), byte(0x65), byte(0x8b), byte(0xda), byte(0), byte(0))
	f.Add(uint64(0x770d30828739e4ab), byte(0x0b), byte(0x97), byte(0xac), byte(0), byte(0))
	f.Add(uint64(42), byte(0), byte(0), byte(0), byte(0), byte(0))
	f.Add(uint64(7), byte(1), byte(2), byte(20), byte(0), byte(0))
	f.Add(uint64(11), byte(3), byte(2), byte(5), byte(9), byte(1))
	f.Fuzz(func(t *testing.T, seed uint64, polPick, selPick, staleness, faultPick, victimPick byte) {
		r := rand.New(rand.NewPCG(seed, seed^0x9e3779b9))
		plat, specs, err := randomFederation(r)
		if err != nil {
			t.Skip()
		}
		// Bound per-input cost: truncate the workload and cap simulated
		// time. Runs that exceed the cap must fail identically in both
		// engines, which is itself part of the contract.
		if len(specs) > 80 {
			specs = specs[:80]
		}
		mk := func() Config {
			return Config{
				Platform:          plat,
				Initial:           federatedInitial(siteSelectorForIndex(int(selPick))),
				Policy:            multiSitePolicyForIndex(int(polPick), seed),
				UtilStaleness:     float64(staleness % 40),
				Faults:            fuzzFaults(seed, faultPick, victimPick),
				CheckConservation: true,
				MaxTime:           20000,
			}
		}
		serialRes, serialErr := Run(mk(), specs)
		opt := mk()
		opt.Engine = EngineOptimistic
		optRes, optErr := Run(opt, specs)
		if (serialErr == nil) != (optErr == nil) {
			t.Fatalf("engines disagree on failure: serial=%v optimistic=%v", serialErr, optErr)
		}
		if serialErr != nil {
			return
		}
		fuzzCmp.Lock()
		fuzzCmp.runs++
		if optRes.ambiguousTies {
			fuzzCmp.skips++
		}
		fuzzCmp.Unlock()
		if optRes.ambiguousTies {
			t.Skip("ambiguous cross-partition tie: serial order not reconstructible")
		}
		if a, b := fingerprint(serialRes), fingerprint(optRes); a != b {
			t.Fatalf("serial and optimistic results diverge:\n%s", firstDiff(a, b))
		}
	})
}

// TestFuzzCorpusComparisonCoverage runs after the fuzz target's seed
// corpus (in-file declaration order) and fails if the bit-identity
// comparison was skipped on every single input. Guarded on runs > 0 so
// -run filters and -shuffle cannot produce a vacuous failure or a false
// pass being load-bearing.
func TestFuzzCorpusComparisonCoverage(t *testing.T) {
	fuzzCmp.Lock()
	defer fuzzCmp.Unlock()
	if fuzzCmp.runs > 0 && fuzzCmp.skips >= fuzzCmp.runs {
		t.Errorf("all %d fuzz corpus inputs skipped the comparison as ambiguous ties", fuzzCmp.runs)
	}
}
