package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"reflect"
	"strconv"
	"strings"

	"netbatch/internal/metrics"
	"netbatch/internal/sim"
)

// cellDigest hashes the simulated outcome of one cell: every field of
// its metrics.Summary, floats as hex so that a one-ulp change shows,
// plus the counters of sim.Result that describe the simulated system.
// Execution counters (events, alias retirements, queue high-water
// marks) describe how the engine ran, not what it simulated, and stay
// out.
func cellDigest(s metrics.Summary, r *sim.Result) string {
	var b strings.Builder
	put := func(name string, v reflect.Value) {
		b.WriteString(name)
		b.WriteByte('=')
		switch v.Kind() {
		case reflect.Float64:
			b.WriteString(strconv.FormatFloat(v.Float(), 'x', -1, 64))
		case reflect.Int, reflect.Int64:
			b.WriteString(strconv.FormatInt(v.Int(), 10))
		default:
			panic(fmt.Sprintf("cellDigest: field %s has unhandled kind %s", name, v.Kind()))
		}
		b.WriteByte(';')
	}
	sv := reflect.ValueOf(s)
	for i := 0; i < sv.NumField(); i++ {
		put(sv.Type().Field(i).Name, sv.Field(i))
	}
	for _, c := range []struct {
		name string
		v    any
	}{
		{"Preemptions", r.Preemptions},
		{"Restarts", r.Restarts},
		{"WaitMoves", r.WaitMoves},
		{"CrossSiteSubmits", r.CrossSiteSubmits},
		{"CrossSiteMoves", r.CrossSiteMoves},
		{"Kills", r.Kills},
		{"Requeues", r.Requeues},
		{"Makespan", r.Makespan},
	} {
		put("result."+c.name, reflect.ValueOf(c.v))
	}
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:12])
}

// referenceJSON holds the cell digests recorded for each workload:
// workload → refKey → cell label → digest. Regenerate an entry with
// -record.
//
//go:embed reference.json
var referenceJSON []byte

// heldOutSeed is the second seed with recorded digests, next to the
// default 42.
const heldOutSeed = 7

type references map[string]map[string]map[string]string

func loadReferences() (references, error) {
	var refs references
	if err := json.Unmarshal(referenceJSON, &refs); err != nil {
		return nil, fmt.Errorf("reference.json: %w", err)
	}
	return refs, nil
}

// refKey names a recorded run: the seed alone at the workload's
// default scale, else "<seed>@<scale>".
func refKey(w *workload, seed uint64, scale float64) string {
	if scale == w.scale {
		return strconv.FormatUint(seed, 10)
	}
	return fmt.Sprintf("%d@%g", seed, scale)
}

// lookup returns the recorded digests of a workload's run, or nil when
// none were recorded.
func (r references) lookup(w *workload, seed uint64, scale float64) map[string]string {
	return r[w.name][refKey(w, seed, scale)]
}
