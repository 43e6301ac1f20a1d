package main

import (
	"math"
	"strings"
	"testing"

	"netbatch/internal/job"
	"netbatch/internal/trace"
)

func TestCheckFlags(t *testing.T) {
	// One job at the week preset's last submission, in minutes.
	week := &trace.Trace{Jobs: []job.Spec{{Submit: 10079}}}
	cases := []struct {
		name  string
		bin   float64
		cores int
		tr    *trace.Trace // nil means week
		want  string       // flag (and file) named in the error; empty means accepted
	}{
		{name: "defaults", bin: 100, cores: 19200},
		{name: "zero bin", bin: 0, cores: 19200, want: "-bin"},
		{name: "negative bin", bin: -5, cores: 19200, want: "-bin"},
		{name: "NaN bin", bin: math.NaN(), cores: 19200, want: "-bin"},
		{name: "infinite bin", bin: math.Inf(1), cores: 19200, want: "-bin"},
		{name: "bin too narrow for the horizon", bin: 1e-5, cores: 19200, want: "-bin"},
		{name: "zero cores", bin: 100, cores: 0, want: "-cores"},
		{name: "negative cores", bin: 100, cores: -10, want: "-cores"},
		{name: "empty trace", bin: 100, cores: 19200, tr: &trace.Trace{}, want: "-trace w.jsonl"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := checkFlags(tc.bin, tc.cores)
			if err == nil {
				tr := tc.tr
				if tr == nil {
					tr = week
				}
				err = checkTrace("w.jsonl", tr, tc.bin)
			}
			switch {
			case tc.want == "" && err != nil:
				t.Fatalf("rejected valid flags: %v", err)
			case tc.want != "" && err == nil:
				t.Fatalf("accepted -bin %v -cores %d, want an error naming %s", tc.bin, tc.cores, tc.want)
			case tc.want != "" && !strings.HasPrefix(err.Error(), tc.want+" "):
				t.Fatalf("error %q does not name %s", err, tc.want)
			}
		})
	}
}
