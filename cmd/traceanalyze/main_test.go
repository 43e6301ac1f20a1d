package main

import (
	"math"
	"strings"
	"testing"
)

func TestCheckFlags(t *testing.T) {
	const horizon = 10079 // the week preset's last submission, in minutes
	cases := []struct {
		name  string
		bin   float64
		cores int
		want  string // flag named in the error; empty means accepted
	}{
		{name: "defaults", bin: 100, cores: 19200},
		{name: "zero bin", bin: 0, cores: 19200, want: "-bin"},
		{name: "negative bin", bin: -5, cores: 19200, want: "-bin"},
		{name: "NaN bin", bin: math.NaN(), cores: 19200, want: "-bin"},
		{name: "infinite bin", bin: math.Inf(1), cores: 19200, want: "-bin"},
		{name: "bin too narrow for the horizon", bin: 1e-5, cores: 19200, want: "-bin"},
		{name: "zero cores", bin: 100, cores: 0, want: "-cores"},
		{name: "negative cores", bin: 100, cores: -10, want: "-cores"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := checkFlags(tc.bin, tc.cores)
			if err == nil {
				err = checkBins(tc.bin, horizon)
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
