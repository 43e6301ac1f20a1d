package main

import (
	"math"
	"strings"
	"testing"
	"time"
)

func TestCheckFlags(t *testing.T) {
	valid := numericFlags{scale: 0.05, seed: 42, seeds: 1}
	cases := []struct {
		name string
		set  func(*numericFlags)
		want string // flag named in the error; empty means accepted
	}{
		{name: "defaults", set: func(*numericFlags) {}},
		{name: "paper scale, busy", set: func(f *numericFlags) {
			f.scale, f.seeds, f.jobs = 1, 5, 8
			f.checkpointEvery, f.checkpointKeyframe, f.progress, f.timeout = 60, 4, time.Second, time.Minute
		}},
		{name: "zero scale", set: func(f *numericFlags) { f.scale = 0 }, want: "-scale"},
		{name: "negative scale", set: func(f *numericFlags) { f.scale = -1 }, want: "-scale"},
		{name: "NaN scale", set: func(f *numericFlags) { f.scale = math.NaN() }, want: "-scale"},
		{name: "infinite scale", set: func(f *numericFlags) { f.scale = math.Inf(1) }, want: "-scale"},
		{name: "zero seed", set: func(f *numericFlags) { f.seed = 0 }, want: "-seed"},
		{name: "zero seeds", set: func(f *numericFlags) { f.seeds = 0 }, want: "-seeds"},
		{name: "negative seeds", set: func(f *numericFlags) { f.seeds = -2 }, want: "-seeds"},
		{name: "negative jobs", set: func(f *numericFlags) { f.jobs = -3 }, want: "-jobs"},
		{name: "negative checkpoint cadence", set: func(f *numericFlags) { f.checkpointEvery = -5 }, want: "-checkpoint-every"},
		{name: "negative checkpoint keyframe", set: func(f *numericFlags) { f.checkpointKeyframe = -3 }, want: "-checkpoint-keyframe"},
		{name: "negative progress", set: func(f *numericFlags) { f.progress = -time.Second }, want: "-progress"},
		{name: "negative timeout", set: func(f *numericFlags) { f.timeout = -time.Second }, want: "-timeout"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := valid
			tc.set(&f)
			err := checkFlags(f)
			switch {
			case tc.want == "" && err != nil:
				t.Fatalf("rejected valid flags: %v", err)
			case tc.want != "" && err == nil:
				t.Fatalf("accepted %+v, want an error naming %s", f, tc.want)
			case tc.want != "" && !strings.HasPrefix(err.Error(), tc.want+" "):
				t.Fatalf("error %q does not name %s", err, tc.want)
			}
		})
	}
}
