package main

import (
	"math"
	"strings"
	"testing"
)

func TestScaleAndPresetChecked(t *testing.T) {
	cases := []struct {
		name   string
		preset string
		scale  float64
		want   string // prefix of the error; empty means accepted
	}{
		{name: "defaults", preset: "week", scale: 1},
		{name: "zero scale", preset: "week", scale: 0, want: "-scale "},
		{name: "negative scale", preset: "week", scale: -1, want: "-scale "},
		{name: "NaN scale", preset: "week", scale: math.NaN(), want: "-scale "},
		{name: "infinite scale", preset: "week", scale: math.Inf(1), want: "-scale "},
		{name: "unknown preset", preset: "month", scale: 1, want: `trace: unknown preset "month"`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := checkScale(tc.scale)
			if err == nil {
				_, err = loadTrace("", tc.preset, 42, tc.scale)
			}
			switch {
			case tc.want == "" && err != nil:
				t.Fatalf("rejected valid flags: %v", err)
			case tc.want != "" && err == nil:
				t.Fatalf("accepted -preset %s -scale %v, want an error starting %q", tc.preset, tc.scale, tc.want)
			case tc.want != "" && !strings.HasPrefix(err.Error(), tc.want):
				t.Fatalf("error %q does not start with %q", err, tc.want)
			}
		})
	}
}
