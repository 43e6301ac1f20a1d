// Command tracegen emits synthetic NetBatch-shaped job traces.
//
// Usage:
//
//	tracegen -preset week|highsusp|year [-seed 42] [-scale 1.0]
//	         [-format jsonl|csv] [-o trace.jsonl]
//
// The presets are the calibrated workloads behind the paper's
// experiments (see internal/trace/presets.go).
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"

	"netbatch/internal/trace"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "tracegen:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		preset = flag.String("preset", "week", "workload preset: week, highsusp, or year")
		seed   = flag.Uint64("seed", 42, "random seed")
		scale  = flag.Float64("scale", 1.0, "arrival-rate scale (pair with an equally scaled platform)")
		format = flag.String("format", "jsonl", "output format: jsonl or csv")
		out    = flag.String("o", "", "output file (default: stdout)")
	)
	flag.Parse()

	cfg, err := presetConfig(*preset, *seed, *scale)
	if err != nil {
		return err
	}
	tr, err := trace.Generate(cfg)
	if err != nil {
		return err
	}

	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer func() {
			if cerr := f.Close(); cerr != nil {
				fmt.Fprintln(os.Stderr, "tracegen: close:", cerr)
			}
		}()
		w = f
	}
	switch *format {
	case "jsonl":
		err = tr.WriteJSONL(w)
	case "csv":
		err = tr.WriteCSV(w)
	default:
		return fmt.Errorf("unknown format %q (want jsonl or csv)", *format)
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "tracegen: %d jobs over %.0f minutes\n", len(tr.Jobs), tr.Horizon())
	return nil
}

// presetConfig resolves -preset at -seed and -scale. It rejects a
// -scale that is not finite and positive before anything is generated.
func presetConfig(preset string, seed uint64, scale float64) (trace.GeneratorConfig, error) {
	if !(scale > 0) || math.IsInf(scale, 1) {
		return trace.GeneratorConfig{}, fmt.Errorf("-scale must be finite and positive, got %v", scale)
	}
	return trace.Preset(preset, seed, scale)
}
