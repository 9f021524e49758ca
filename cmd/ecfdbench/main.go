// Command ecfdbench regenerates the paper's experimental figures
// (§VI, Figs. 5–7). Each figure prints as an aligned table of the same
// series the paper plots, or — with -json — as one machine-readable
// JSON report. Performance numbers of this implementation come from the
// repository benchmark (bash benchmark/run.sh), not from here.
//
// Usage:
//
//	ecfdbench [-fig 5a|5b|5c|6a|6b|6c|7a|7b|all] [-scale 0.1]
//	          [-seed 42] [-json] [-explain]
//
// Scale 1.0 is paper scale (|D| up to 100k tuples); the default 0.1
// completes the full suite in minutes. -explain skips the sweeps and
// prints the engine's query plans for the detector's fixed statement
// set (join order, hash/index access paths, semi-join updates;
// detect.ExplainPlans).
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"ecfd/internal/bench"
	"ecfd/internal/detect"
)

func main() {
	fig := flag.String("fig", "all", "figure id (5a 5b 5c 6a 6b 6c 7a 7b) or 'all'")
	scale := flag.Float64("scale", 0.1, "dataset scale relative to the paper (1.0 = |D| up to 100k)")
	seed := flag.Int64("seed", 42, "generator seed")
	asJSON := flag.Bool("json", false, "emit figure series as machine-readable JSON")
	explain := flag.Bool("explain", false, "print the query plans of the detector's fixed statements and exit")
	flag.Parse()

	if *explain {
		if err := detect.ExplainPlans(os.Stdout, *seed); err != nil {
			fmt.Fprintf(os.Stderr, "ecfdbench: explain: %v\n", err)
			os.Exit(1)
		}
		return
	}

	opt := bench.Options{Scale: *scale, Seed: *seed}
	ids := []string{*fig}
	if *fig == "all" {
		ids = bench.FigureIDs()
	}
	if !*asJSON {
		fmt.Printf("eCFD experiment suite — scale %.3g, seed %d\n\n", *scale, *seed)
	}
	report := &bench.Report{Scale: *scale, Seed: *seed}
	for _, id := range ids {
		start := time.Now()
		f, err := bench.Run(id, opt)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ecfdbench: figure %s: %v\n", id, err)
			os.Exit(1)
		}
		if *asJSON {
			report.Figures = append(report.Figures, f)
			continue
		}
		f.Print(os.Stdout)
		fmt.Printf("[figure %s regenerated in %v]\n\n", id, time.Since(start).Round(time.Millisecond))
	}
	if *asJSON {
		if err := report.WriteJSON(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "ecfdbench: %v\n", err)
			os.Exit(1)
		}
	}
}
