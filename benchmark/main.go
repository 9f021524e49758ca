// Command benchmark is the repository's performance measure: four
// workloads, the end-to-end metrics a user of the library and of the
// service would see, and a separate traced run that times every layer
// from outside. README.md in this directory explains how to read it;
// BENCHMARK.json at the root of the repository is its contract.
//
//	bash benchmark/run.sh                    all workloads, end to end
//	bash benchmark/run.sh -trace 1           ... plus the traced runs
//	bash benchmark/run.sh -selfcheck         end to end twice; repeatability
//	bash benchmark/run.sh -workload inc_40k -seed 2 -seconds 24 -trace 0
//
// With -workload it makes one run and prints the result as one JSON
// object on the last line of its standard output.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
)

func main() {
	var (
		name      = flag.String("workload", "", "run only this workload, in this process")
		seed      = flag.Int64("seed", 1, "seed of every generated input")
		secs      = flag.Float64("seconds", runSeconds, "length of the measured window")
		trace     = flag.Int("trace", 0, "1: the traced run, which yields the per-layer metrics")
		quick     = flag.Bool("quick", false, "3 s windows over a fifth of the rows; not for claims")
		selfcheck = flag.Bool("selfcheck", false, "run end to end twice and hold the difference against each bound")
		spec      = flag.Bool("spec", false, "print BENCHMARK.json and exit")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	if *spec {
		b, err := benchmarkJSON()
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(b))
		return
	}

	// More than four cores would only widen the gap between hosts; the
	// detector's parallel modes are measured as layers, not relied on.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))

	cfg := runConfig{seed: *seed, seconds: *secs, warm: warmSeconds, quick: *quick,
		trace: *trace != 0, outDir: filepath.Join("benchmark", "out")}
	if *quick {
		cfg.seconds, cfg.warm = min(cfg.seconds, 3), 1
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		fatal(err)
	}

	if *name == "" {
		if err := runAll(cfg, *selfcheck); err != nil {
			fatal(err)
		}
		return
	}
	wl, ok := workloadByName(*name)
	if !ok {
		fatal(fmt.Errorf("unknown workload %q", *name))
	}
	run := runEndToEnd
	if cfg.trace {
		run = runTraced
	}
	out, err := run(wl, cfg)
	if err != nil {
		fatal(fmt.Errorf("%s: %w", wl.name, err))
	}
	printMetrics(out, cfg.trace)
	line, err := json.Marshal(out)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !out.Correct {
		os.Exit(1)
	}
}

// printMetrics lists every metric by name with its unit, in the order
// of the contract.
func printMetrics(out *outcome, traced bool) {
	specs := endToEnd
	if traced {
		specs = perLayer
	}
	for _, m := range specs {
		fmt.Printf("  %-30s %14.4f %s\n", m.Name, out.Metrics[m.Name].Value, m.Unit)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}
