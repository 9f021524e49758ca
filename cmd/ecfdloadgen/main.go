// Command ecfdloadgen drives closed-loop load against a running
// ecfdserver and reports throughput and latency percentiles. It creates
// its own gen-backed session (the paper's schema and Σ, Rows tuples
// loaded server-side), runs one batch detect to establish flags and
// Aux, then fires back-to-back requests from N concurrent clients.
//
// Usage:
//
//	ecfdloadgen [-addr http://127.0.0.1:8080] [-clients 8] [-duration 10s]
//	            [-rows 10000] [-batch 8] [-mode check] [-json out.json]
//
// -json writes the result in the bench.Report figure format, the same
// as `ecfdbench -json` writes for the paper figures.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"ecfd/internal/bench"
	"ecfd/internal/server"
)

func main() {
	addr := flag.String("addr", "http://127.0.0.1:8080", "server base URL")
	clients := flag.Int("clients", 8, "concurrent closed-loop clients")
	duration := flag.Duration("duration", 10*time.Second, "measurement window")
	rows := flag.Int("rows", 10000, "dataset size for the run's session")
	noise := flag.Float64("noise", 5, "dataset corruption rate (percent)")
	batch := flag.Int("batch", 8, "tuples per check/updates request")
	mode := flag.String("mode", "check", "request mix: check | detect | updates | violations")
	seed := flag.Int64("seed", 1, "dataset seed")
	timeout := flag.Duration("timeout", 30*time.Second, "per-request client timeout")
	keep := flag.Bool("keep", false, "leave the session alive after the run")
	jsonPath := flag.String("json", "", "also write bench.Report JSON to this path")
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "usage: ecfdloadgen [-addr URL] [-clients N] [-duration 10s] [-mode check]")
		os.Exit(2)
	}

	res, err := server.RunLoad(server.LoadOptions{
		BaseURL:  *addr,
		Clients:  *clients,
		Duration: *duration,
		Mode:     *mode,
		Batch:    *batch,
		Rows:     *rows,
		Noise:    *noise,
		Seed:     *seed,
		Timeout:  *timeout,
		Keep:     *keep,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "ecfdloadgen: %v\n", err)
		os.Exit(1)
	}

	fmt.Printf("mode=%s clients=%d rows=%d batch=%d duration=%.1fs\n",
		res.Mode, res.Clients, res.Rows, res.Batch, res.Seconds)
	fmt.Printf("requests=%d rejected=%d errors=%d\n", res.Requests, res.Rejected, res.Errors)
	fmt.Printf("qps=%.1f p50=%.3fms p95=%.3fms p99=%.3fms max=%.3fms\n",
		res.QPS, res.P50Ms, res.P95Ms, res.P99Ms, res.MaxMs)
	if res.SessionID != "" {
		fmt.Printf("session=%s (kept)\n", res.SessionID)
	}

	if *jsonPath != "" {
		fig := &bench.Figure{
			ID:     "server",
			Title:  fmt.Sprintf("ecfdserver %s load (%d clients, %d rows)", res.Mode, res.Clients, res.Rows),
			XLabel: "mode",
			YLabel: "qps / latency ms",
			Names:  []string{"qps", "p50_ms", "p95_ms", "p99_ms", "rejected", "errors"},
			Points: []bench.Point{{
				X: res.Mode,
				Series: map[string]float64{
					"qps":      res.QPS,
					"p50_ms":   res.P50Ms,
					"p95_ms":   res.P95Ms,
					"p99_ms":   res.P99Ms,
					"rejected": float64(res.Rejected),
					"errors":   float64(res.Errors),
				},
			}},
		}
		rep := &bench.Report{Scale: 1, Seed: *seed, Figures: []*bench.Figure{fig}}
		f, err := os.Create(*jsonPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ecfdloadgen: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := rep.WriteJSON(f); err != nil {
			fmt.Fprintf(os.Stderr, "ecfdloadgen: write %s: %v\n", *jsonPath, err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *jsonPath)
	}

	if res.Requests == 0 {
		fmt.Fprintln(os.Stderr, "ecfdloadgen: no successful requests")
		os.Exit(1)
	}
}
