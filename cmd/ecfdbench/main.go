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
// set (join order, hash/index access paths, semi-join updates).
package main

import (
	"database/sql"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"ecfd/internal/bench"
	"ecfd/internal/detect"
	"ecfd/internal/gen"
	"ecfd/internal/sqldriver"
)

func main() {
	fig := flag.String("fig", "all", "figure id (5a 5b 5c 6a 6b 6c 7a 7b) or 'all'")
	scale := flag.Float64("scale", 0.1, "dataset scale relative to the paper (1.0 = |D| up to 100k)")
	seed := flag.Int64("seed", 42, "generator seed")
	asJSON := flag.Bool("json", false, "emit figure series as machine-readable JSON")
	explain := flag.Bool("explain", false, "print the query plans of the detector's fixed statements and exit")
	flag.Parse()

	if *explain {
		if err := explainPlans(*seed); err != nil {
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

// explainPlans builds a small detector instance and prints the plans
// the engine chooses for its fixed statement set — the EXPLAIN-style
// probe used to sanity-check that the Fig. 4 queries run as planned
// joins (pattern side driving, probes index-backed) rather than
// all-pairs nested loops.
func explainPlans(seed int64) error {
	const dsn = "bench_explain"
	db, err := sql.Open(sqldriver.DriverName, dsn)
	if err != nil {
		return err
	}
	defer db.Close()
	defer sqldriver.Unregister(dsn)

	d, err := detect.New(db, gen.Schema(), gen.Constraints())
	if err != nil {
		return err
	}
	if err := d.Install(); err != nil {
		return err
	}
	cfg := gen.Config{Rows: 1000, Noise: 5, Seed: seed}
	rids, err := d.LoadData(gen.Dataset(cfg))
	if err != nil {
		return err
	}
	if _, err := d.BatchDetect(); err != nil {
		return err
	}
	// One 8+8 update leaves the staging tables at their working size, so
	// the incremental statements plan as they do in a running session.
	if _, _, err := d.ApplyUpdates(gen.Updates(cfg, 8, 0), rids[:8]); err != nil {
		return err
	}

	eng := sqldriver.Engine(dsn)
	qsvSelect, qsvUpdate, qmvInsert, mvUpdate := d.SQL()
	type named struct{ name, q string }
	stmts := []named{
		{"Qsv (select form)", qsvSelect},
		{"Qsv (SV update)", qsvUpdate},
		{"Qmv (Aux insert)", qmvInsert},
		{"MV update", mvUpdate},
		{"Violations (ORDER BY RID)", fmt.Sprintf(
			"SELECT RID FROM %s WHERE SV = 1 OR MV = 1 ORDER BY RID", d.DataTable())},
	}
	inc := d.IncrementalSQL()
	for i, q := range inc {
		head, _, _ := strings.Cut(q, "\n")
		if len(head) > 60 {
			head = head[:60] + "…"
		}
		stmts = append(stmts, named{fmt.Sprintf("incremental %d/%d: %s", i+1, len(inc), head), q})
	}
	for _, s := range stmts {
		plan, err := eng.Explain(s.q)
		if err != nil {
			return fmt.Errorf("%s: %w", s.name, err)
		}
		fmt.Printf("-- %s --\n%s\n", s.name, plan)
	}
	return nil
}
