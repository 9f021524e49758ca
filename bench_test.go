package ecfd

// One testing.B benchmark per figure of the paper's evaluation (§VI),
// at a reduced scale so `go test -bench=.` completes in minutes; run
// cmd/ecfdbench for configurable-scale sweeps. One ablation benchmark
// (BenchmarkPlanner) quantifies the engine's optimizer as a whole.

import (
	"fmt"
	"math/rand"
	"os"
	"testing"

	"ecfd/internal/bench"
	"ecfd/internal/detect"
	"ecfd/internal/gen"
	"ecfd/internal/relation"
	"ecfd/internal/sqldb"
	"ecfd/internal/sqldriver"
)

// benchScale keeps each figure sweep tractable under testing.B.
const benchScale = 0.02

func benchFigure(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		f, err := bench.Run(id, bench.Options{Scale: benchScale, Seed: 42})
		if err != nil {
			b.Fatal(err)
		}
		if len(f.Points) == 0 {
			b.Fatal("empty figure")
		}
	}
}

// BenchmarkFig5a — BATCHDETECT scalability in |D| (Fig. 5(a)).
func BenchmarkFig5a(b *testing.B) { benchFigure(b, "5a") }

// BenchmarkFig5b — BATCHDETECT scalability in noise% (Fig. 5(b)).
func BenchmarkFig5b(b *testing.B) { benchFigure(b, "5b") }

// BenchmarkFig5c — BATCHDETECT scalability in |Tp| (Fig. 5(c)).
func BenchmarkFig5c(b *testing.B) { benchFigure(b, "5c") }

// BenchmarkFig6a — INCDETECT vs BATCHDETECT across |D| (Fig. 6(a)).
func BenchmarkFig6a(b *testing.B) { benchFigure(b, "6a") }

// BenchmarkFig6b — INCDETECT vs BATCHDETECT across noise% (Fig. 6(b)).
func BenchmarkFig6b(b *testing.B) { benchFigure(b, "6b") }

// BenchmarkFig6c — INCDETECT vs BATCHDETECT across |Tp| (Fig. 6(c)).
func BenchmarkFig6c(b *testing.B) { benchFigure(b, "6c") }

// BenchmarkFig7a — effect of the update size on both detectors (Fig. 7(a)).
func BenchmarkFig7a(b *testing.B) { benchFigure(b, "7a") }

// BenchmarkFig7b — violation changes vs update size (Fig. 7(b)).
func BenchmarkFig7b(b *testing.B) { benchFigure(b, "7b") }

// batchDetectOnce measures a single BatchDetect over a fresh dataset —
// the unit underlying every Fig. 5 point.
func batchDetectOnce(b *testing.B, rows int) {
	b.Helper()
	batchDetectIn(b, rows, sqldb.Planned)
}

// batchDetectIn times BatchDetect on an engine switched to mode.
func batchDetectIn(b *testing.B, rows int, mode sqldb.Mode) {
	b.Helper()
	name := fmt.Sprintf("bench_unit_%d_%d", rows, rand.Int63())
	db, err := OpenMemory(name)
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	defer CloseMemory(name)
	sqldriver.Engine(name).SetMode(mode)
	d, err := detect.New(db, gen.Schema(), gen.Constraints())
	if err != nil {
		b.Fatal(err)
	}
	if err := d.Install(); err != nil {
		b.Fatal(err)
	}
	if _, err := d.LoadData(gen.Dataset(gen.Config{Rows: rows, Noise: 5, Seed: 1})); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.BatchDetect(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBatchDetect2k/10k give per-run costs at two dataset sizes.
func BenchmarkBatchDetect2k(b *testing.B)  { batchDetectOnce(b, 2_000) }
func BenchmarkBatchDetect10k(b *testing.B) { batchDetectOnce(b, 10_000) }

// BenchmarkLargeScaleDetect is BatchDetect over 1M rows. Generating and
// loading a million rows takes minutes of setup, so it only runs when
// ECFD_SLOWBENCH is set:
//
//	ECFD_SLOWBENCH=1 go test -bench LargeScaleDetect -benchtime 1x .
func BenchmarkLargeScaleDetect(b *testing.B) {
	if os.Getenv("ECFD_SLOWBENCH") == "" {
		b.Skip("set ECFD_SLOWBENCH=1 to run the 1M-row benchmark")
	}
	batchDetectOnce(b, 1_000_000)
}

// BenchmarkMixedRead measures the MVCC read path under write churn:
// each op commits one bulk UPDATE (forking a fresh epoch and its
// copy-on-write structures) and then runs 1000 point SELECTs against
// the new epoch. The interleave is deterministic — no racing
// goroutines — so the number is stable on a single-core host; readers
// racing a live writer are the repository benchmark's serve_mixed_10k
// workload.
func BenchmarkMixedRead(b *testing.B) {
	const rows = 20_000
	db := sqldb.NewDB()
	mustExec := func(q string) {
		b.Helper()
		if _, err := db.Exec(q); err != nil {
			b.Fatal(err)
		}
	}
	mustExec("CREATE TABLE d (id INTEGER, grp INTEGER, val TEXT)")
	mustExec("CREATE INDEX idx_d_id ON d (id)")
	for i := 0; i < rows; i += 500 {
		q := "INSERT INTO d VALUES "
		for j := i; j < i+500; j++ {
			if j > i {
				q += ", "
			}
			q += fmt.Sprintf("(%d, %d, 'v%d')", j, j%10, j%7)
		}
		mustExec(q)
	}
	point, err := db.Prepare("SELECT val FROM d WHERE id = ?")
	if err != nil {
		b.Fatal(err)
	}
	upd, err := db.Prepare("UPDATE d SET val = 'w' WHERE id >= ? AND id < ?")
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	cycle := func(i int) {
		lo := (i * 1_000) % rows
		if _, err := upd.Exec(relation.Int(int64(lo)), relation.Int(int64(lo+1_000))); err != nil {
			b.Fatal(err)
		}
		for j := 0; j < 1_000; j++ {
			if _, err := point.Query(relation.Int(int64(rng.Intn(rows)))); err != nil {
				b.Fatal(err)
			}
		}
	}
	// Untimed warmup settles the lazily built epoch structures and the
	// GC pacing before measurement.
	for i := 0; i < 5; i++ {
		cycle(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cycle(i + 5)
	}
}

// BenchmarkPlanner quantifies what the engine's optimizer buys
// (hash/indexed joins, predicate pushdown, OR-alternative hoisting,
// batch kernels, decorrelated EXISTS probes, semi-join updates): "off"
// runs every statement in sqldb.Reference — the all-pairs nested loop
// over a monolithic WHERE closure, subqueries re-executed per row.
func BenchmarkPlanner(b *testing.B) {
	b.Run("on", func(b *testing.B) { batchDetectIn(b, 1_000, sqldb.Planned) })
	b.Run("off", func(b *testing.B) { batchDetectIn(b, 1_000, sqldb.Reference) })
}

// BenchmarkNaiveDetect is the in-memory oracle on the same workload —
// the lower bound no SQL engine can beat, for context.
func BenchmarkNaiveDetect(b *testing.B) {
	inst := gen.Dataset(gen.Config{Rows: 10_000, Noise: 5, Seed: 1})
	sigma := gen.Constraints()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Detect(inst, sigma); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSatisfiable measures the exact satisfiability check on the
// experiment Σ (10 eCFDs, 9 attributes).
func BenchmarkSatisfiable(b *testing.B) {
	schema := gen.Schema()
	sigma := gen.Constraints()
	for i := 0; i < b.N; i++ {
		ok, _, err := Satisfiable(schema, sigma)
		if err != nil || !ok {
			b.Fatal(ok, err)
		}
	}
}

// BenchmarkMaxSS measures the §IV reduction + solve on the experiment Σ.
func BenchmarkMaxSS(b *testing.B) {
	schema := gen.Schema()
	sigma := gen.Constraints()
	for i := 0; i < b.N; i++ {
		if _, err := MaxSS(schema, sigma, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIncrementalInsert measures one 5%-sized incremental batch
// against a 10k base — the Fig. 6 unit.
func BenchmarkIncrementalInsert(b *testing.B) {
	cfg := gen.Config{Rows: 10_000, Noise: 5, Seed: 1}
	name := fmt.Sprintf("bench_inc_%d", rand.Int63())
	db, err := OpenMemory(name)
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	defer CloseMemory(name)
	d, err := detect.New(db, gen.Schema(), gen.Constraints())
	if err != nil {
		b.Fatal(err)
	}
	if err := d.Install(); err != nil {
		b.Fatal(err)
	}
	if _, err := d.LoadData(gen.Dataset(cfg)); err != nil {
		b.Fatal(err)
	}
	if _, err := d.BatchDetect(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		batch := gen.Updates(cfg, 500, int64(i))
		if _, _, err := d.InsertTuples(batch); err != nil {
			b.Fatal(err)
		}
	}
}
