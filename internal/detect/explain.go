package detect

import (
	"database/sql"
	"fmt"
	"io"
	"strings"

	"ecfd/internal/gen"
	"ecfd/internal/sqldriver"
)

// ExplainPlans builds a small detector instance — 1000 generated rows of
// the given seed, after one batch detection, one 8+8 update and one
// 8-tuple Check — and writes the plans the engine chooses for its fixed
// statement set: the batch statements, the incremental script and
// Check's two SELECTs. It is the EXPLAIN-style probe that the Fig. 4
// queries run as planned joins (pattern side driving, probes
// index-backed) rather than all-pairs nested loops; `ecfdbench
// -explain` prints it and testdata/plans.golden pins it.
func ExplainPlans(w io.Writer, seed int64) error {
	const dsn = "bench_explain"
	db, err := sql.Open(sqldriver.DriverName, dsn)
	if err != nil {
		return err
	}
	defer db.Close()
	defer sqldriver.Unregister(dsn)

	d, err := New(db, gen.Schema(), gen.Constraints())
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
	// One 8+8 update and one 8-tuple check leave the staging tables at
	// their working size, so every statement plans as it does in a
	// running session.
	if _, _, err := d.ApplyUpdates(gen.Updates(cfg, 8, 0), rids[:8]); err != nil {
		return err
	}
	if _, err := d.Check(gen.Updates(cfg, 8, 1)); err != nil {
		return err
	}

	type named struct{ name, q string }
	stmts := []named{
		{"Qsv (select form)", d.stmts.qsvSelect},
		{"Qsv (SV update)", d.stmts.qsvUpdate},
		{"Qmv (Aux insert)", d.stmts.qmvInsert},
		{"MV update", d.stmts.mvUpdate},
		{"Violations (ORDER BY RID)", fmt.Sprintf(
			"SELECT RID FROM %s WHERE SV = 1 OR MV = 1 ORDER BY RID", d.dataTable)},
	}
	inc := d.stmts.incStmts
	for i, q := range inc {
		head, _, _ := strings.Cut(q, "\n")
		if len(head) > 60 {
			head = head[:60] + "…"
		}
		stmts = append(stmts, named{fmt.Sprintf("incremental %d/%d: %s", i+1, len(inc), head), q})
	}
	stmts = append(stmts,
		named{"Check (SV RIDs)", d.stmts.checkSVRIDs},
		named{"Check (MV RIDs)", d.stmts.checkMVRIDs})
	eng := sqldriver.Engine(dsn)
	for _, s := range stmts {
		plan, err := eng.Explain(s.q)
		if err != nil {
			return fmt.Errorf("%s: %w", s.name, err)
		}
		if _, err := fmt.Fprintf(w, "-- %s --\n%s\n", s.name, plan); err != nil {
			return err
		}
	}
	return nil
}
