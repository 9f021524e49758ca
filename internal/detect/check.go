package detect

import (
	"fmt"

	"ecfd/internal/relation"
)

// CheckResult reports the advisory verdict for one tuple of a Check
// batch.
type CheckResult struct {
	SV bool // the tuple violates some pattern constraint by itself (exact)
	MV bool // the tuple falls into a currently-violating group (Aux member)
}

// Check answers "would these tuples violate Σ?" without admitting them:
// the batch is staged into the _ins table and the two fixed detection
// queries run over the staging table against the current flags and
// Aux(D). Nothing is merged — the data table, the violation flags and
// Aux are untouched — so Check never scans D. It is four statements, a
// TRUNCATE and an INSERT on the staging table (two epochs published,
// both touching that table alone) and the two SELECTs, cheap enough to
// run at request rate between updates (the server's hot path). Warm, the
// SELECTs re-derive nothing from the pattern table or Aux: their plan
// instances keep the pattern rows' guard outcomes and the hash build of
// Aux for as long as those tables keep their version (sqldb's "What an
// idle plan instance may keep"), so a warm Check evaluates no guard,
// reads no Aux row, and does the same work at any |D| (work.golden).
//
// The verdict's contract:
//
//   - SV is exact: single-tuple violation is a per-tuple property
//     (Fig. 4, top), so staging answers it as well as merging would.
//   - MV reports membership in a group that is *currently* violating —
//     the Aux(D) probe the incremental step runs on merged rows. A
//     tuple that would newly tip a clean group into violation (it
//     agrees with exactly one existing tuple on an embedded FD's LHS
//     but differs on the RHS) is not reported; observing that
//     transition requires the Aux recompute in ApplyUpdates.
//
// Check requires the flags and Aux to be current (run BatchDetect once
// after loading). It shares the _ins staging table with ApplyUpdates,
// so callers serialize Check against mutating calls on the same
// Detector; the server holds its per-session lock across both.
func (d *Detector) Check(batch *relation.Relation) ([]CheckResult, error) {
	if err := d.checkBatch(batch); err != nil {
		return nil, err
	}
	out := make([]CheckResult, batch.Len())
	if batch.Len() == 0 {
		return out, nil
	}
	if _, err := d.db.Exec("TRUNCATE TABLE " + d.insTable); err != nil {
		return nil, fmt.Errorf("detect: check: %w", err)
	}
	// Stage with the 1-based batch position as the RID: the check
	// statements never join the staging table to the data by RID, so
	// colliding with real RIDs is harmless, and a fixed RID sequence
	// keeps the insert text constant per batch size (plan-cache hit).
	width := d.schema.Width() + 3 // RID + R + SV + MV
	for start := 0; start < batch.Len(); start += insertBatch {
		end := start + insertBatch
		if end > batch.Len() {
			end = batch.Len()
		}
		chunk := batch.Rows[start:end]
		args := make([]any, 0, len(chunk)*width)
		for i, row := range chunk {
			args = append(args, int64(start+i+1))
			for _, v := range row {
				args = append(args, valueArg(v))
			}
			args = append(args, 0, 0)
		}
		if _, err := d.db.Exec(d.insertText(d.insTable, len(chunk), width), args...); err != nil {
			return nil, fmt.Errorf("detect: check: stage batch: %w", err)
		}
	}
	mark := func(q string, set func(r *CheckResult)) error {
		rows, err := d.db.Query(q)
		if err != nil {
			return err
		}
		defer rows.Close()
		for rows.Next() {
			var rid int64
			if err := rows.Scan(&rid); err != nil {
				return err
			}
			if rid >= 1 && rid <= int64(len(out)) {
				set(&out[rid-1])
			}
		}
		return rows.Err()
	}
	if err := mark(d.stmts.checkSVRIDs, func(r *CheckResult) { r.SV = true }); err != nil {
		return nil, fmt.Errorf("detect: check: %w", err)
	}
	if err := mark(d.stmts.checkMVRIDs, func(r *CheckResult) { r.MV = true }); err != nil {
		return nil, fmt.Errorf("detect: check: %w", err)
	}
	return out, nil
}
