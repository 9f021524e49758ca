package detect

import (
	"fmt"
	"time"

	"ecfd/internal/relation"
)

// IncStats reports one incremental maintenance step.
type IncStats struct {
	// Applied counts the tuples inserted plus the rows deleted: a RID named
	// twice, or naming no row, removes nothing and counts nothing.
	Applied int64
	Elapsed time.Duration
}

// InsertTuples applies ΔD⁺ and incrementally maintains the violation
// flags and Aux(D) (paper §V-B, steps (1) and (2.a)–(2.e)):
//
//  1. stage the batch and flag its single-tuple violations (Qsv on ΔD⁺
//     alone — SV is a per-tuple property);
//  2. collect the group keys the batch touches and snapshot the touched
//     Aux rows;
//  3. merge the batch into D;
//  4. drop and recompute exactly the touched Aux groups, and derive
//     aux_new — the groups that just *became* violating;
//  5. set MV on the merged rows matching any Aux pattern (RID-range
//     restricted) and on pre-existing clean rows of aux_new groups
//     (insertions never clear flags, so no clearing step).
//
// It requires the flags and Aux to be current (run BatchDetect once
// after Install/LoadData). Returns the RIDs assigned to the new rows.
func (d *Detector) InsertTuples(batch *relation.Relation) ([]int64, IncStats, error) {
	return d.ApplyUpdates(batch, nil)
}

// DeleteTuples applies ΔD⁻ by RID and incrementally maintains the
// flags and Aux(D) (paper §V-B, deletions): deletions cannot introduce
// violations, so the work is collecting the touched group keys from the
// doomed tuples, removing the rows, recomputing the touched Aux groups,
// and clearing MV on members of groups that were violating (aux_old)
// and match no Aux pattern any more. RIDs that name no row, or repeat,
// are ignored; IncStats.Applied counts the rows removed.
func (d *Detector) DeleteTuples(rids []int64) (IncStats, error) {
	if len(rids) == 0 {
		return IncStats{}, nil
	}
	_, st, err := d.ApplyUpdates(nil, rids)
	return st, err
}

// InsertRaw adds tuples without maintaining flags or Aux — the state
// BatchDetect expects when it is "applied to the data after database
// updates are executed" (§VI, Experiment 2). Returns the new RIDs.
func (d *Detector) InsertRaw(batch *relation.Relation) ([]int64, error) {
	if err := d.checkBatch(batch); err != nil {
		return nil, err
	}
	return d.bulkInsert(d.db, d.dataTable, batch)
}

// DeleteRaw removes tuples by RID without maintaining flags or Aux. It
// stages the RIDs like ApplyUpdates does and runs the same fixed
// deletion statement, so the rows are reached through the RID index.
func (d *Detector) DeleteRaw(rids []int64) error {
	_, err := d.deleteRaw(rids)
	return err
}

// deleteRaw is DeleteRaw returning the number of rows removed.
func (d *Detector) deleteRaw(rids []int64) (int64, error) {
	if len(rids) == 0 {
		return 0, nil
	}
	var removed int64
	err := d.runAtomic(func(ex execer) error {
		if err := d.loadDelRids(ex, rids); err != nil {
			return err
		}
		res, err := ex.Exec(d.stmts.deleteRows)
		if err != nil {
			return err
		}
		removed, err = res.RowsAffected()
		return err
	})
	return removed, err
}

// ApplyUpdates applies a combined update ΔD = (ΔD⁻, ΔD⁺) — the shape
// of the paper's Experiment 2 / Fig. 7, where equal numbers of tuples
// are deleted and inserted — with a single touched-keys collection and
// a single Aux recompute shared by both halves. Either half may be
// empty. Returns the RIDs assigned to the inserted rows.
func (d *Detector) ApplyUpdates(insBatch *relation.Relation, delRids []int64) ([]int64, IncStats, error) {
	start := time.Now()
	if insBatch != nil && insBatch.Len() > 0 {
		if err := d.checkBatch(insBatch); err != nil {
			return nil, IncStats{}, err
		}
	}
	delRids = distinctRIDs(delRids)
	var applied int64
	var rids []int64
	err := d.runAtomic(func(ex execer) error {
		firstRID := d.nextRID + 1
		if _, err := ex.Exec("TRUNCATE TABLE " + d.insTable); err != nil {
			return err
		}
		if insBatch != nil && insBatch.Len() > 0 {
			var err error
			if rids, err = d.bulkInsert(ex, d.insTable, insBatch); err != nil {
				return err
			}
			applied = int64(insBatch.Len())
		}
		if err := d.loadDelRids(ex, delRids); err != nil {
			return err
		}
		if len(delRids) > 0 {
			// The staged RIDs that name a row: the script deletes exactly
			// those. The count is driven by _del through the RID index.
			var removed int64
			if err := ex.QueryRow(d.stmts.delExisting).Scan(&removed); err != nil {
				return err
			}
			applied += removed
		}

		// The §V-B maintenance sequence runs as one pipelined script (see
		// statements.incScript): a single prepared round trip, with the two
		// RID-threshold parameters bound positionally (mvSetNew, mvSetOld).
		if _, err := ex.Exec(d.stmts.incScript, firstRID, firstRID); err != nil {
			return fmt.Errorf("detect: combined update: %w", err)
		}
		return nil
	})
	if err != nil {
		return nil, IncStats{}, err
	}
	return rids, IncStats{Applied: applied, Elapsed: time.Since(start)}, nil
}

// distinctRIDs returns rids without repeats, in first-seen order; rids
// itself is left as it is.
func distinctRIDs(rids []int64) []int64 {
	seen := make(map[int64]bool, len(rids))
	out := make([]int64, 0, len(rids))
	for _, rid := range rids {
		if !seen[rid] {
			seen[rid] = true
			out = append(out, rid)
		}
	}
	return out
}

// loadDelRids fills the ΔD⁻ staging table. The RIDs bind as parameters
// of the insertText shape bulkInsert uses: one statement text per batch
// width, so a repeated update size is served by the plan cache.
func (d *Detector) loadDelRids(ex execer, rids []int64) error {
	if _, err := ex.Exec("TRUNCATE TABLE " + d.delTable); err != nil {
		return err
	}
	for len(rids) > 0 {
		chunk := rids
		if len(chunk) > insertBatch {
			chunk = chunk[:insertBatch]
		}
		rids = rids[len(chunk):]
		args := make([]any, len(chunk))
		for i, rid := range chunk {
			args[i] = rid
		}
		if _, err := ex.Exec(d.insertText(d.delTable, len(chunk), 1), args...); err != nil {
			return err
		}
	}
	return nil
}

// RIDs returns every row id currently in the data table, ordered.
func (d *Detector) RIDs() ([]int64, error) {
	rows, err := d.db.Query(fmt.Sprintf("SELECT %s FROM %s ORDER BY %s", ColRID, d.dataTable, ColRID))
	if err != nil {
		return nil, err
	}
	defer rows.Close()
	var out []int64
	for rows.Next() {
		var rid int64
		if err := rows.Scan(&rid); err != nil {
			return nil, err
		}
		out = append(out, rid)
	}
	return out, rows.Err()
}
