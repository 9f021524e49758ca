package detect

import (
	"fmt"
	"time"
)

// BatchStats reports one BatchDetect run.
type BatchStats struct {
	SV, MV, Total int64
	Elapsed       time.Duration
}

// BatchDetect runs the paper's static detection (§V-A): reset the
// flags, flag single-tuple violations with the Qsv update, materialize
// the embedded-FD violation patterns into Aux(D) with Qmv, and flag the
// matching tuples. The statement count is fixed — two passes over D —
// regardless of |Σ|, pattern-tuple counts or set sizes. The whole
// sequence is submitted as one pipelined script (a single prepared
// driver round trip) inside one transaction: the engine executes the
// statements in order, and readers see the flags and Aux(D) before the
// run or after it, never reset halfway.
func (d *Detector) BatchDetect() (BatchStats, error) {
	start := time.Now()
	err := d.runAtomic(func(ex execer) error {
		_, err := ex.Exec(d.stmts.batchScript)
		return err
	})
	if err != nil {
		return BatchStats{}, fmt.Errorf("detect: batch: %w", err)
	}
	sv, mv, total, err := d.Counts()
	if err != nil {
		return BatchStats{}, err
	}
	return BatchStats{SV: sv, MV: mv, Total: total, Elapsed: time.Since(start)}, nil
}
