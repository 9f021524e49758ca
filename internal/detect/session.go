package detect

import (
	"database/sql"
	"fmt"
)

// execer is the statement surface of *sql.Tx (and *sql.DB) the bulk-load
// and staging helpers run through: every mutating entry point runs them
// inside one transaction (runAtomic).
type execer interface {
	Exec(query string, args ...any) (sql.Result, error)
	Prepare(query string) (*sql.Stmt, error)
	QueryRow(query string, args ...any) *sql.Row
}

// SetAtomicUpdates does nothing: every mutating call runs as one
// transaction (runAtomic).
//
// Deprecated: every update is one transaction; the switch goes.
func (d *Detector) SetAtomicUpdates(on bool) {}

// Resume rebinds a detector to tables installed by a previous process
// — the restart path of a durable session: open the same DSN, rebuild
// the Detector with the same schema and Σ, and Resume instead of
// Install. It verifies the persisted encoding matches Σ and restores
// the RID allocator from the recovered data; flags, Aux and the RID
// index are already in the recovered tables, so detection continues
// where the crashed process left off.
func (d *Detector) Resume() error {
	var n int64
	if err := d.db.QueryRow("SELECT COUNT(*) FROM " + d.encTable).Scan(&n); err != nil {
		return fmt.Errorf("detect: resume: reading %s (was Install ever run on this database?): %w", d.encTable, err)
	}
	if n != int64(len(d.sigma)) {
		return fmt.Errorf("detect: resume: %s encodes %d constraints but Σ splits into %d — the persisted session was built from a different constraint set",
			d.encTable, n, len(d.sigma))
	}
	var maxRID int64
	for _, tbl := range []string{d.dataTable, d.insTable} {
		var m sql.NullInt64
		q := fmt.Sprintf("SELECT MAX(%s) FROM %s", ColRID, tbl)
		if err := d.db.QueryRow(q).Scan(&m); err != nil {
			return fmt.Errorf("detect: resume: %s: %w", q, err)
		}
		if m.Valid && m.Int64 > maxRID {
			maxRID = m.Int64
		}
	}
	d.nextRID = maxRID
	return nil
}

// runAtomic executes fn as one transaction: readers see the database
// before it or after it, never between its statements, and against a
// durable engine it is one WAL commit unit, so a crash recovers to
// either side of it too. The RID allocator is restored if anything —
// including the commit itself — fails.
func (d *Detector) runAtomic(fn func(ex execer) error) error {
	savedRID := d.nextRID
	tx, err := d.db.Begin()
	if err != nil {
		return err
	}
	if err := fn(tx); err != nil {
		tx.Rollback()
		d.nextRID = savedRID
		return err
	}
	if err := tx.Commit(); err != nil {
		d.nextRID = savedRID
		return err
	}
	return nil
}
