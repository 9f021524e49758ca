package detect

import (
	"database/sql"
	"fmt"
)

// execer is the statement surface shared by *sql.DB and *sql.Tx, so
// the bulk-load and staging helpers can run either autocommit (every
// statement its own WAL commit unit) or inside one transaction (the
// whole update one unit — what crash recovery needs to see an
// ApplyUpdates as all-or-nothing).
type execer interface {
	Exec(query string, args ...any) (sql.Result, error)
	Prepare(query string) (*sql.Stmt, error)
	QueryRow(query string, args ...any) *sql.Row
}

// SetAtomicUpdates selects whether ApplyUpdates and LoadData wrap
// their statements in a single database transaction. Against a
// durable engine (sqldriver DSN with wal=) that makes each update one
// WAL commit unit: a crash mid-update recovers to either the state
// before the update or after it, never to a half-staged middle. The
// default is off, matching the paper's autocommit detection scripts.
func (d *Detector) SetAtomicUpdates(on bool) { d.atomic = on }

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

// runAtomic executes fn against a transaction when atomic updates are
// on, restoring the RID allocator if anything — including the commit
// itself — fails; otherwise fn runs directly against the handle.
func (d *Detector) runAtomic(fn func(ex execer) error) error {
	if !d.atomic {
		return fn(d.db)
	}
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
