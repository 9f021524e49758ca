package sqldb

import (
	"errors"

	"ecfd/internal/relation"
)

// Tx is a write transaction: its statements run through Tx.Exec /
// Tx.Query (or Prepared.ExecTx / QueryTx), build epochs on the writer
// head and publish nothing, so the owner reads its own writes while
// every other reader keeps the last committed epoch. Commit publishes
// the head once; Rollback puts the rows back first, so a rolled-back
// transaction is never visible to any pin. One transaction is open at a time: Begin
// and every write from outside the open transaction wait until it ends.
// This matches the paper's batch/incremental detection scripts, whose
// writes are sequential; the concurrency the detector needs is on the
// read side.
//
// Under a WAL, the transaction is also the durability unit: its
// operations buffer in memory and Commit appends them as one framed
// record, so a crash can only ever lose or keep the transaction as a
// whole (see wal.go). A Commit whose append fails undoes the
// transaction — the caller's view and the recovered view agree that it
// did not happen.
type Tx struct {
	db *DB
	// base is the writer head at Begin: what Rollback restores the rows of.
	base *epoch
}

// errTxDone refuses a statement, Commit or Rollback of a transaction
// that already ended.
var errTxDone = errors.New("sql: transaction already finished")

// lockW takes db.mu for a write of tx, or for an autocommit write when
// tx is nil, which waits while a transaction is open.
func (db *DB) lockW(tx *Tx) error {
	db.mu.Lock()
	for tx == nil && db.tx != nil {
		db.txEnd.Wait()
	}
	if tx != nil && db.tx != tx {
		db.mu.Unlock()
		return errTxDone
	}
	return nil
}

// unlockW ends a write: an autocommit write commits, publishing the
// writer head; a transaction's statement publishes nothing.
func (db *DB) unlockW(tx *Tx) {
	if tx == nil {
		db.publish()
	}
	db.mu.Unlock()
}

// Begin starts a transaction, waiting while another one is open.
func (db *DB) Begin() (*Tx, error) {
	db.lockW(nil)
	defer db.mu.Unlock()
	tx := &Tx{db: db, base: db.curW}
	db.tx = tx
	if db.wal != nil {
		db.wal.pend = db.wal.pend[:0]
	}
	return tx, nil
}

// Exec runs one or more statements inside the transaction.
func (tx *Tx) Exec(sqlText string, params ...relation.Value) (int64, error) {
	p, err := tx.db.Prepare(sqlText)
	if err != nil {
		return 0, err
	}
	return p.ExecTx(tx, params...)
}

// Query runs a SELECT inside the transaction: it reads the transaction's
// own writes.
func (tx *Tx) Query(sqlText string, params ...relation.Value) (*Result, error) {
	p, err := tx.db.Prepare(sqlText)
	if err != nil {
		return nil, err
	}
	return p.QueryTx(tx, params...)
}

// end closes the transaction: it publishes the writer head — the
// transaction's epoch after a commit, its base's rows after an undo —
// and wakes the writers waiting for it. Callers hold db.mu, which end
// releases.
func (tx *Tx) end() {
	tx.db.tx = nil
	tx.db.txEnd.Broadcast()
	tx.db.unlockW(nil)
}

// Commit makes the transaction's changes permanent and visible. Under a
// WAL the buffered operations are appended as one commit unit, synced
// per the fsync policy, and only then is the head published; if that
// append fails, the rows are put back as Rollback does and the typed
// read-only error returned — no reader sees rows the log lacks.
func (tx *Tx) Commit() error {
	db := tx.db
	if err := db.lockW(tx); err != nil {
		return err
	}
	defer tx.end()
	if unit := db.takeUnit(false); len(unit) > 0 {
		if err := db.walCommit(unit, true); err != nil {
			tx.undoLocked()
			return err
		}
	}
	return nil
}

// Rollback undoes the transaction's rows. DDL is not rolled back: a
// table created inside the transaction survives, empty, and is logged
// as the rolled-back transaction's only trace.
func (tx *Tx) Rollback() error {
	db := tx.db
	if err := db.lockW(tx); err != nil {
		return err
	}
	defer tx.end()
	tx.undoLocked()
	if unit := db.takeUnit(true); len(unit) > 0 {
		return db.walCommit(unit, true)
	}
	return nil
}

// takeUnit empties the transaction's buffered WAL operations into one
// commit unit: all of them, or the DDL ones alone. Callers hold db.mu.
func (db *DB) takeUnit(ddlOnly bool) []byte {
	if db.wal == nil {
		return nil
	}
	var unit []byte
	for _, p := range db.wal.pend {
		if p.ddl || !ddlOnly {
			unit = append(unit, p.op...)
		}
	}
	db.wal.pend = nil
	return unit
}

// undoLocked puts back, on the writer head, the rows of every table the
// transaction changed: a table of the base epoch gets the base's rows, a
// table created since is emptied. The transaction's statements may have
// appended into the spare capacity of the base's columns and extended
// its shared indexes past the base's fence, so the rows go back through
// a wholesale transition (fresh indexes; the next probe rebuilds) with
// clipped columns (rowSet.restored). Callers hold db.mu.
func (tx *Tx) undoLocked() {
	head := tx.db.curW
	for t, td := range head.tds {
		old := tx.base.tds[t]
		switch {
		case old != nil && old != td:
			tx.db.applyWholesale(t, old.rowSet.restored())
		case old == nil && td.n > 0:
			tx.db.applyWholesale(t, rowSet{})
		}
	}
}
