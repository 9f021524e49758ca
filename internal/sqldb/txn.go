package sqldb

import "fmt"

// Tx is a coarse-grained transaction: the first mutation of each table
// inside the transaction captures its epoch rows (an O(1) header copy —
// epochs are immutable, so the segments ARE the before-image), and
// Rollback restores them wholesale. One transaction may be active at a
// time; Begin/Commit/Rollback and every mutation inside the
// transaction take db.mu, so transactions serialize with each other
// while concurrent readers keep scanning their pinned epochs. This
// matches the paper's batch/incremental detection scripts, whose
// writes are sequential; the concurrency the detector needs is on the
// read side.
//
// Under a WAL, the transaction is also the durability unit: its
// operations buffer in memory and Commit appends them as one framed
// record, so a crash can only ever lose or keep the transaction as a
// whole (see wal.go). A Commit whose append fails restores the
// backups — the caller's view and the recovered view agree that the
// transaction did not happen.
type Tx struct {
	db      *DB
	backups map[string]rowSet
	done    bool
}

// Begin starts a transaction.
func (db *DB) Begin() (*Tx, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.activeTx != nil {
		return nil, fmt.Errorf("sql: a transaction is already active")
	}
	tx := &Tx{db: db, backups: make(map[string]rowSet)}
	db.activeTx = tx
	if db.wal != nil {
		db.wal.pend = db.wal.pend[:0]
	}
	return tx, nil
}

// backupForTx captures a table's rows the first time it is mutated
// inside the active transaction. Copy-on-write makes this O(1): tuples
// already in an epoch are never mutated in place, so the segment headers
// alone are a faithful before-image (the restore path cap-clips their
// chunks so later in-place appends cannot leak through). Callers hold
// db.mu.
func (db *DB) backupForTx(t *Table) {
	tx := db.activeTx
	if tx == nil {
		return
	}
	key := lowerName(t.Name)
	if _, done := tx.backups[key]; done {
		return
	}
	tx.backups[key] = db.curW.tds[t].rowSet
}

// Commit makes the transaction's changes permanent. Under a WAL the
// buffered operations are appended as one commit unit first; if that
// append fails, the in-memory changes are rolled back and the typed
// read-only error returned — memory never runs ahead of the log.
func (tx *Tx) Commit() error {
	tx.db.mu.Lock()
	defer tx.db.mu.Unlock()
	if tx.done {
		return fmt.Errorf("sql: transaction already finished")
	}
	tx.done = true
	tx.db.activeTx = nil
	if w := tx.db.wal; w != nil && len(w.pend) > 0 {
		var unit []byte
		for _, p := range w.pend {
			unit = append(unit, p.op...)
		}
		w.pend = nil
		// A transaction commit syncs inline (group=false): its unit can
		// span DDL and bulk DML, and the caller expects durability on
		// return without a follower wait.
		if err := tx.db.walCommit(unit, true, false); err != nil {
			tx.restoreLocked()
			return err
		}
	}
	return nil
}

// Rollback restores every table the transaction touched.
func (tx *Tx) Rollback() error {
	tx.db.mu.Lock()
	defer tx.db.mu.Unlock()
	if tx.done {
		return fmt.Errorf("sql: transaction already finished")
	}
	tx.done = true
	tx.db.activeTx = nil
	tx.restoreLocked()
	if w := tx.db.wal; w != nil && len(w.pend) > 0 {
		// DDL is not rolled back by the engine (the restore above skips
		// catalog changes), so the log keeps exactly the DDL operations
		// and drops the undone DML.
		var unit []byte
		for _, p := range w.pend {
			if p.ddl {
				unit = append(unit, p.op...)
			}
		}
		w.pend = nil
		if len(unit) > 0 {
			if err := tx.db.walCommit(unit, true, false); err != nil {
				return err
			}
		}
	}
	return nil
}

// restoreLocked puts back the rows captured by backupForTx via a
// wholesale epoch transition (fresh structures; the next probe
// rebuilds). Callers hold db.mu.
func (tx *Tx) restoreLocked() {
	for name, rows := range tx.backups {
		t, ok := tx.db.curW.tables[name]
		if !ok {
			continue // table dropped inside the tx; restoring rows is moot
		}
		tx.db.applyWholesale(t, rows.restored())
	}
}
