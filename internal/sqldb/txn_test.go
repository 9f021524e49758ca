package sqldb

import (
	"testing"
	"time"

	"ecfd/internal/relation"
)

// TestTxSemantics states the transaction rule: the owner reads its own
// writes, every other reader and pin the last committed epoch; a write
// from outside waits until the transaction ends and never joins it; a
// rolled-back transaction is visible to no pin; a commit publishes
// exactly one epoch, however many statements it ran.
func TestTxSemantics(t *testing.T) {
	t.Parallel()
	db := NewDB()
	mustExec(t, db, `CREATE TABLE t (k INTEGER, v TEXT)`)
	mustExec(t, db, `INSERT INTO t VALUES (1, 'base')`)
	count := func(res *Result, err error) string {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return flat(res)
	}
	q, err := db.Prepare(`SELECT k FROM t ORDER BY k`)
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		commit                bool
		outside               int64
		base, own, afterwards string
	}{
		{false, 100, "1", "1;2;3", "1;100"},
		{true, 101, "1;100", "1;2;3;100", "1;2;3;100;101"},
	} {
		commit, base := tc.commit, tc.base
		if got := count(q.Query()); got != base {
			t.Fatalf("commit=%v: the table holds %q, want %q", commit, got, base)
		}
		published := db.Stats().EpochsPublished
		tx, err := db.Begin()
		if err != nil {
			t.Fatal(err)
		}
		txExec(t, tx, `INSERT INTO t VALUES (2, 'tx')`, `UPDATE t SET v = 'tx' WHERE k = 1`, `INSERT INTO t VALUES (3, 'tx')`)
		if got := count(q.QueryTx(tx)); got != tc.own {
			t.Fatalf("the transaction reads %q of its own writes, want %q", got, tc.own)
		}
		if got := count(tx.Query(`SELECT COUNT(*) FROM t WHERE v = 'tx'`)); got != "3" {
			t.Fatalf("the transaction sees %s of its 3 written rows", got)
		}
		pin := db.PinSnapshot()
		if got := count(q.QueryAt(pin)); got != base {
			t.Fatalf("a pin taken inside the transaction sees %q, want the committed %q", got, base)
		}
		if got := count(q.Query()); got != base {
			t.Fatalf("another reader sees %q, want the committed %q", got, base)
		}
		if n := db.Stats().EpochsPublished - published; n != 0 {
			t.Fatalf("the open transaction published %d epochs", n)
		}

		// A write from outside waits for the transaction to end.
		outside := make(chan error, 1)
		go func() {
			_, err := db.Exec(`INSERT INTO t VALUES (?, 'outside')`, relation.Int(tc.outside))
			outside <- err
		}()
		select {
		case err := <-outside:
			t.Fatalf("a write from outside ran inside the open transaction (err %v)", err)
		case <-time.After(50 * time.Millisecond):
		}
		if got := count(tx.Query(`SELECT COUNT(*) FROM t WHERE k = ?`, relation.Int(tc.outside))); got != "0" {
			t.Fatal("the transaction sees a write from outside")
		}

		if commit {
			err = tx.Commit()
		} else {
			err = tx.Rollback()
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := <-outside; err != nil {
			t.Fatal(err)
		}
		if got := count(q.QueryAt(pin)); got != base {
			t.Fatalf("the pin taken inside the transaction moved to %q", got)
		}
		pin.Close()
		if got := count(q.Query()); got != tc.afterwards {
			t.Fatalf("commit=%v: after the transaction and the outside write readers see %q, want %q", commit, got, tc.afterwards)
		}
		if got := count(db.Query(`SELECT COUNT(*) FROM t WHERE v = 'tx'`)); commit && got != "3" || !commit && got != "0" {
			t.Fatalf("commit=%v: %s rows hold the transaction's value", commit, got)
		}
		// The commit and the outside write publish one epoch each; a
		// rollback publishes the base's rows back, with fresh structures.
		if n := db.Stats().EpochsPublished - published; n != 2 {
			t.Fatalf("commit=%v: %d epochs published, want 2", commit, n)
		}
		if _, err := tx.Exec(`INSERT INTO t VALUES (4, 'late')`); err == nil {
			t.Fatal("a finished transaction ran a statement")
		}
		if err := tx.Commit(); err == nil {
			t.Fatal("a finished transaction committed again")
		}
	}
}
