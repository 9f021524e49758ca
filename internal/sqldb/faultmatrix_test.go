package sqldb

import (
	"errors"
	"fmt"
	"testing"

	"ecfd/internal/relation"
)

// scriptOp is one step of the deterministic workload the fault matrix
// replays: a pure function of database state, so any run that reaches
// the same prefix reaches the same state.
type scriptOp struct {
	name string
	run  func(db *DB) error
}

func sqlOp(name, sqlText string) scriptOp {
	return scriptOp{name, func(db *DB) error {
		_, err := db.Exec(sqlText)
		return err
	}}
}

// faultScript mixes DDL, row DML, transactions (commit and rollback),
// TRUNCATE, DROP+recreate, and LoadRelation — every operation kind the
// WAL can carry.
func faultScript() []scriptOp {
	var ops []scriptOp
	add := func(name, sqlText string) { ops = append(ops, sqlOp(name, sqlText)) }

	add("create-t", "CREATE TABLE t (a INT, b TEXT, c FLOAT)")
	add("index-t", "CREATE INDEX it_a ON t (a)")
	add("create-u", "CREATE TABLE u (k INT, v INT)")
	for i := 0; i < 5; i++ {
		add(fmt.Sprintf("ins-t-%d", i), fmt.Sprintf(
			"INSERT INTO t VALUES (%d, 'alpha-%d', %d.25), (%d, 'beta-%d', %d.75)",
			2*i, i, i, 2*i+1, i, i))
		add(fmt.Sprintf("ins-u-%d", i), fmt.Sprintf("INSERT INTO u VALUES (%d, %d)", i, 10*i))
	}
	add("upd-t", "UPDATE t SET b = 'patched' WHERE a >= 2 AND a <= 5")
	add("del-t", "DELETE FROM t WHERE a = 7")
	add("upd-u", "UPDATE u SET v = -1 WHERE k >= 3")
	// UPDATE writes only the rows it changes: a = 4, 5 already hold
	// 'patched', so the first logs two of its four matches and the second
	// is no WAL unit at all.
	add("upd-t-half", "UPDATE t SET b = 'patched' WHERE a >= 4 AND a <= 8")
	add("upd-t-noop", "UPDATE t SET b = 'patched' WHERE a >= 2 AND a <= 8")

	ops = append(ops, scriptOp{"tx-commit", func(db *DB) error {
		tx, err := db.Begin()
		if err != nil {
			return err
		}
		for _, s := range []string{
			"INSERT INTO t VALUES (100, 'tx-row', 0.5)",
			"UPDATE u SET v = 99 WHERE k = 0",
			"DELETE FROM t WHERE a = 0",
		} {
			if _, err := tx.Exec(s); err != nil {
				tx.Rollback()
				return err
			}
		}
		return tx.Commit()
	}})
	ops = append(ops, scriptOp{"tx-rollback", func(db *DB) error {
		tx, err := db.Begin()
		if err != nil {
			return err
		}
		if _, err := tx.Exec("INSERT INTO t VALUES (200, 'ghost', 0.0)"); err != nil {
			tx.Rollback()
			return err
		}
		return tx.Rollback()
	}})
	ops = append(ops, scriptOp{"tx-ddl-rollback", func(db *DB) error {
		tx, err := db.Begin()
		if err != nil {
			return err
		}
		for _, s := range []string{
			"CREATE TABLE scratch (x INT)",
			"INSERT INTO scratch VALUES (1), (2)",
		} {
			if _, err := tx.Exec(s); err != nil {
				tx.Rollback()
				return err
			}
		}
		return tx.Rollback() // the table survives, empty; the rows do not
	}})

	add("trunc-u", "TRUNCATE TABLE u")
	add("refill-u", "INSERT INTO u VALUES (50, 500), (51, 510)")
	add("drop-t", "DROP TABLE t")
	add("recreate-t", "CREATE TABLE t (a INT, b TEXT)")
	add("reindex-t", "CREATE INDEX it_a ON t (a)")
	add("refill-t", "INSERT INTO t VALUES (1, 'reborn'), (2, 'again')")

	ops = append(ops, scriptOp{"load-relation", func(db *DB) error {
		schema, err := relation.NewSchema("r",
			relation.Attribute{Name: "X", Kind: relation.KindInt},
			relation.Attribute{Name: "Y", Kind: relation.KindText},
		)
		if err != nil {
			return err
		}
		r := relation.New(schema)
		for i := 0; i < 4; i++ {
			r.Rows = append(r.Rows, relation.Tuple{relation.Int(int64(i)), relation.Text(fmt.Sprint("load-", i))})
		}
		return db.LoadRelation(r)
	}})
	add("final-ins", "INSERT INTO t VALUES (3, 'closing')")
	return ops
}

const faultMatrixCkpt = 700 // small enough to force several rotations

// referenceRun executes the script with no faults and returns the
// fingerprint after Open (index 0) and after each op (index i+1), plus
// the total number of filesystem operations the run performed.
func referenceRun(t *testing.T) ([]string, int) {
	t.Helper()
	fs := NewMemFS(42)
	db := memOpen(t, fs, WALOptions{Fsync: FsyncAlways, CheckpointBytes: faultMatrixCkpt})
	script := faultScript()
	fps := make([]string, 0, len(script)+1)
	fps = append(fps, fingerprint(db))
	for _, op := range script {
		if err := op.run(db); err != nil {
			t.Fatalf("reference run: op %s: %v", op.name, err)
		}
		fps = append(fps, fingerprint(db))
	}
	return fps, fs.Ops()
}

// TestFaultMatrixCrashEverywhere is the property test at the heart of
// the durability subsystem: crash at EVERY filesystem operation the
// workload performs, recover, and require the recovered state to be a
// commit-unit-consistent point — under fsync=always, the state after
// the last acknowledged op, or that plus the single in-flight unit.
// Re-applying the remaining script must then land on the exact
// never-crashed final state.
func TestFaultMatrixCrashEverywhere(t *testing.T) {
	fps, totalOps := referenceRun(t)
	script := faultScript()
	final := fps[len(fps)-1]
	if totalOps < 20 {
		t.Fatalf("suspiciously small reference run: %d fs ops", totalOps)
	}

	for point := 1; point <= totalOps; point++ {
		fs := NewMemFS(int64(1000 + point))
		fs.Arm(FaultCrash, point)

		// Run until the crash bites (or to completion, for late points
		// the run never reaches).
		succeeded := 0
		db, err := Open(WALOptions{Dir: "/wal", FS: fs, Fsync: FsyncAlways, CheckpointBytes: faultMatrixCkpt})
		if err == nil {
			for _, op := range script {
				if err := op.run(db); err != nil {
					break
				}
				succeeded++
			}
		} else {
			succeeded = -1 // crashed inside the initial Open
		}

		fs.Crash()
		db2, err := Open(WALOptions{Dir: "/wal", FS: fs, Fsync: FsyncAlways, CheckpointBytes: faultMatrixCkpt})
		if err != nil {
			t.Fatalf("point %d: recovery failed after crash (j=%d): %v", point, succeeded, err)
		}
		got := fingerprint(db2)

		// Acceptable recovery points: everything acknowledged (fp[j]),
		// or that plus the in-flight unit the crash may have persisted.
		j := succeeded
		if j < 0 {
			j = 0
		}
		resume := -1
		if j+1 < len(fps) && got == fps[j+1] {
			resume = j + 1
		} else if got == fps[j] {
			resume = j
		}
		if resume < 0 {
			t.Fatalf("point %d: recovered state matches neither fp[%d] nor fp[%d]:\ngot:\n%s", point, j, j+1, got)
		}

		// The recovered database must be writable and finish the job.
		for i := resume; i < len(script); i++ {
			if err := script[i].run(db2); err != nil {
				t.Fatalf("point %d: re-applying op %s after recovery: %v", point, script[i].name, err)
			}
		}
		if got := fingerprint(db2); got != final {
			t.Fatalf("point %d: final state after recovery+replay differs from never-crashed run", point)
		}
	}
}

// TestFaultMatrixErrorKinds drives the same workload into each
// non-crash fault at every injection point: the hit operation must
// fail with the typed read-only error, reads must keep serving, and a
// clean-process reopen must land on a consistent point from which the
// remaining script completes.
func TestFaultMatrixErrorKinds(t *testing.T) {
	fps, totalOps := referenceRun(t)
	script := faultScript()
	final := fps[len(fps)-1]

	for _, kind := range []FaultKind{FaultShortWrite, FaultWriteErr, FaultSyncErr} {
		for point := 1; point <= totalOps; point++ {
			fs := NewMemFS(int64(5000 + point))
			db, err := Open(WALOptions{Dir: "/wal", FS: fs, Fsync: FsyncAlways, CheckpointBytes: faultMatrixCkpt})
			if err != nil {
				t.Fatalf("%s point %d: open: %v", kind, point, err)
			}
			fs.Arm(kind, point)

			succeeded, hit := 0, false
			for _, op := range script {
				if err := op.run(db); err != nil {
					if !errors.Is(err, ErrReadOnly) {
						t.Fatalf("%s point %d: op %s: want ErrReadOnly, got %v", kind, point, op.name, err)
					}
					hit = true
					break
				}
				succeeded++
			}
			if !hit {
				// The fault fired mid-run without failing any op (e.g. a
				// checkpoint after a durable commit), or never fired at
				// all. Either way the full script ran.
				if got := fingerprint(db); got != final {
					t.Fatalf("%s point %d: fault-free run diverged", kind, point)
				}
				if ro, _ := db.ReadOnly(); !ro {
					continue // fault never fired: nothing left to check
				}
			} else if succeeded >= 3 {
				// Reads still serve on the degraded database (u exists
				// once the first three DDL ops have run).
				if _, err := db.Query("SELECT k FROM u WHERE k >= 0"); err != nil {
					t.Fatalf("%s point %d: query on degraded db: %v", kind, point, err)
				}
			}

			// The process did not die: a reopen sees the page cache.
			fs.Disarm()
			db2, err := Open(WALOptions{Dir: "/wal", FS: fs, Fsync: FsyncAlways, CheckpointBytes: faultMatrixCkpt})
			if err != nil {
				t.Fatalf("%s point %d: reopen: %v", kind, point, err)
			}
			got := fingerprint(db2)
			resume := -1
			if succeeded+1 < len(fps) && got == fps[succeeded+1] {
				resume = succeeded + 1
			} else if got == fps[succeeded] {
				resume = succeeded
			}
			if resume < 0 {
				t.Fatalf("%s point %d: reopened state matches neither fp[%d] nor fp[%d]", kind, point, succeeded, succeeded+1)
			}
			for i := resume; i < len(script); i++ {
				if err := script[i].run(db2); err != nil {
					t.Fatalf("%s point %d: re-applying op %s: %v", kind, point, script[i].name, err)
				}
			}
			if got := fingerprint(db2); got != final {
				t.Fatalf("%s point %d: final state differs from fault-free run", kind, point)
			}
		}
	}
}
