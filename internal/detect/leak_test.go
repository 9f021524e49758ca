package detect

import (
	"database/sql"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"ecfd/internal/gen"
	"ecfd/internal/sqldb"
	"ecfd/internal/sqldriver"
)

// TestRunTasksSkipsAfterFailure: once a task fails, queued tasks are
// skipped — a failed phase returns promptly instead of burning the
// remaining slices (a task that has started still runs to completion).
func TestRunTasksSkipsAfterFailure(t *testing.T) {
	const total = 200
	const workers = 4
	var executed atomic.Int64
	boom := errors.New("boom")
	tasks := make([]func() error, total)
	tasks[0] = func() error { return boom }
	for i := 1; i < total; i++ {
		tasks[i] = func() error {
			executed.Add(1)
			time.Sleep(200 * time.Microsecond)
			return nil
		}
	}
	if err := runTasks(workers, tasks); !errors.Is(err, boom) {
		t.Fatalf("error = %v, want %v", err, boom)
	}
	// Only tasks dequeued before the failure propagated may have run;
	// the old behavior executed all of them.
	if n := executed.Load(); n > total/4 {
		t.Fatalf("%d of %d queued tasks still executed after the failure", n, total-1)
	}
}

// TestRunTasksNoFailureRunsAll: the skip path must not fire without a
// failure.
func TestRunTasksNoFailureRunsAll(t *testing.T) {
	const total = 100
	var executed atomic.Int64
	tasks := make([]func() error, total)
	for i := range tasks {
		tasks[i] = func() error { executed.Add(1); return nil }
	}
	if err := runTasks(8, tasks); err != nil {
		t.Fatal(err)
	}
	if n := executed.Load(); n != total {
		t.Fatalf("executed %d of %d tasks", n, total)
	}
}

// turnEpoch forces the engine behind d to publish a fresh epoch, so
// that any pin leaked earlier holds a *retired* epoch and shows up in
// LiveEpochs. (A leaked pin on the still-current epoch is invisible to
// Stats until a write supersedes it.)
func turnEpoch(t *testing.T, d *Detector, eng *sqldb.DB) {
	t.Helper()
	before := eng.Stats().EpochSeq
	if _, err := d.db.Exec(fmt.Sprintf("INSERT INTO %s VALUES (0)", d.delTable)); err != nil {
		t.Fatal(err)
	}
	if _, err := d.db.Exec("TRUNCATE TABLE " + d.delTable); err != nil {
		t.Fatal(err)
	}
	if eng.Stats().EpochSeq == before {
		t.Fatal("writes did not publish a new epoch; leak check is vacuous")
	}
}

// assertNoPins fails if the engine holds more than the one published
// epoch — every snapshot pinned during the failed run must have been
// released.
func assertNoPins(t *testing.T, label string, eng *sqldb.DB) {
	t.Helper()
	if st := eng.Stats(); st.LiveEpochs != 1 || st.RetiredEpochs != 0 {
		t.Fatalf("%s: LiveEpochs = %d, RetiredEpochs = %d after failed run; a snapshot pin leaked",
			label, st.LiveEpochs, st.RetiredEpochs)
	}
}

// TestParallelDetectSnapshotBalanceOnFailure forces a query failure in
// each of ParallelDetect's two concurrent read phases and asserts the
// engine's epoch accounting returns to exactly one live epoch — the
// phase snapshot pin is released on the error path. The detector must
// also stay usable after the failure.
func TestParallelDetectSnapshotBalanceOnFailure(t *testing.T) {
	d, cleanup := newBenchDetector(t, 3_000, 5)
	defer cleanup()
	if _, err := d.BatchDetect(); err != nil {
		t.Fatal(err)
	}
	want, err := d.FlagsByRID()
	if err != nil {
		t.Fatal(err)
	}

	poison := func(name string, set func(*statements)) {
		t.Run(name, func(t *testing.T) {
			set(&d.stmts)
			_, err := d.ParallelDetect(4)
			d.generateSQL() // restore the statement set
			if err == nil {
				t.Fatal("poisoned phase did not fail")
			}
			turnEpoch(t, d, d.eng)
			assertNoPins(t, name, d.eng)

			// Still fully usable: a clean rerun recomputes the flags.
			if _, err := d.ParallelDetect(4); err != nil {
				t.Fatal(err)
			}
			got, err := d.FlagsByRID()
			if err != nil {
				t.Fatal(err)
			}
			for rid, w := range want {
				if got[rid] != w {
					t.Fatalf("RID %d: flags %v after recovery, want %v", rid, got[rid], w)
				}
			}
		})
	}
	poison("phase1-qsv", func(s *statements) {
		s.qsvRIDsSlice = "SELECT RID FROM no_such_table WHERE RID >= ? AND RID <= ?"
	})
	poison("phase1-qmv", func(s *statements) {
		s.qmvGroupsCIDRng = "SELECT CID FROM no_such_table WHERE CID >= ? AND CID <= ?"
	})
	poison("phase2-mv", func(s *statements) {
		s.mvRIDsSlice = "SELECT RID FROM no_such_table WHERE RID >= ? AND RID <= ?"
	})
}

// TestShardedDetectSnapshotBalanceOnFailure poisons one shard's
// scatter statement mid-BatchDetect and asserts every engine in the
// ensemble — the coordinator and all K shards — returns to one live
// epoch after the failure.
func TestShardedDetectSnapshotBalanceOnFailure(t *testing.T) {
	dsn := fmt.Sprintf("detect_leak_coord_%d", dsnSeq.Add(1))
	db, err := sql.Open(sqldriver.DriverName, dsn)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		db.Close()
		sqldriver.Unregister(dsn)
	}()
	s, err := NewSharded(db, gen.Schema(), gen.Constraints(), ShardOptions{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Install(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.LoadData(gen.Dataset(gen.Config{Rows: 3_000, Noise: 5, Seed: 5})); err != nil {
		t.Fatal(err)
	}
	if _, err := s.BatchDetect(); err != nil {
		t.Fatal(err)
	}

	bad := s.shards[1].d
	bad.stmts.qmvMacroCIDRng = "SELECT CID FROM no_such_table WHERE CID >= ? AND CID <= ?"
	_, err = s.BatchDetect()
	bad.generateSQL()
	if err == nil {
		t.Fatal("poisoned shard did not fail the scatter")
	}

	coordEng := sqldriver.Engine(dsn)
	turnEpoch(t, s.coord, coordEng)
	assertNoPins(t, "coordinator", coordEng)
	for i, sh := range s.shards {
		eng := sqldriver.Engine(sh.dsn)
		turnEpoch(t, sh.d, eng)
		assertNoPins(t, fmt.Sprintf("shard %d", i), eng)
	}

	// The ensemble stays usable after the failed scatter.
	if _, err := s.BatchDetect(); err != nil {
		t.Fatal(err)
	}
}
