package sqldb

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"ecfd/internal/relation"
)

// fingerprint reduces the whole catalog — schemas, rows in storage
// order, index definitions — to one comparable string. It reads the
// published epoch, so no lock is needed.
func fingerprint(db *DB) string { return fingerprintEpoch(db.cur.Load()) }

// fingerprintEpoch is fingerprint of one epoch.
func fingerprintEpoch(ep *epoch) string {
	keys := make([]string, 0, len(ep.tables))
	for k := range ep.tables {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		t := ep.tables[k]
		td := ep.tds[t]
		fmt.Fprintf(&b, "table %s (", t.Name)
		for _, a := range t.Schema.Attrs {
			fmt.Fprintf(&b, "%s:%s:%d,", a.Name, a.Kind, len(a.Domain))
		}
		b.WriteString(")\n")
		for _, row := range storedRows(t, td) {
			b.WriteString(row.Key())
			b.WriteByte('\n')
		}
		for _, sl := range td.indexes {
			fmt.Fprintf(&b, "index %s %v\n", sl.idx.Name, sl.idx.Cols)
		}
	}
	return b.String()
}

func memOpen(t *testing.T, fs *MemFS, opts WALOptions) *DB {
	t.Helper()
	opts.Dir = "/wal"
	opts.FS = fs
	db, err := Open(opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return db
}

func walExec(t *testing.T, db *DB, stmts ...string) {
	t.Helper()
	for _, s := range stmts {
		if _, err := db.Exec(s); err != nil {
			t.Fatalf("exec %q: %v", s, err)
		}
	}
}

// txExec is walExec inside tx.
func txExec(t *testing.T, tx *Tx, stmts ...string) {
	t.Helper()
	for _, s := range stmts {
		if _, err := tx.Exec(s); err != nil {
			t.Fatalf("exec %q: %v", s, err)
		}
	}
}

func seedSmall(t *testing.T, db *DB) {
	t.Helper()
	walExec(t, db,
		"CREATE TABLE t (a INTEGER, b TEXT, c REAL)",
		"CREATE INDEX it_a ON t (a)",
		"INSERT INTO t VALUES (1, 'one', 1.5), (2, 'two', 2.5), (3, 'three', 3.5)",
		"UPDATE t SET b = 'TWO' WHERE a = 2",
		"DELETE FROM t WHERE a = 3",
	)
}

func TestWALRoundTripMemFS(t *testing.T) {
	fs := NewMemFS(1)
	db := memOpen(t, fs, WALOptions{Fsync: FsyncAlways})
	seedSmall(t, db)

	// A transaction's mutations commit as one unit.
	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	txExec(t, tx, "INSERT INTO t VALUES (10, 'ten', 10.5)", "UPDATE t SET c = 0.0 WHERE a = 1")
	if err := tx.Commit(); err != nil {
		t.Fatalf("commit: %v", err)
	}
	// A rolled-back transaction leaves no trace.
	tx, err = db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	txExec(t, tx, "DELETE FROM t WHERE a >= 0")
	if err := tx.Rollback(); err != nil {
		t.Fatalf("rollback: %v", err)
	}

	want := fingerprint(db)
	if err := db.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	db2 := memOpen(t, fs, WALOptions{Fsync: FsyncAlways})
	if got := fingerprint(db2); got != want {
		t.Fatalf("recovered state differs:\nwant:\n%s\ngot:\n%s", want, got)
	}
	// The recovered DB stays fully usable: queries, DML, indexes.
	res, err := db2.Query("SELECT b FROM t WHERE a = 2")
	if err != nil || len(res.Rows) != 1 || res.Rows[0][0].S != "TWO" {
		t.Fatalf("query after recovery: %v %v", res, err)
	}
	walExec(t, db2, "INSERT INTO t VALUES (4, 'four', 4.5)")
}

func TestWALRoundTripOSFS(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(WALOptions{Dir: dir, Fsync: FsyncBatched, FsyncEvery: 2})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	seedSmall(t, db)
	if err := db.Checkpoint(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	walExec(t, db, "INSERT INTO t VALUES (7, 'seven', 7.0)")
	want := fingerprint(db)
	if err := db.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	db2, err := Open(WALOptions{Dir: dir})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if got := fingerprint(db2); got != want {
		t.Fatalf("recovered state differs:\nwant:\n%s\ngot:\n%s", want, got)
	}
	if st := db2.RecoveryStats(); st.SnapshotGen == 0 {
		t.Fatalf("expected recovery from a snapshot, got %+v", st)
	}
}

func TestWALLoadRelationSurvives(t *testing.T) {
	fs := NewMemFS(2)
	db := memOpen(t, fs, WALOptions{Fsync: FsyncAlways})
	schema, err := relation.NewSchema("r",
		relation.Attribute{Name: "X", Kind: relation.KindInt},
		relation.Attribute{Name: "Y", Kind: relation.KindText},
	)
	if err != nil {
		t.Fatal(err)
	}
	r := relation.New(schema)
	for i := 0; i < 5; i++ {
		r.Rows = append(r.Rows, relation.Tuple{relation.Int(int64(i)), relation.Text(fmt.Sprint("v", i))})
	}
	if err := db.LoadRelation(r); err != nil {
		t.Fatal(err)
	}
	want := fingerprint(db)
	db2 := memOpen(t, fs, WALOptions{})
	if got := fingerprint(db2); got != want {
		t.Fatalf("LoadRelation not recovered:\nwant:\n%s\ngot:\n%s", want, got)
	}
}

// walFileBytes returns the raw contents of the current WAL generation.
func walFileBytes(t *testing.T, fs *MemFS, db *DB) (string, []byte) {
	t.Helper()
	path := db.wal.walPath(db.wal.gen)
	data, err := fs.ReadFile(path)
	if err != nil {
		t.Fatalf("read %s: %v", path, err)
	}
	return path, data
}

func TestWALTornTailTruncated(t *testing.T) {
	fs := NewMemFS(3)
	db := memOpen(t, fs, WALOptions{Fsync: FsyncAlways})
	seedSmall(t, db)
	want := fingerprint(db)
	path, _ := walFileBytes(t, fs, db)

	// Simulate a crash mid-append: a partial frame lands at the tail.
	f, err := fs.OpenAppend(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x40, 0x00, 0x00, 0x00, 0xde, 0xad}); err != nil {
		t.Fatal(err)
	}

	db2 := memOpen(t, fs, WALOptions{Fsync: FsyncAlways})
	if got := fingerprint(db2); got != want {
		t.Fatalf("torn tail not tolerated:\nwant:\n%s\ngot:\n%s", want, got)
	}
	if st := db2.RecoveryStats(); !st.TornTail {
		t.Fatalf("expected TornTail in stats, got %+v", st)
	}
	// The truncated log accepts new appends and another recovery agrees.
	walExec(t, db2, "INSERT INTO t VALUES (9, 'nine', 9.0)")
	want2 := fingerprint(db2)
	db3 := memOpen(t, fs, WALOptions{})
	if got := fingerprint(db3); got != want2 {
		t.Fatalf("post-torn appends lost:\nwant:\n%s\ngot:\n%s", want2, got)
	}
}

func TestWALCorruptMidLogFailsLoudly(t *testing.T) {
	fs := NewMemFS(4)
	db := memOpen(t, fs, WALOptions{Fsync: FsyncAlways})
	seedSmall(t, db)
	path, data := walFileBytes(t, fs, db)

	// Flip one payload byte of the first record — damage with records
	// after it is silent corruption, not a torn tail.
	fs.mu.Lock()
	fs.files[path].data[len(walFileMagic)+walFrameSize] ^= 0xff
	fs.mu.Unlock()
	_ = data

	_, err := Open(WALOptions{Dir: "/wal", FS: fs})
	if err == nil {
		t.Fatal("expected recovery to fail on mid-log corruption")
	}
	if !strings.Contains(err.Error(), "corrupt record at offset") {
		t.Fatalf("error should name the offset, got: %v", err)
	}
}

func TestWALSnapshotFallback(t *testing.T) {
	fs := NewMemFS(5)
	db := memOpen(t, fs, WALOptions{Fsync: FsyncAlways})
	seedSmall(t, db)
	if err := db.Checkpoint(); err != nil { // gen 2
		t.Fatal(err)
	}
	walExec(t, db, "INSERT INTO t VALUES (20, 'twenty', 20.0)")
	if err := db.Checkpoint(); err != nil { // gen 3
		t.Fatal(err)
	}
	walExec(t, db, "INSERT INTO t VALUES (21, 'final', 21.0)")
	want := fingerprint(db)

	// Damage the newest snapshot; recovery must fall back to gen 2 and
	// replay wal 2 + wal 3 to the identical state.
	snapPath := db.wal.snapPath(3)
	fs.mu.Lock()
	f := fs.files[snapPath]
	f.data[len(f.data)/2] ^= 0xff
	fs.mu.Unlock()

	db2 := memOpen(t, fs, WALOptions{})
	if got := fingerprint(db2); got != want {
		t.Fatalf("fallback recovery differs:\nwant:\n%s\ngot:\n%s", want, got)
	}
	st := db2.RecoveryStats()
	if !st.FellBack || st.SnapshotGen != 2 {
		t.Fatalf("expected fallback to snapshot gen 2, got %+v", st)
	}
	if !strings.HasPrefix(st.Skipped, snapPath+": ") || !strings.Contains(st.Skipped, ErrCorrupt.Error()+": snapshot offset ") {
		t.Fatalf("the fallback should name the damaged file and offset: %q", st.Skipped)
	}

	// Remove the newest snapshot entirely: same story.
	if err := fs.Remove(snapPath); err != nil {
		t.Fatal(err)
	}
	db3 := memOpen(t, fs, WALOptions{})
	if got := fingerprint(db3); got != want {
		t.Fatalf("missing-snapshot recovery differs")
	}
}

func TestWALCheckpointThresholdAndPruning(t *testing.T) {
	fs := NewMemFS(6)
	db := memOpen(t, fs, WALOptions{Fsync: FsyncAlways, CheckpointBytes: 512})
	walExec(t, db, "CREATE TABLE t (a INTEGER, b TEXT)")
	for i := 0; i < 40; i++ {
		walExec(t, db, fmt.Sprintf("INSERT INTO t VALUES (%d, 'row-%d-padding-padding')", i, i))
	}
	if db.wal.gen < 3 {
		t.Fatalf("expected threshold checkpoints to rotate generations, still at gen %d", db.wal.gen)
	}
	// Only the current and previous generations survive pruning.
	names, err := fs.ReadDir("/wal")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		gen, _, ok := parseGenName(name)
		if ok && gen < db.wal.gen-1 {
			t.Fatalf("generation %d not pruned (have %v)", gen, names)
		}
	}
	want := fingerprint(db)
	db2 := memOpen(t, fs, WALOptions{})
	if got := fingerprint(db2); got != want {
		t.Fatalf("post-checkpoint recovery differs:\nwant:\n%s\ngot:\n%s", want, got)
	}
}

func TestWALReadOnlyDegradation(t *testing.T) {
	for _, kind := range []FaultKind{FaultShortWrite, FaultWriteErr, FaultSyncErr} {
		t.Run(kind.String(), func(t *testing.T) {
			fs := NewMemFS(7)
			db := memOpen(t, fs, WALOptions{Fsync: FsyncAlways})
			seedSmall(t, db)
			want := fingerprint(db)

			fs.Arm(kind, 1)
			_, err := db.Exec("INSERT INTO t VALUES (99, 'doomed', 0.0)")
			if !errors.Is(err, ErrReadOnly) {
				t.Fatalf("%s: want ErrReadOnly, got %v", kind, err)
			}
			// The failed mutation must not have touched memory.
			if got := fingerprint(db); got != want {
				t.Fatalf("%s: failed append mutated state", kind)
			}
			// Queries keep serving; further DML stays typed-refused.
			if _, err := db.Query("SELECT a FROM t WHERE a = 1"); err != nil {
				t.Fatalf("%s: query on read-only db: %v", kind, err)
			}
			if _, err := db.Exec("DELETE FROM t WHERE a = 1"); !errors.Is(err, ErrReadOnly) {
				t.Fatalf("%s: second DML: want ErrReadOnly, got %v", kind, err)
			}
			if ro, cause := db.ReadOnly(); !ro || cause == nil {
				t.Fatalf("%s: ReadOnly() = %v, %v", kind, ro, cause)
			}

			// The process did not die, so a reopen sees everything up to
			// the failure (a short write's torn frame is truncated away).
			db2 := memOpen(t, fs, WALOptions{})
			if got := fingerprint(db2); got != want {
				t.Fatalf("%s: reopen after degradation differs:\nwant:\n%s\ngot:\n%s", kind, want, got)
			}
			walExec(t, db2, "INSERT INTO t VALUES (100, 'alive', 1.0)")
		})
	}
}

func TestWALTxCommitFailureRollsBack(t *testing.T) {
	fs := NewMemFS(8)
	db := memOpen(t, fs, WALOptions{Fsync: FsyncAlways})
	seedSmall(t, db)
	want := fingerprint(db)

	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	txExec(t, tx, "INSERT INTO t VALUES (50, 'fifty', 50.0)", "DELETE FROM t WHERE a = 1")
	fs.Arm(FaultWriteErr, 1)
	if err := tx.Commit(); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("commit under write failure: want ErrReadOnly, got %v", err)
	}
	if got := fingerprint(db); got != want {
		t.Fatalf("failed commit left changes applied:\nwant:\n%s\ngot:\n%s", want, got)
	}
}

func TestWALRollbackKeepsDDL(t *testing.T) {
	fs := NewMemFS(9)
	db := memOpen(t, fs, WALOptions{Fsync: FsyncAlways})
	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	txExec(t, tx,
		"CREATE TABLE fresh (x INTEGER)",
		"INSERT INTO fresh VALUES (1), (2)",
	)
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	// Engine semantics: DDL survives rollback, the rows do not.
	want := fingerprint(db)
	if n, err := db.TableLen("fresh"); err != nil || n != 0 {
		t.Fatalf("fresh after rollback: n=%d err=%v", n, err)
	}
	db2 := memOpen(t, fs, WALOptions{})
	if got := fingerprint(db2); got != want {
		t.Fatalf("rollback-surviving DDL not recovered:\nwant:\n%s\ngot:\n%s", want, got)
	}
}

func TestWALShortWriteDiscardsPartialUnit(t *testing.T) {
	// A short write leaves a half-written frame; the engine truncates
	// it away immediately (the DML errored, so it must not reappear),
	// leaving a clean log for the next recovery.
	fs := NewMemFS(10)
	db := memOpen(t, fs, WALOptions{Fsync: FsyncAlways})
	seedSmall(t, db)
	want := fingerprint(db)
	fs.Arm(FaultShortWrite, 1)
	if _, err := db.Exec("INSERT INTO t VALUES (77, 'torn', 0.0)"); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("want ErrReadOnly, got %v", err)
	}
	db2 := memOpen(t, fs, WALOptions{})
	if got := fingerprint(db2); got != want {
		t.Fatalf("short-write recovery differs:\nwant:\n%s\ngot:\n%s", want, got)
	}
	if st := db2.RecoveryStats(); st.TornTail {
		t.Fatalf("partial unit should have been discarded at failure time, got %+v", st)
	}
}

// Statements with nothing to do leave no WAL unit and no epoch:
// TRUNCATE of an empty table, INSERT … SELECT of nothing, DML matching
// no row — and an UPDATE every matched row of which already holds the
// assigned values, which still reports the rows it matched. The
// detector's update script truncates five scratch tables per update,
// most of them already empty, and its flag statements match whole
// slices of the data to flip a few rows.
func TestNoOpStatementsLeaveNoTrace(t *testing.T) {
	fs := NewMemFS(7)
	db := memOpen(t, fs, WALOptions{Fsync: FsyncAlways})
	seedSmall(t, db) // t = (1, 'one', 1.5), (2, 'TWO', 2.5)
	walExec(t, db, "CREATE TABLE scratch (a INTEGER)")

	_, before := walFileBytes(t, fs, db)
	seq := db.Stats().EpochSeq
	for _, c := range []struct {
		q       string
		matched int64
	}{
		{"TRUNCATE TABLE scratch", 0},
		{"INSERT INTO scratch SELECT a FROM t WHERE a > 100", 0},
		{"UPDATE t SET b = 'x' WHERE a > 100", 0},
		{"DELETE FROM t WHERE a > 100", 0},
		{"DELETE FROM scratch", 0},
		{"UPDATE t SET b = 'TWO' WHERE a = 2", 1},
		{"UPDATE t SET a = 1, c = 1.5 WHERE a = 1", 1},
		{"UPDATE t SET b = 'TWO', c = 2.5 WHERE EXISTS (SELECT 1 FROM t u WHERE u.a = t.a AND u.b = 'TWO')", 1},
	} {
		if n, err := db.Exec(c.q); err != nil || n != c.matched {
			t.Fatalf("%s: affected %d, want %d, err %v", c.q, n, c.matched, err)
		}
	}
	if _, after := walFileBytes(t, fs, db); len(after) != len(before) {
		t.Fatalf("no-op statements grew the WAL by %d bytes", len(after)-len(before))
	}
	if got := db.Stats().EpochSeq; got != seq {
		t.Fatalf("no-op statements published %d epoch(s)", got-seq)
	}
	// The same statements with something to do still do it.
	walExec(t, db, "INSERT INTO scratch SELECT a FROM t", "TRUNCATE TABLE scratch")
	if got := db.Stats().EpochSeq; got != seq+2 {
		t.Fatalf("effective statements published %d epoch(s), want 2", got-seq)
	}
	db.Close()
}

// An UPDATE that changes some of the rows it matches logs and rewrites
// exactly those: its WAL unit is as long as that of the UPDATE matching
// only them, it reports every matched row, and the log replays to the
// same state.
func TestUpdateWritesOnlyChangedRows(t *testing.T) {
	grow := func(q string) (n int64, walBytes int, fs *MemFS, db *DB) {
		fs = NewMemFS(7)
		db = memOpen(t, fs, WALOptions{Fsync: FsyncAlways})
		seedSmall(t, db)
		walExec(t, db, "INSERT INTO t VALUES (4, 'TWO', 4.5), (5, 'five', 5.5)")
		_, before := walFileBytes(t, fs, db)
		seq := db.Stats().EpochSeq
		n, err := db.Exec(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if got := db.Stats().EpochSeq; got != seq+1 {
			t.Fatalf("%s published %d epoch(s), want 1", q, got-seq)
		}
		_, after := walFileBytes(t, fs, db)
		return n, len(after) - len(before), fs, db
	}
	// Four rows match; a = 2 and a = 4 already hold 'TWO'.
	n, half, fs, db := grow("UPDATE t SET b = 'TWO'")
	m, only, _, ref := grow("UPDATE t SET b = 'TWO' WHERE a = 1 OR a = 5")
	defer ref.Close()
	if n != 4 || m != 2 {
		t.Fatalf("affected %d and %d rows, want the matched 4 and 2", n, m)
	}
	if half != only {
		t.Fatalf("UPDATE changing 2 of its 4 matches logged %d bytes, the UPDATE of those 2 rows %d", half, only)
	}
	want := fingerprint(db)
	if want != fingerprint(ref) {
		t.Fatalf("the two UPDATEs leave different states:\n%s\nvs\n%s", want, fingerprint(ref))
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2 := memOpen(t, fs, WALOptions{Fsync: FsyncAlways})
	defer db2.Close()
	if got := fingerprint(db2); got != want {
		t.Fatalf("recovered state differs:\nwant:\n%s\ngot:\n%s", want, got)
	}
}

// TestLoadRelationCoercesKinds: LoadRelation stores what INSERT would —
// each cell coerced to its column's kind, the table's over an existing
// table — refuses what INSERT refuses before it logs anything, and
// recovery holds a logged load to the same rule. So an INTEGER 1 loaded
// into a REAL column is REAL 1 and SET X = 1.0 changes nothing, as
// NULL over NULL and NaN over NaN do not.
func TestLoadRelationCoercesKinds(t *testing.T) {
	fs := NewMemFS(12)
	db := memOpen(t, fs, WALOptions{Fsync: FsyncAlways})
	defer db.Close()
	walExec(t, db, "CREATE TABLE k (a INTEGER)")
	if _, err := db.Exec("INSERT INTO k VALUES ('x')"); err == nil || !strings.Contains(err.Error(), "cannot store TEXT value x in INTEGER column a") {
		t.Fatalf("INSERT of TEXT into INTEGER: %v", err)
	}
	loose, err := relation.NewSchema("k", relation.Attribute{Name: "a", Kind: relation.KindText})
	if err != nil {
		t.Fatal(err)
	}
	bad := relation.New(loose)
	bad.Rows = append(bad.Rows, relation.Tuple{relation.Int(3)}, relation.Tuple{relation.Text("x")})
	_, logged := walFileBytes(t, fs, db)
	if err := db.LoadRelation(bad); err == nil || !strings.Contains(err.Error(), "cannot store TEXT value x in INTEGER column a") {
		t.Fatalf("LoadRelation of TEXT into INTEGER: %v", err)
	}
	if _, now := walFileBytes(t, fs, db); len(now) != len(logged) {
		t.Fatalf("a refused load logged %d bytes", len(now)-len(logged))
	}
	if n, _ := db.TableLen("k"); n != 0 {
		t.Fatalf("a refused load left %d rows", n)
	}

	// A new table takes the relation's kinds: the INTEGER becomes TEXT.
	newT := relation.New(mustSchema(t, "n", relation.KindText))
	newT.Rows = append(newT.Rows, relation.Tuple{relation.Int(3)}, relation.Tuple{relation.Text("x")})
	floats := relation.New(mustSchema(t, "r", relation.KindFloat, relation.KindFloat))
	floats.Rows = append(floats.Rows, relation.Tuple{relation.Int(1), relation.Float(math.NaN())}, relation.Tuple{relation.Float(1), relation.Null()})
	for _, r := range []*relation.Relation{newT, floats} {
		if err := db.LoadRelation(r); err != nil {
			t.Fatal(err)
		}
	}
	if got := flat(mustQuery(t, db, "SELECT c0 FROM n WHERE c0 = '3' OR c0 = 'x'")); got != "3;x" {
		t.Fatalf("loaded TEXT column: %q", got)
	}
	seq := db.Stats().EpochSeq
	mustExec(t, db, "UPDATE r SET c1 = NULL WHERE c1 IS NULL")
	if n := mustExec(t, db, "UPDATE r SET c0 = 1.0"); n != 2 {
		t.Fatalf("affected %d rows, want 2", n)
	}
	if got := db.Stats().EpochSeq; got != seq {
		t.Fatalf("updates to the values the rows hold published %d epoch(s)", got-seq)
	}
	want := fingerprint(db)
	for _, s := range []string{"table n (c0:TEXT:0,)\n" + relation.Tuple{relation.Text("3")}.Key(), relation.Tuple{relation.Float(1), relation.Float(math.NaN())}.Key()} {
		if !strings.Contains(want, s) {
			t.Fatalf("stored state lacks %q:\n%s", s, want)
		}
	}
	if got := fingerprint(memOpen(t, fs, WALOptions{})); got != want {
		t.Fatalf("recovered state differs:\nwant:\n%s\ngot:\n%s", want, got)
	}

	// Replay refuses a logged load the table's kinds refuse.
	rs := fuzzTable() // t (a INTEGER, b TEXT)
	load := appendTuple(appendUint(appendSchema([]byte{opLoadRelation}, mustSchema(t, "t", relation.KindText, relation.KindText)), 1),
		relation.Tuple{relation.Text("x"), relation.Text("y")})
	if err := applyWALUnit(rs, load); !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "cannot store TEXT value x in INTEGER column a") {
		t.Fatalf("replay of a load of TEXT into INTEGER: %v", err)
	}
}

// mustSchema is a schema of columns c0, c1, … of the given kinds.
func mustSchema(t *testing.T, name string, kinds ...relation.Kind) *relation.Schema {
	t.Helper()
	attrs := make([]relation.Attribute, len(kinds))
	for i, k := range kinds {
		attrs[i] = relation.Attribute{Name: fmt.Sprint("c", i), Kind: k}
	}
	s, err := relation.NewSchema(name, attrs...)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// Inside a transaction the rule is the same, and rollback restores the
// rows an UPDATE did change.
func TestNoOpUpdateInTransaction(t *testing.T) {
	fs := NewMemFS(9)
	db := memOpen(t, fs, WALOptions{Fsync: FsyncAlways})
	defer db.Close()
	seedSmall(t, db)
	want := fingerprint(db)
	_, before := walFileBytes(t, fs, db)

	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	seq := db.curW.seq
	txExec(t, tx, "UPDATE t SET b = 'TWO' WHERE a = 2")
	if got := db.curW.seq; got != seq {
		t.Fatalf("no-op UPDATE in a transaction built %d epoch(s)", got-seq)
	}
	if n, err := tx.Exec("UPDATE t SET b = 'TWO'"); err != nil || n != 2 {
		t.Fatalf("affected %d, err %v", n, err)
	}
	if fingerprintEpoch(db.curW) == want {
		t.Fatal("the changing UPDATE changed nothing")
	}
	if got := fingerprint(db); got != want {
		t.Fatalf("the open transaction's UPDATE was published:\n%s", got)
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	if got := fingerprint(db); got != want {
		t.Fatalf("rollback did not restore the rows:\nwant:\n%s\ngot:\n%s", want, got)
	}
	if _, after := walFileBytes(t, fs, db); len(after) != len(before) {
		t.Fatalf("rolled-back transaction grew the WAL by %d bytes", len(after)-len(before))
	}
}

// syncGateFS is a WALFS whose files call gate before every Sync, so a
// test can count the flushes.
type syncGateFS struct {
	WALFS
	gate func()
}

func (g syncGateFS) Create(path string) (WALFile, error) {
	f, err := g.WALFS.Create(path)
	return syncGateFile{f, g.gate}, err
}

func (g syncGateFS) OpenAppend(path string) (WALFile, error) {
	f, err := g.WALFS.OpenAppend(path)
	return syncGateFile{f, g.gate}, err
}

type syncGateFile struct {
	WALFile
	gate func()
}

func (f syncGateFile) Sync() error {
	f.gate()
	return f.WALFile.Sync()
}

// TestWALOneSyncPerCommit drives fsync=always from one or several
// goroutines at once: single-row autocommit INSERTs through one
// Prepared. Every commit appends and syncs its own unit under the
// writer lock before it publishes, so the writers together pay exactly
// one flush per commit. An acknowledged row must be visible to its
// writer at once and must survive — a power cut on MemFS, Close +
// reopen on the OS filesystem.
func TestWALOneSyncPerCommit(t *testing.T) {
	const perWriter = 40
	for _, tc := range []struct {
		name    string
		mem     *MemFS
		writers int
	}{
		{"memfs/1", NewMemFS(1), 1},
		{"memfs/8", NewMemFS(2), 8},
		{"osfs/4", nil, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var (
				db    *DB
				syncs atomic.Int64
			)
			gate := func() { syncs.Add(1) }
			opts := WALOptions{Dir: t.TempDir(), FS: syncGateFS{OSFS{}, gate}, Fsync: FsyncAlways}
			if tc.mem != nil {
				opts.Dir, opts.FS = "/wal", syncGateFS{tc.mem, gate}
			}
			var err error
			if db, err = Open(opts); err != nil {
				t.Fatalf("Open: %v", err)
			}
			walExec(t, db, "CREATE TABLE ing (id INTEGER, val TEXT)")
			ins, err := db.Prepare("INSERT INTO ing VALUES (?, 'x')")
			if err != nil {
				t.Fatal(err)
			}
			sel, err := db.Prepare("SELECT val FROM ing WHERE id = ?")
			if err != nil {
				t.Fatal(err)
			}

			before := syncs.Load()
			var wg sync.WaitGroup
			for w := 0; w < tc.writers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < perWriter; i++ {
						id := relation.Int(int64(w*perWriter + i))
						if _, err := ins.Exec(id); err != nil {
							t.Errorf("writer %d: insert %d: %v", w, i, err)
							return
						}
						if res, err := sel.Query(id); err != nil || len(res.Rows) != 1 {
							t.Errorf("writer %d: acknowledged row %d not visible: %v %v", w, i, res, err)
						}
					}
				}(w)
			}
			wg.Wait()
			commits := int64(tc.writers * perWriter)
			if n := syncs.Load() - before; n != commits {
				t.Errorf("%d writer(s): %d syncs for %d commits, want one each", tc.writers, n, commits)
			}

			if tc.mem != nil {
				tc.mem.Crash() // power cut: only synced bytes survive
			} else if err := db.Close(); err != nil {
				t.Fatalf("close: %v", err)
			}
			db2, err := Open(opts)
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			defer db2.Close()
			res, err := db2.Query("SELECT id FROM ing")
			if err != nil || int64(len(res.Rows)) != commits {
				t.Fatalf("after reopen: %d of %d acknowledged rows (%v)", len(res.Rows), commits, err)
			}
		})
	}
}
