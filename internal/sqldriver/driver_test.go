package sqldriver

import (
	"database/sql"
	"testing"

	"ecfd/internal/relation"
	"ecfd/internal/sqldb"
)

// open opens a DSN no other test uses and drops its engine when the test
// ends, so a rerun (-count) starts from an empty engine.
func open(t *testing.T, dsn string) *sql.DB {
	t.Helper()
	db, err := sql.Open(DriverName, dsn)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		db.Close()
		Unregister(dsn)
	})
	return db
}

func TestBasicRoundTrip(t *testing.T) {
	db := open(t, "t_basic")
	if _, err := db.Exec(`CREATE TABLE kv (k TEXT, v INTEGER)`); err != nil {
		t.Fatal(err)
	}
	res, err := db.Exec(`INSERT INTO kv VALUES ('a', 1), ('b', 2)`)
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := res.RowsAffected(); n != 2 {
		t.Errorf("RowsAffected = %d", n)
	}
	if _, err := res.LastInsertId(); err == nil {
		t.Error("LastInsertId must be unsupported")
	}

	rows, err := db.Query(`SELECT k, v FROM kv ORDER BY k`)
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	cols, _ := rows.Columns()
	if len(cols) != 2 || cols[0] != "k" {
		t.Errorf("columns %v", cols)
	}
	var got []string
	for rows.Next() {
		var k string
		var v int64
		if err := rows.Scan(&k, &v); err != nil {
			t.Fatal(err)
		}
		got = append(got, k)
		_ = v
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Errorf("got %v", got)
	}
}

func TestPlaceholders(t *testing.T) {
	db := open(t, "t_params")
	if _, err := db.Exec(`CREATE TABLE p (s TEXT, n INTEGER, f REAL, b BOOLEAN)`); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(`INSERT INTO p VALUES (?, ?, ?, ?)`, "x?y", int64(3), 2.5, true); err != nil {
		t.Fatal(err)
	}
	var s string
	var n int64
	var f float64
	var b bool
	// The '?' inside the string literal must not count as a placeholder.
	err := db.QueryRow(`SELECT s, n, f, b FROM p WHERE s = 'x?y' AND n = ?`, int64(3)).Scan(&s, &n, &f, &b)
	if err != nil {
		t.Fatal(err)
	}
	if s != "x?y" || n != 3 || f != 2.5 || !b {
		t.Errorf("got %q %d %v %v", s, n, f, b)
	}
}

func TestNullScan(t *testing.T) {
	db := open(t, "t_null")
	if _, err := db.Exec(`CREATE TABLE n (v INTEGER)`); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(`INSERT INTO n VALUES (NULL)`); err != nil {
		t.Fatal(err)
	}
	var v sql.NullInt64
	if err := db.QueryRow(`SELECT v FROM n`).Scan(&v); err != nil {
		t.Fatal(err)
	}
	if v.Valid {
		t.Error("expected NULL")
	}
}

func TestTransactionRollback(t *testing.T) {
	db := open(t, "t_tx")
	if _, err := db.Exec(`CREATE TABLE acct (name TEXT, bal INTEGER)`); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(`INSERT INTO acct VALUES ('a', 100)`); err != nil {
		t.Fatal(err)
	}
	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec(`UPDATE acct SET bal = 0`); err != nil {
		t.Fatal(err)
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	var bal int64
	if err := db.QueryRow(`SELECT bal FROM acct`).Scan(&bal); err != nil {
		t.Fatal(err)
	}
	if bal != 100 {
		t.Errorf("rollback lost data: bal = %d", bal)
	}

	tx, err = db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec(`UPDATE acct SET bal = 50`); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := db.QueryRow(`SELECT bal FROM acct`).Scan(&bal); err != nil {
		t.Fatal(err)
	}
	if bal != 50 {
		t.Errorf("commit lost data: bal = %d", bal)
	}
}

// TestTxRoutesToItsConnection: a write transaction's Exec and Query run
// on the engine's transaction, so it reads its own writes, while another
// connection reads the last committed state until Commit.
func TestTxRoutesToItsConnection(t *testing.T) {
	db := open(t, "t_tx_route")
	if _, err := db.Exec(`CREATE TABLE acct (name TEXT, bal INTEGER)`); err != nil {
		t.Fatal(err)
	}
	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec(`INSERT INTO acct VALUES (?, ?)`, "a", 100); err != nil {
		t.Fatal(err)
	}
	var inside, outside int64
	if err := tx.QueryRow(`SELECT COUNT(*) FROM acct`).Scan(&inside); err != nil {
		t.Fatal(err)
	}
	if err := db.QueryRow(`SELECT COUNT(*) FROM acct`).Scan(&outside); err != nil {
		t.Fatal(err)
	}
	if inside != 1 || outside != 0 {
		t.Fatalf("before commit the transaction counts %d rows, another connection %d; want 1 and 0", inside, outside)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := db.QueryRow(`SELECT COUNT(*) FROM acct`).Scan(&outside); err != nil || outside != 1 {
		t.Fatalf("after commit another connection counts %d rows (%v), want 1", outside, err)
	}
}

func TestPreparedReuse(t *testing.T) {
	db := open(t, "t_prep")
	if _, err := db.Exec(`CREATE TABLE q (x INTEGER)`); err != nil {
		t.Fatal(err)
	}
	stmt, err := db.Prepare(`INSERT INTO q VALUES (?)`)
	if err != nil {
		t.Fatal(err)
	}
	defer stmt.Close()
	for i := 0; i < 5; i++ {
		if _, err := stmt.Exec(int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	var n int64
	if err := db.QueryRow(`SELECT COUNT(*) FROM q`).Scan(&n); err != nil {
		t.Fatal(err)
	}
	if n != 5 {
		t.Errorf("count = %d", n)
	}
}

func TestRegisterDBSharesEngine(t *testing.T) {
	eng := sqldb.NewDB()
	if _, err := eng.Exec(`CREATE TABLE pre (x INTEGER)`); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Exec(`INSERT INTO pre VALUES (7)`); err != nil {
		t.Fatal(err)
	}
	RegisterDB("t_shared", eng)

	db := open(t, "t_shared")
	var x int64
	if err := db.QueryRow(`SELECT x FROM pre`).Scan(&x); err != nil {
		t.Fatal(err)
	}
	if x != 7 {
		t.Errorf("x = %d", x)
	}
	// Changes through database/sql are visible in the engine.
	if _, err := db.Exec(`INSERT INTO pre VALUES (8)`); err != nil {
		t.Fatal(err)
	}
	n, err := eng.TableLen("pre")
	if err != nil || n != 2 {
		t.Errorf("engine sees %d rows (%v)", n, err)
	}
}

// TestPipelinedScript: a fixed multi-statement sequence — the shape
// the detector's BatchDetect/ApplyUpdates pipelines use — goes through
// database/sql as ONE prepared round trip, with parameter placeholders
// indexing through the script in statement order.
func TestPipelinedScript(t *testing.T) {
	db := open(t, "t_pipeline")
	if _, err := db.Exec(`CREATE TABLE pl (rid INTEGER, flag INTEGER)`); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(`INSERT INTO pl VALUES (1, 9), (2, 9), (3, 9), (4, 9)`); err != nil {
		t.Fatal(err)
	}
	script := `UPDATE pl SET flag = 0;
UPDATE pl SET flag = 1 WHERE rid >= ?;
UPDATE pl SET flag = 2 WHERE rid <= ?`
	res, err := db.Exec(script, int64(3), int64(1))
	if err != nil {
		t.Fatal(err)
	}
	// 4 reset + 2 high-slice + 1 low-slice rows affected in total.
	if n, _ := res.RowsAffected(); n != 7 {
		t.Errorf("pipelined script affected %d rows, want 7", n)
	}
	rows, err := db.Query(`SELECT flag FROM pl ORDER BY rid`)
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	var got []int64
	for rows.Next() {
		var f int64
		if err := rows.Scan(&f); err != nil {
			t.Fatal(err)
		}
		got = append(got, f)
	}
	want := []int64{2, 0, 1, 1}
	for i := range want {
		if i >= len(got) || got[i] != want[i] {
			t.Fatalf("flags after pipeline: %v, want %v", got, want)
		}
	}
	// And the prepared form reuses one handle for the whole script.
	stmt, err := db.Prepare(script)
	if err != nil {
		t.Fatal(err)
	}
	defer stmt.Close()
	if _, err := stmt.Exec(int64(2), int64(2)); err != nil {
		t.Fatal(err)
	}
}

func TestQueryErrors(t *testing.T) {
	db := open(t, "t_err")
	if _, err := db.Query(`SELECT * FROM missing`); err == nil {
		t.Error("query on missing table must fail")
	}
	if _, err := db.Exec(`THIS IS NOT SQL`); err == nil {
		t.Error("parse error must surface")
	}
	if _, err := db.Query(`DELETE FROM missing`); err == nil {
		t.Error("Query with non-SELECT must fail")
	}
}

func TestValueConversions(t *testing.T) {
	// Exercise fromValue kinds directly.
	if fromValue(relation.Null()) != nil {
		t.Error("null conversion")
	}
	if fromValue(relation.Int(3)) != int64(3) {
		t.Error("int conversion")
	}
	if fromValue(relation.Float(2.5)) != 2.5 {
		t.Error("float conversion")
	}
	if fromValue(relation.Bool(true)) != true {
		t.Error("bool conversion")
	}
	if fromValue(relation.Text("s")) != "s" {
		t.Error("text conversion")
	}
}

// TestDurableDSNRoundTrip drives the wal= DSN grammar end to end, once
// per fsync policy spelling: a durable engine persists through
// Unregister (which closes it) and a reopen of the same DSN recovers
// the data from the WAL directory.
func TestDurableDSNRoundTrip(t *testing.T) {
	for _, tc := range []struct{ name, opts string }{
		{"batched", "&fsync=batched&fsync_every=2&checkpoint=4096"},
		{"off", "&fsync=off"},
		{"always", "&fsync=always"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dsn := "t_durable?wal=" + t.TempDir() + tc.opts
			db := open(t, dsn)
			if _, err := db.Exec(`CREATE TABLE kv (k TEXT, v INTEGER)`); err != nil {
				t.Fatal(err)
			}
			if _, err := db.Exec(`INSERT INTO kv VALUES ('a', 1), ('b', 2)`); err != nil {
				t.Fatal(err)
			}
			db.Close()
			Unregister(dsn)

			db2 := open(t, dsn)
			defer Unregister(dsn)
			var n int64
			if err := db2.QueryRow(`SELECT COUNT(*) FROM kv`).Scan(&n); err != nil {
				t.Fatal(err)
			}
			if n != 2 {
				t.Fatalf("recovered %d rows, want 2", n)
			}
			if !Engine(dsn).Durable() {
				t.Error("engine behind a wal= DSN must report durable")
			}
		})
	}
}

// TestDSNOptionErrors pins the option grammar's failure modes: they
// must surface from OpenEngine (and database/sql's first use), not
// silently select a volatile engine.
func TestDSNOptionErrors(t *testing.T) {
	for _, dsn := range []string{
		"bad?fsync=always",         // durability options without wal=
		"bad?wal=/w&fsync=umm",     // unknown policy
		"bad?wal=/w&fsync_every=0", // not a positive integer
		"bad?wal=/w&checkpoint=-1", // negative byte count
		"bad?wal=/w&nope=1",        // unknown option
	} {
		if _, err := OpenEngine(dsn); err == nil {
			t.Errorf("OpenEngine(%q) succeeded, want option error", dsn)
			Unregister(dsn)
		}
	}
}
