package sqldb

import (
	"fmt"
	"os"
	"testing"

	"ecfd/internal/relation"
)

// TestOldGenerationLoads opens testdata/oldgen, a durable database the
// engine wrote while it still stored every row as a tuple: a checkpointed
// snapshot (generation 2) and a WAL tail of seven units. Neither format
// names the storage, so the same files must keep loading into whatever
// holds the rows now. The statements that wrote it:
//
//	CREATE TABLE t (id INTEGER, name TEXT, score REAL, note TEXT)
//	CREATE INDEX t_id ON t (id)
//	INSERT INTO t …           -- ids 0..1499, in 15 statements (oldT)
//	CREATE TABLE u (k TEXT, v INTEGER)
//	INSERT INTO u VALUES ('a', 1), ('b', NULL), (NULL, 3)
//	-- Checkpoint: snapshot 2; what follows is the WAL tail
//	INSERT INTO t VALUES (1500, 'tail', 0.5, NULL), (1501, NULL, NULL, 'x'), (1502, 'n3', -2.75, 'note 1')
//	UPDATE t SET name = 'upd', score = NULL WHERE id >= 200 AND id < 210
//	UPDATE t SET note = NULL WHERE id = 1501
//	DELETE FROM t WHERE id >= 990 AND id < 1060
//	DELETE FROM t WHERE id = 7
//	TRUNCATE TABLE u
//	INSERT INTO u VALUES ('c', 30), ('d', NULL)
func TestOldGenerationLoads(t *testing.T) {
	dir := t.TempDir()
	if err := os.CopyFS(dir, os.DirFS("testdata/oldgen")); err != nil {
		t.Fatal(err)
	}
	db, err := Open(WALOptions{Dir: dir, Fsync: FsyncOff})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if rs := db.RecoveryStats(); rs.SnapshotGen != 2 || rs.UnitsReplayed != 7 || rs.FellBack || rs.TornTail {
		t.Fatalf("recovery %+v, want snapshot 2 and 7 units replayed", rs)
	}

	var wantT []relation.Tuple
	for j := range 1500 {
		if j == 7 || j >= 990 && j < 1060 {
			continue
		}
		row := oldT(j)
		if j >= 200 && j < 210 {
			row[1], row[2] = relation.Text("upd"), relation.Null()
		}
		wantT = append(wantT, row)
	}
	wantT = append(wantT,
		relation.Tuple{relation.Int(1500), relation.Text("tail"), relation.Float(0.5), relation.Null()},
		relation.Tuple{relation.Int(1501), relation.Null(), relation.Null(), relation.Null()},
		relation.Tuple{relation.Int(1502), relation.Text("n3"), relation.Float(-2.75), relation.Text("note 1")},
	)
	wantU := []relation.Tuple{
		{relation.Text("c"), relation.Int(30)},
		{relation.Text("d"), relation.Null()},
	}
	for _, tc := range []struct {
		name string
		want []relation.Tuple
	}{{"t", wantT}, {"u", wantU}} {
		got, err := db.Snapshot(tc.name)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Rows) != len(tc.want) {
			t.Fatalf("table %s: %d rows, want %d", tc.name, len(got.Rows), len(tc.want))
		}
		for i, row := range got.Rows {
			if len(row) != len(tc.want[i]) {
				t.Fatalf("table %s position %d: %v, want %v", tc.name, i, row, tc.want[i])
			}
			for c := range row {
				if row[c].K != tc.want[i][c].K || !relation.Identical(row[c], tc.want[i][c]) {
					t.Fatalf("table %s position %d: %v, want %v", tc.name, i, row, tc.want[i])
				}
			}
		}
	}
	// The index came back too, and answers from the loaded rows.
	res, err := db.Query("SELECT name, note FROM t WHERE id = 1502")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].S != "n3" || res.Rows[0][1].S != "note 1" {
		t.Fatalf("probe through t_id: %v", res.Rows)
	}
}

// oldT is row id j of table t as the 15 INSERTs before the checkpoint
// wrote it.
func oldT(j int) relation.Tuple {
	name, score := relation.Text(fmt.Sprintf("n%d", j%37)), relation.Float(float64(j)+0.25)
	if j%11 == 0 {
		name = relation.Null()
	}
	if j%13 == 0 {
		score = relation.Null()
	}
	return relation.Tuple{relation.Int(int64(j)), name, score, relation.Text(fmt.Sprintf("note %d", j%5))}
}
