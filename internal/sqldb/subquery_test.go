package sqldb

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"ecfd/internal/relation"
)

// TestDecorrelatedClosureDifferential puts decorrelatable [NOT] EXISTS
// where no kernel takes them — the select list, a CASE, an OR whose other
// alternative is a LIKE, a level over a derived source — so the closure
// tryDecorrelate builds decides every row. The inner table answers from
// an exact-cover index (its columns in another order than the key's),
// from a hash build because it has no index, or from a hash build because
// the subquery filters it; keys are one column, two, or a '@'-blanking
// CASE beside a column, over NULL and NaN on both sides. Planned must
// equal Reference on every query, and Stats must show that no probe
// kernel ran, that no sub-select re-ran per row, and that the hash and
// the index branch each did. `make difffuzz` runs it on a fresh seed.
func TestDecorrelatedClosureDifferential(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(diffSeed(t, 191)))
	texts := []relation.Value{relation.Null(), relation.Text("x"), relation.Text("xy"), relation.Text("y"),
		relation.Text("@"), relation.Text("")}
	reals := []relation.Value{relation.Null(), relation.Float(math.NaN()), relation.Float(0), relation.Float(1),
		relation.Float(1.5)}
	pick := func(vs []relation.Value) relation.Value { return vs[rng.Intn(len(vs))] }

	const outerRows, innerRows = 40, 25
	db := NewDB()
	mustExec(t, db, `CREATE TABLE o (id INTEGER, a TEXT, b REAL, n INTEGER)`)
	for id := 0; id < outerRows; id++ {
		mustExec(t, db, `INSERT INTO o VALUES (?, ?, ?, ?)`, relation.Int(int64(id)), pick(texts), pick(reals),
			relation.Int(int64(rng.Intn(3)-1)))
	}
	inner := []struct {
		table, filter string
		hashed        bool
	}{
		{"ix", "", false},
		{"nx", "", true},
		{"fx", " AND i.w > 1", true},
	}
	for _, in := range inner {
		mustExec(t, db, fmt.Sprintf(`CREATE TABLE %s (a TEXT, b REAL, w INTEGER)`, in.table))
		if in.table != "nx" {
			mustExec(t, db, fmt.Sprintf(`CREATE INDEX idx_%s_a ON %s (a)`, in.table, in.table))
			mustExec(t, db, fmt.Sprintf(`CREATE INDEX idx_%s_ab ON %s (a, b)`, in.table, in.table))
		}
		for r := 0; r < innerRows; r++ {
			mustExec(t, db, fmt.Sprintf(`INSERT INTO %s VALUES (?, ?, ?)`, in.table), pick(texts), pick(reals),
				relation.Int(int64(rng.Intn(4))))
		}
	}

	keys := []string{
		`i.a = o.a`,
		`i.b = o.b AND i.a = o.a`, // key order (b, a) against the index's (a, b)
		`i.a = CASE WHEN o.n > 0 THEN o.a ELSE '@' END AND i.b = o.b`,
	}
	sites := []string{
		`SELECT o.id, %s FROM o`,
		`SELECT o.id, CASE WHEN %s THEN 'in' ELSE 'out' END FROM o`,
		`SELECT o.id FROM o WHERE o.a = o.b OR %s`,
		`SELECT o.id FROM (SELECT id, a, b, n FROM o) o WHERE %s`,
	}
	indexed, hashed := 0, 0
	for _, in := range inner {
		for _, key := range keys {
			for _, neg := range []string{"", "NOT "} {
				sub := fmt.Sprintf(`%sEXISTS (SELECT 1 FROM %s i WHERE %s%s)`, neg, in.table, key, in.filter)
				for _, site := range sites {
					q := fmt.Sprintf(site, sub)
					before := db.Stats()
					got := canonical(queryIn(t, db, Planned, q))
					st := db.Stats()
					if want := canonical(queryIn(t, db, Reference, q)); got != want {
						t.Fatalf("%s\nPlanned   %q\nReference %q", q, got, want)
					}
					if d := st.ProbeRows + st.SetRows - before.ProbeRows - before.SetRows; d != 0 {
						t.Fatalf("%s: a probe kernel decided %d rows; want the closure", q, d)
					}
					// The outer rows, twice over a derived source, and one hash
					// build: a sub-select run per outer row reads far more.
					if d := st.RowsScanned - before.RowsScanned; d > 2*outerRows+innerRows {
						t.Fatalf("%s: %d rows scanned; want no sub-select per row", q, d)
					}
					switch builds := st.HashBuilds - before.HashBuilds; {
					case in.hashed && builds == 0:
						t.Fatalf("%s: no hash build", q)
					case !in.hashed && builds != 0:
						t.Fatalf("%s: %d hash builds beside an exact-cover index", q, builds)
					case in.hashed:
						hashed++
					default:
						indexed++
					}
				}
			}
		}
	}
	if indexed == 0 || hashed == 0 {
		t.Fatalf("%d queries answered by the index, %d by hash builds: want both", indexed, hashed)
	}
}
