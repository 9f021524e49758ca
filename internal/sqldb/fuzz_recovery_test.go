package sqldb

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"strings"
	"testing"

	"ecfd/internal/relation"
)

// The two decoders recovery trusts with bytes from disk. A checksum
// guards both against damage, not against a file that is wrong in a way
// that checks out: whatever they are handed they must return, never
// panic; an error must be ErrCorrupt; and success must mean the whole
// input was applied and left a catalog the executor can index — rows as
// wide as their schema, every cell NULL or of its column's kind, index
// columns inside the schema.

// fuzzTable is the one table the WAL target's restore state knows.
func fuzzTable() *restoreState {
	s, err := relation.NewSchema("t",
		relation.Attribute{Name: "a", Kind: relation.KindInt},
		relation.Attribute{Name: "b", Kind: relation.KindText})
	if err != nil {
		panic(err)
	}
	rs := newRestoreState()
	rt := &restoreTable{t: &Table{Name: "t", Schema: s}}
	for i := 0; i < 3; i++ {
		rt.rows = append(rt.rows, relation.Tuple{relation.Int(int64(i)), relation.Text(fmt.Sprint("v", i))})
	}
	rs.tables["t"] = rt
	return rs
}

// checkRestored verifies what a successful decode leaves behind.
func checkRestored(t *testing.T, tables map[string]*restoreTable) {
	t.Helper()
	for name, rt := range tables {
		w := rt.t.Schema.Width()
		for i, row := range rt.rows {
			if len(row) != w {
				t.Fatalf("table %s row %d has %d values for %d columns", name, i, len(row), w)
			}
			for j, v := range row {
				if a := rt.t.Schema.Attrs[j]; !v.IsNull() && v.K != a.Kind {
					t.Fatalf("table %s row %d holds %s %v in %s column %s", name, i, v.K, v, a.Kind, a.Name)
				}
			}
		}
		for _, idx := range rt.indexes {
			if len(idx.Cols) == 0 {
				t.Fatalf("table %s index %s has no column", name, idx.Name)
			}
			for _, c := range idx.Cols {
				if c < 0 || c >= w {
					t.Fatalf("table %s index %s reads column %d of %d", name, idx.Name, c, w)
				}
			}
		}
	}
}

// unitRowCounts replays a unit that applied cleanly on row counts alone,
// reading nothing but the operations' lengths: what the tables must hold
// if every operation took effect in full.
func unitRowCounts(payload []byte, rows map[string]int) {
	d := &walDecoder{b: payload}
	for d.more() {
		switch d.byte() {
		case opInsert:
			name, n := lowerName(d.str()), int(d.uint())
			for i := 0; i < n; i++ {
				d.tuple()
			}
			rows[name] += n
		case opDelete:
			name, n := lowerName(d.str()), int(d.uint())
			for i := 0; i < n; i++ {
				d.uint()
			}
			rows[name] -= n
		case opUpdate:
			d.str()
			nc := int(d.uint())
			for i := 0; i < nc; i++ {
				d.uint()
			}
			for i, np := 0, int(d.uint()); i < np; i++ {
				d.uint()
				for j := 0; j < nc; j++ {
					d.value()
				}
			}
		case opTruncate:
			rows[lowerName(d.str())] = 0
		case opCreateTable:
			rows[lowerName(d.schema().Name)] = 0
		case opDropTable:
			delete(rows, lowerName(d.str()))
		case opCreateIndex:
			d.str()
			d.str()
			for i, nc := 0, int(d.uint()); i < nc; i++ {
				d.str()
			}
		case opLoadRelation:
			name, n := lowerName(d.schema().Name), int(d.uint())
			for i := 0; i < n; i++ {
				d.tuple()
			}
			rows[name] = n
		}
	}
}

// FuzzWALUnit applies arbitrary commit-unit payloads to a restore state
// holding one known table, seeded with the real encodings of every
// operation.
func FuzzWALUnit(f *testing.F) {
	row := func(a int64, b string) relation.Tuple { return relation.Tuple{relation.Int(a), relation.Text(b)} }
	op := func(code byte, name string) []byte { return appendStr([]byte{code}, name) }
	insert := appendTuple(appendTuple(appendUint(op(opInsert, "t"), 2), row(7, "x")), row(8, "y"))
	del := appendUint(appendUint(appendUint(op(opDelete, "T"), 2), 0), 2)
	update := appendUint(appendUint(op(opUpdate, "t"), 1), 1) // one column: b
	update = appendValue(appendUint(appendUint(update, 1), 2), relation.Text("z"))
	index := appendStr(appendUint(appendStr(op(opCreateIndex, "idx_t"), "t"), 1), "a")
	u, err := relation.NewSchema("u", relation.Attribute{Name: "k", Kind: relation.KindFloat,
		Domain: []relation.Value{relation.Float(0.5), relation.Null()}})
	if err != nil {
		f.Fatal(err)
	}
	create := appendSchema([]byte{opCreateTable}, u)
	load := appendTuple(appendUint(appendSchema([]byte{opLoadRelation}, u), 1), relation.Tuple{relation.Float(1.5)})
	seeds := [][]byte{insert, del, update, op(opTruncate, "t"), index, create, load, op(opDropTable, "t")}
	var all []byte
	for _, s := range seeds {
		f.Add(s)
		all = append(all, s...)
	}
	f.Add(all[:len(all)-len(seeds[len(seeds)-1])]) // a transaction: everything but the drop
	f.Add(append(append([]byte(nil), create...), load...))
	f.Fuzz(func(t *testing.T, payload []byte) {
		rs := fuzzTable()
		err := applyWALUnit(rs, payload)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("untyped error: %v", err)
			}
			return
		}
		checkRestored(t, rs.tables)
		want := map[string]int{"t": 3}
		unitRowCounts(payload, want)
		for name, rt := range rs.tables {
			if n, ok := want[name]; !ok || n != len(rt.rows) {
				t.Fatalf("table %s holds %d rows; its operations, applied in full, leave %d", name, len(rt.rows), n)
			}
		}
		if len(want) != len(rs.tables) {
			t.Fatalf("%d tables, want %d", len(rs.tables), len(want))
		}
	})
}

// FuzzSnapshot decodes arbitrary snapshot files, seeded with the real
// encoding of a small catalog. The input is the file's body: the target
// seals it with the checksum a real file carries — the decoder would turn
// nearly every mutation away at that door otherwise — and also hands it
// over as it is. Every error is ErrCorrupt and names an offset into the
// file it was handed; what decodes must freeze into table data whose
// every column vector and index order builds.
func FuzzSnapshot(f *testing.F) {
	db := NewDB()
	for _, q := range []string{
		`CREATE TABLE t (a INTEGER, b TEXT)`,
		`CREATE INDEX idx_t ON t (b, a)`,
		`INSERT INTO t VALUES (1, 'x'), (2, NULL), (3, 'z')`,
		`CREATE TABLE e (f REAL)`,
	} {
		if _, err := db.Exec(q); err != nil {
			f.Fatal(err)
		}
	}
	const gen = 3
	file := encodeSnapshot(db.cur.Load(), gen)
	f.Add(file[:len(file)-4])
	f.Add(encodeSnapshot(NewDB().cur.Load(), gen)[:len(snapFileMagic)+2])
	// typed fails unless err is ErrCorrupt naming an offset into file.
	typed := func(t *testing.T, err error, file []byte) {
		t.Helper()
		var off int
		if _, scan := fmt.Sscanf(strings.TrimPrefix(err.Error(), ErrCorrupt.Error()+": snapshot "), "offset %d:", &off); !errors.Is(err, ErrCorrupt) || scan != nil || off < 0 || off > len(file) {
			t.Fatalf("%d-byte file: the error is not ErrCorrupt naming an offset into it: %v", len(file), err)
		}
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		if _, err := decodeSnapshot(body, gen); err != nil {
			typed(t, err, body)
		}
		file := binary.LittleEndian.AppendUint32(body[:len(body):len(body)], crc32.ChecksumIEEE(body))
		tables, err := decodeSnapshot(file, gen)
		if err != nil {
			typed(t, err, file)
			return
		}
		checkRestored(t, tables)
		got := NewDB()
		got.finishRestore(&restoreState{tables: tables})
		ep := got.cur.Load()
		for _, rt := range tables {
			td := ep.tds[rt.t]
			checkSegments(t, "restored "+rt.t.Name, rt.t, td, rt.rows)
			for _, idx := range rt.indexes {
				if s := td.orderedOf(rt.t, idx); len(s) != len(rt.rows) {
					t.Fatalf("table %s index %s orders %d of %d rows", rt.t.Name, idx.Name, len(s), len(rt.rows))
				}
			}
		}
	})
}
