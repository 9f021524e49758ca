package sqldb_test

import (
	"database/sql"
	"testing"

	"ecfd/internal/detect"
	"ecfd/internal/gen"
	"ecfd/internal/sqldb"
	"ecfd/internal/sqldriver"
)

// FuzzParse feeds the lexer and parser arbitrary text. They are the
// engine's outermost door — the server hands them nothing but generated
// statements today, ecfdsql whatever is typed — so whatever the input
// they must return, never panic, and an error must say where: every
// lexer and parser error carries an offset into the text. The corpus
// starts from the statements the detector generates for the benchmark's
// schema (the SQL this repository exists to run) and from the parser
// tests' accepted and rejected inputs.
func FuzzParse(f *testing.F) {
	const dsn = "sqldb_fuzz_parse_seeds"
	db, err := sql.Open(sqldriver.DriverName, dsn)
	if err != nil {
		f.Fatal(err)
	}
	d, err := detect.New(db, gen.Schema(), gen.Constraints())
	db.Close()
	sqldriver.Unregister(dsn)
	if err != nil {
		f.Fatal(err)
	}
	qsvSelect, qsvUpdate, qmvInsert, mvUpdate := d.SQL()
	seeds := append([]string{qsvSelect, qsvUpdate, qmvInsert, mvUpdate}, d.IncrementalSQL()...)
	for _, src := range append(seeds, sqldb.ParseSeeds...) {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		stmts, err := sqldb.ParseScript(src)
		if err == nil {
			if len(stmts) == 0 {
				t.Fatalf("no statement and no error for %q", src)
			}
			return
		}
		if off, ok := sqldb.ParseErrorOffset(err); !ok || off < 0 || off > len(src) {
			t.Fatalf("error without a position inside the %d-byte input: %v", len(src), err)
		}
	})
}
