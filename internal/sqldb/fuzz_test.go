package sqldb_test

import (
	"maps"
	"slices"
	"testing"

	"ecfd/internal/sqldb"
)

// FuzzParse feeds the lexer and parser arbitrary text. They are the
// engine's outermost door — the server hands them nothing but generated
// statements today, ecfdsql whatever is typed — so whatever the input
// they must return, never panic, and an error must say where: every
// lexer and parser error carries an offset into the text. The corpus
// starts from every statement the product sends the engine (the census
// of TestDialectCensus: the SQL this repository exists to run) and from
// the parser tests' accepted and rejected inputs, one of the latter per
// production the dialect refuses.
func FuzzParse(f *testing.F) {
	for _, text := range slices.Sorted(maps.Keys(census(f))) {
		f.Add(text)
	}
	for _, src := range sqldb.ParseSeeds {
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
