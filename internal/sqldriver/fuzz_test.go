package sqldriver

import (
	"fmt"
	"strings"
	"testing"

	"ecfd/internal/sqldb"
)

// FuzzParseDSN feeds the DSN option grammar arbitrary strings, seeded
// with the forms the package documents and the refusals its tests pin.
// parseDSN never panics; every error quotes the DSN; a DSN it accepts
// without a WAL directory sets no option at all (the options only mean
// something to a durable engine); and OpenEngine registers no engine
// for a DSN parseDSN refuses. Accepted DSNs are never opened: a wal=
// directory would be created on disk.
func FuzzParseDSN(f *testing.F) {
	for _, dsn := range []string{
		"mem", "mem?", "mem?&", "mem?wal", "mem?fsync",
		"d?wal=/w", "d?wal=/w&fsync=batched&fsync_every=2&checkpoint=4096", "d?wal=/w&fsync=off",
		"bad?fsync=always", "bad?wal=/w&fsync=umm", "bad?wal=/w&fsync_every=0",
		"bad?wal=/w&checkpoint=-1", "bad?wal=/w&nope=1", "bad?wal=&fsync=off", "a?b?wal=/w",
	} {
		f.Add(dsn)
	}
	f.Fuzz(func(t *testing.T, dsn string) {
		opts, err := parseDSN(dsn)
		if err == nil {
			if opts.Dir == "" && opts != (sqldb.WALOptions{}) {
				t.Fatalf("parseDSN(%q) set %+v without a WAL directory", dsn, opts)
			}
			return
		}
		if q := fmt.Sprintf("%q", dsn); !strings.Contains(err.Error(), q) {
			t.Fatalf("parseDSN(%q): error %q does not quote the DSN", dsn, err)
		}
		if _, err := OpenEngine(dsn); err == nil {
			t.Fatalf("OpenEngine(%q) accepted what parseDSN refused", dsn)
		}
		if _, ok := Lookup(dsn); ok {
			t.Fatalf("OpenEngine(%q) registered an engine for a refused DSN", dsn)
		}
	})
}
