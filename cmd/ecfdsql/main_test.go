package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ecfd/internal/sqldb"
)

// TestShellSession drives a scripted session: DDL, DML, a query, EXPLAIN,
// \load of a CSV file, \tables, and a statement the dialect refuses,
// which must print the parser's positioned error and leave the session
// running.
func TestShellSession(t *testing.T) {
	csvPath := filepath.Join(t.TempDir(), "people.csv")
	if err := os.WriteFile(csvPath, []byte("name,city\nann,oslo\nbob,rome\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	script := strings.Join([]string{
		`CREATE TABLE t (k INTEGER, v TEXT)`,
		`INSERT INTO t VALUES (1, 'a'), (2, 'b'), (3, NULL)`,
		`SELECT k, v FROM t WHERE v IS NOT NULL ORDER BY k`,
		`EXPLAIN SELECT k FROM t WHERE k >= 2`,
		`\load people ` + csvPath,
		`SELECT name FROM people WHERE city = 'rome'`,
		`\tables`,
		`SELECT k FROM t WHERE v LIKE 'a%'`,
		`UPDATE t SET v = 'c' WHERE k = 3`,
		`\quit`,
		`SELECT 1`, // after \quit: never read
	}, "\n")
	var out strings.Builder
	if err := shell(sqldb.NewDB(), strings.NewReader(script), &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{
		"ok (3 rows affected)",
		"k | v\n1 | a\n2 | b\n(2 rows)",
		"scan t (3 rows)",
		"loaded 2 rows into people",
		"name\nbob\n(1 rows)",
		"  people (2 rows)\n",
		"error: sql: at offset 24: LIKE is not supported",
		"ok (1 rows affected)",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("the session's output lacks %q:\n%s", want, got)
		}
	}
	if n := strings.Count(got, "sql> "); n != 10 {
		t.Errorf("%d prompts, want 10 (the session ends at \\quit):\n%s", n, got)
	}
}
