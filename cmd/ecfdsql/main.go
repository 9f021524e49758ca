// Command ecfdsql is a small interactive shell for the embedded
// in-memory SQL engine — useful for poking at detector tables and for
// demos. It speaks the engine's dialect, the SQL the detector writes
// (internal/sqldb/README.md, "The dialect"); anything else is refused
// with the offset of the token the parser stopped at. It reads one
// statement per line (ending in ';' optional) and supports three
// meta-commands:
//
//	\tables              list tables
//	\load <table> <csv>  bulk-load a CSV file into a new table (TEXT columns)
//	\quit                exit (also \q)
//
// A statement prefixed with EXPLAIN prints the engine's query plan
// (join order, index access paths, semi-join updates) instead of
// running it.
package main

import (
	"bufio"
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"strings"

	"ecfd/internal/relation"
	"ecfd/internal/sqldb"
)

func main() {
	fmt.Println("ecfdsql — embedded SQL engine shell (\\quit to exit)")
	if err := shell(sqldb.NewDB(), os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "ecfdsql:", err)
		os.Exit(1)
	}
}

// shell runs the session: it reads lines from in until \quit or the end
// of the input and writes every answer to out.
func shell(db *sqldb.DB, in io.Reader, out io.Writer) error {
	lines := bufio.NewScanner(in)
	lines.Buffer(make([]byte, 1<<20), 1<<20)
	for {
		fmt.Fprint(out, "sql> ")
		if !lines.Scan() {
			return lines.Err()
		}
		line := strings.TrimSpace(lines.Text())
		switch {
		case line == "":
		case line == `\quit`, line == `\q`:
			return nil
		case line == `\tables`:
			for _, name := range db.TableNames() {
				n, _ := db.TableLen(name)
				fmt.Fprintf(out, "  %s (%d rows)\n", name, n)
			}
		case strings.HasPrefix(line, `\load `):
			if err := load(db, out, line); err != nil {
				fmt.Fprintln(out, "error:", err)
			}
		default:
			run(db, out, line)
		}
	}
}

func run(db *sqldb.DB, out io.Writer, stmt string) {
	if rest, ok := stripExplain(stmt); ok {
		plan, err := db.Explain(rest)
		if err != nil {
			fmt.Fprintln(out, "error:", err)
			return
		}
		fmt.Fprint(out, plan)
		return
	}
	if isQuery(stmt) {
		res, err := db.Query(stmt)
		if err != nil {
			fmt.Fprintln(out, "error:", err)
			return
		}
		fmt.Fprintln(out, strings.Join(res.Cols, " | "))
		for _, row := range res.Rows {
			cells := make([]string, len(row))
			for i, v := range row {
				cells[i] = v.String()
			}
			fmt.Fprintln(out, strings.Join(cells, " | "))
		}
		fmt.Fprintf(out, "(%d rows)\n", len(res.Rows))
		return
	}
	n, err := db.Exec(stmt)
	if err != nil {
		fmt.Fprintln(out, "error:", err)
		return
	}
	fmt.Fprintf(out, "ok (%d rows affected)\n", n)
}

func isQuery(stmt string) bool {
	return strings.HasPrefix(strings.ToUpper(strings.TrimSpace(stmt)), "SELECT")
}

// stripExplain reports whether the statement carries an EXPLAIN prefix
// and returns the statement proper.
func stripExplain(stmt string) (string, bool) {
	trimmed := strings.TrimSpace(stmt)
	if len(trimmed) >= 8 && strings.EqualFold(trimmed[:8], "EXPLAIN ") {
		return strings.TrimSpace(trimmed[8:]), true
	}
	return stmt, false
}

// load implements \load table file.csv: every column becomes TEXT.
func load(db *sqldb.DB, out io.Writer, line string) error {
	parts := strings.Fields(line)
	if len(parts) != 3 {
		return fmt.Errorf(`usage: \load <table> <file.csv>`)
	}
	table, path := parts[1], parts[2]
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	header, err := csv.NewReader(f).Read()
	if err != nil {
		return fmt.Errorf("read header: %w", err)
	}
	attrs := make([]relation.Attribute, len(header))
	for i, h := range header {
		attrs[i] = relation.Attribute{Name: h, Kind: relation.KindText}
	}
	schema, err := relation.NewSchema(table, attrs...)
	if err != nil {
		return err
	}
	if _, err := f.Seek(0, 0); err != nil {
		return err
	}
	rel, err := relation.ReadCSV(f, schema)
	if err != nil {
		return err
	}
	if err := db.LoadRelation(rel); err != nil {
		return err
	}
	fmt.Fprintf(out, "loaded %d rows into %s\n", rel.Len(), table)
	return nil
}
