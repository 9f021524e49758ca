package sqldb_test

import (
	"bytes"
	"database/sql"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ecfd/internal/core"
	"ecfd/internal/detect"
	"ecfd/internal/gen"
	"ecfd/internal/relation"
	"ecfd/internal/server"
	"ecfd/internal/sqldb"
	"ecfd/internal/sqldriver"
)

// census runs every product path that sends SQL to the engine and
// returns each statement text it parsed, with the users that sent it.
// Each operation drains the process-wide parse cache before and after,
// so a text is attributed to the operation that parsed it. It must not
// run in parallel with a test that parses: the cache is process-wide.
func census(t testing.TB) map[string]map[string]bool {
	t.Helper()
	texts := map[string]map[string]bool{}
	sqldb.DrainParsed()
	run := func(user string, op func() error) {
		t.Helper()
		if err := op(); err != nil {
			t.Fatalf("%s: %v", user, err)
		}
		for _, text := range sqldb.DrainParsed() {
			if texts[text] == nil {
				texts[text] = map[string]bool{}
			}
			texts[text][user] = true
		}
	}

	for _, w := range []struct {
		schema *relation.Schema
		sigma  []*core.ECFD
		data   *relation.Relation
	}{
		{gen.Schema(), gen.Constraints(), gen.Dataset(gen.Config{Rows: 300, Noise: 10, Seed: 3})},
		typedWorkload(),
	} {
		dsn := fmt.Sprintf("sqldb_census_%s", w.schema.Name)
		db, err := sql.Open(sqldriver.DriverName, dsn)
		if err != nil {
			t.Fatal(err)
		}
		d, err := detect.New(db, w.schema, w.sigma)
		if err != nil {
			t.Fatal(err)
		}
		half := relation.New(w.schema)
		half.Rows = w.data.Rows[:len(w.data.Rows)/2]
		rest := relation.New(w.schema)
		rest.Rows = w.data.Rows[len(w.data.Rows)/2:]
		run("detector", func() error {
			if err := d.Install(); err != nil {
				return err
			}
			// Install again: its DROP TABLE IF EXISTS now drops tables.
			if err := d.Install(); err != nil {
				return err
			}
			rids, err := d.LoadData(half)
			if err != nil {
				return err
			}
			if _, err := d.BatchDetect(); err != nil {
				return err
			}
			if _, _, err := d.ApplyUpdates(rest, rids[:len(rids)/4]); err != nil {
				return err
			}
			probe := relation.New(w.schema)
			probe.Rows = w.data.Rows[:8]
			if _, err := d.Check(probe); err != nil {
				return err
			}
			if _, _, _, err := d.Counts(); err != nil {
				return err
			}
			_, err = d.Violations()
			return err
		})
		db.Close()
		sqldriver.Unregister(dsn)
	}

	run("ecfdbench -explain", func() error { return detect.ExplainPlans(io.Discard, 1) })

	// Resume: a durable session written by one engine, resumed by a
	// fresh one over the same directory.
	walDSN := "sqldb_census_durable?wal=" + filepath.Join(t.TempDir(), "wal")
	openDurable := func() (*sql.DB, *detect.Detector, error) {
		db, err := sql.Open(sqldriver.DriverName, walDSN)
		if err != nil {
			return nil, nil, err
		}
		d, err := detect.New(db, gen.Schema(), gen.Constraints())
		return db, d, err
	}
	run("detector", func() error {
		db, d, err := openDurable()
		if err != nil {
			return err
		}
		defer db.Close()
		if err := d.Install(); err != nil {
			return err
		}
		_, err = d.LoadData(gen.Dataset(gen.Config{Rows: 50, Noise: 10, Seed: 5}))
		sqldriver.Unregister(walDSN)
		return err
	})
	run("Resume", func() error {
		db, d, err := openDurable()
		if err != nil {
			return err
		}
		defer db.Close()
		defer sqldriver.Unregister(walDSN)
		return d.Resume()
	})

	run("server", func() error { return serverRoutes() })
	return texts
}

// typedWorkload is a schema with INTEGER, REAL and BOOLEAN attributes
// and a Σ with a NotIn pattern on a right-hand side, the shapes
// gen.Schema() and gen.Constraints() do not have.
func typedWorkload() (w struct {
	schema *relation.Schema
	sigma  []*core.ECFD
	data   *relation.Relation
}) {
	s := relation.MustSchema("meter",
		relation.Attribute{Name: "GRID", Kind: relation.KindInt},
		relation.Attribute{Name: "VOLT", Kind: relation.KindFloat},
		relation.Attribute{Name: "LIVE", Kind: relation.KindBool},
		relation.Attribute{Name: "ZONE", Kind: relation.KindText},
	)
	w.schema = s
	w.sigma = []*core.ECFD{
		{
			Name: "fd", Schema: s, X: []string{"GRID", "ZONE"}, Y: []string{"VOLT"},
			Tableau: []core.PatternTuple{{
				LHS: []core.Pattern{core.Any(), core.Any()},
				RHS: []core.Pattern{core.Any()},
			}},
		},
		{
			Name: "live", Schema: s, X: []string{"ZONE"}, YP: []string{"LIVE", "GRID"},
			Tableau: []core.PatternTuple{{
				LHS: []core.Pattern{core.NotInStrings("core")},
				RHS: []core.Pattern{core.InSet(relation.Bool(true)), core.NotInSet(relation.Int(9))},
			}},
		},
	}
	w.data = relation.New(s)
	for i := 0; i < 200; i++ {
		w.data.MustInsert(relation.Tuple{
			relation.Int(int64(i % 11)), relation.Float(float64(110 * (1 + i%3))),
			relation.Bool(i%5 != 0), relation.Text([]string{"core", "edge", "rim"}[i%3]),
		})
	}
	return w
}

// serverRoutes drives every data route of the service over loopback,
// the violations stream in both its keyset shapes.
func serverRoutes() error {
	srv := server.New(server.Options{})
	ts := httptest.NewServer(srv)
	defer srv.Close()
	defer ts.Close()
	call := func(method, path string, in any, out any) error {
		var body io.Reader
		if in != nil {
			raw, err := json.Marshal(in)
			if err != nil {
				return err
			}
			body = bytes.NewReader(raw)
		}
		req, err := http.NewRequest(method, ts.URL+path, body)
		if err != nil {
			return err
		}
		resp, err := ts.Client().Do(req)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			return err
		}
		if resp.StatusCode/100 != 2 {
			return fmt.Errorf("%s %s: HTTP %d %s", method, path, resp.StatusCode, raw)
		}
		if out != nil {
			return json.Unmarshal(raw, out)
		}
		return nil
	}
	var sess server.SessionInfo
	if err := call("POST", "/v1/sessions", server.CreateSessionRequest{
		Name: "census", Gen: &server.GenSpec{Rows: 200, Noise: 10, Seed: 6},
	}, &sess); err != nil {
		return err
	}
	base := "/v1/sessions/" + sess.ID
	row := []any{"212", "5551234", "Ann", "1 Main St", "NYC", "10001", "book", "paper", "12"}
	for _, step := range []struct {
		method, path string
		in           any
	}{
		{"POST", base + "/load", server.RowsPayload{Rows: [][]any{row}}},
		{"POST", base + "/detect", nil},
		{"POST", base + "/check", server.RowsPayload{Rows: [][]any{row}}},
		{"POST", base + "/updates", server.UpdatesRequest{Insert: [][]any{row}, Delete: []int64{1, 2}}},
		{"GET", base + "/violations", nil},
		{"GET", base + "/violations?lo=10&hi=150", nil},
		{"GET", base, nil},
		{"GET", "/v1/sessions", nil},
		{"DELETE", base, nil},
	} {
		if err := call(step.method, step.path, step.in, nil); err != nil {
			return err
		}
	}
	return nil
}

// productions returns the grammar productions a statement uses, by the
// names of the README's dialect table: its rows' first cells.
func productions(stmt sqldb.Statement) []string {
	var out []string
	use := func(p string) { out = append(out, p) }
	var expr func(sqldb.Expr)
	var sel func(*sqldb.Select)
	expr = func(e sqldb.Expr) {
		switch x := e.(type) {
		case nil:
		case *sqldb.Literal:
			use("literal")
		case *sqldb.Param:
			use("?")
		case *sqldb.ColumnRef:
			use("[t.]c")
		case *sqldb.Binary:
			switch x.Op {
			case "AND", "OR":
				use("e " + x.Op + " e")
			default:
				use("e op e")
			}
			expr(x.L)
			expr(x.R)
		case *sqldb.IsNull:
			use("e IS [NOT] NULL")
			expr(x.X)
		case *sqldb.InSelect:
			use("e IN (SELECT …)")
			expr(x.X)
			sel(x.Sub)
		case *sqldb.Exists:
			use("[NOT] EXISTS (SELECT …)")
			sel(x.Sub)
		case *sqldb.Case:
			use("CASE WHEN e THEN e ELSE e END")
			expr(x.Cond)
			expr(x.Then)
			expr(x.Else)
		case *sqldb.FuncCall:
			if x.Star {
				use(x.Name + "(*)")
			} else {
				use(x.Name + "(" + strings.TrimSuffix(strings.Repeat("e, ", len(x.Args)), ", ") + ")")
			}
			for _, a := range x.Args {
				expr(a)
			}
		default:
			use(fmt.Sprintf("%T", e))
		}
	}
	sel = func(s *sqldb.Select) {
		use("SELECT e, …")
		if s.Distinct {
			use("SELECT DISTINCT")
		}
		for _, se := range s.Exprs {
			if se.Star {
				use("SELECT *")
			}
			if se.Alias != "" {
				use("e AS name")
			}
			expr(se.Expr)
		}
		if len(s.From) > 1 {
			use("FROM s, s, …")
		}
		for _, tr := range s.From {
			if tr.Sub != nil {
				use("FROM (SELECT …) alias")
				sel(tr.Sub)
			} else {
				use("FROM t [alias]")
			}
		}
		clause := func(name string, es ...sqldb.Expr) {
			if len(es) > 0 && es[0] != nil {
				use(name)
			}
			for _, e := range es {
				expr(e)
			}
		}
		clause("WHERE e", s.Where)
		clause("GROUP BY e, …", s.GroupBy...)
		clause("HAVING e", s.Having)
		for _, o := range s.OrderBy {
			clause("ORDER BY [t.]c, …", o)
		}
		clause("LIMIT e", s.Limit)
	}
	switch s := stmt.(type) {
	case *sqldb.CreateTable:
		use("CREATE TABLE t (c type, …)")
		for _, c := range s.Cols {
			use(c.Kind.String())
		}
	case *sqldb.CreateIndex:
		use("CREATE INDEX i ON t (c, …)")
	case *sqldb.DropTable:
		use("DROP TABLE [IF EXISTS] t")
	case *sqldb.TruncateTable:
		use("TRUNCATE TABLE t")
	case *sqldb.Insert:
		if len(s.Cols) > 0 {
			use("INSERT INTO t (c, …) …")
		}
		if s.Query != nil {
			use("INSERT INTO t SELECT …")
			sel(s.Query)
		} else {
			use("INSERT INTO t VALUES (e, …), …")
		}
		for _, row := range s.Rows {
			for _, e := range row {
				expr(e)
			}
		}
	case *sqldb.Update:
		use("UPDATE t [alias] SET c = literal, … [WHERE e]")
		expr(s.Where)
	case *sqldb.Delete:
		use("DELETE FROM t [alias] [WHERE e]")
		expr(s.Where)
	case *sqldb.Select:
		sel(s)
	default:
		use(fmt.Sprintf("%T", stmt))
	}
	return out
}

// dialectTable reads the README's dialect table: each row's production
// — the first cell's backquoted name — and the users it names.
func dialectTable(t *testing.T) map[string][]string {
	t.Helper()
	raw, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, sec, ok := strings.Cut(string(raw), "\n## The dialect\n")
	if !ok {
		t.Fatal(`README.md has no "## The dialect" section`)
	}
	sec, _, _ = strings.Cut(sec, "\n## ")
	rows := map[string][]string{}
	for _, line := range strings.Split(sec, "\n") {
		cells := strings.Split(line, " | ")
		if !strings.HasPrefix(line, "| `") || len(cells) < 2 {
			continue
		}
		name := strings.Split(cells[0], "`")[1]
		if _, dup := rows[name]; dup {
			t.Fatalf("the dialect table lists %q twice", name)
		}
		rows[name] = strings.Split(cells[1], ", ")
	}
	if len(rows) == 0 {
		t.Fatal("the dialect table has no rows")
	}
	return rows
}

// TestDialectCensus holds the grammar the engine parses to the SQL the
// product writes: every production a product statement uses has a row
// in the README's dialect table, every row has a user, and every user a
// row names uses it.
func TestDialectCensus(t *testing.T) {
	rows := dialectTable(t)
	used := map[string]map[string]bool{}
	example := map[string]string{}
	for text, users := range census(t) {
		stmts, err := sqldb.ParseScript(text)
		if err != nil {
			t.Fatalf("%v: %s", err, text)
		}
		for _, st := range stmts {
			for _, p := range productions(st) {
				if used[p] == nil {
					used[p], example[p] = map[string]bool{}, text
				}
				for u := range users {
					used[p][u] = true
				}
			}
		}
	}
	for p := range used {
		if _, ok := rows[p]; !ok {
			t.Errorf("%q is not a production of the README's dialect table; it is used by %v in\n%s", p, used[p], example[p])
		}
	}
	for p, users := range rows {
		if len(used[p]) == 0 {
			t.Errorf("the dialect table's %q has no user: no product statement uses it", p)
		}
		for _, u := range users {
			if !used[p][u] {
				t.Errorf("the dialect table's %q names %s, which does not use it", p, u)
			}
		}
	}
}
