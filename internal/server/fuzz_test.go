package server

import (
	"bytes"
	"errors"
	"net/http/httptest"
	"testing"

	"ecfd/internal/relation"
)

// FuzzDecodeRows feeds the check and update request bodies arbitrary
// bytes through what their handlers run before the detector sees them:
// decodeBody (strict fields, int64-preserving numbers, the body cap) and
// toRelation over a schema of every column kind. Neither ever panics;
// every failure is a typed bad_request; and a body both accept yields one
// tuple per row, each cell NULL or of its column's kind.
func FuzzDecodeRows(f *testing.F) {
	for _, body := range []string{
		`{"rows": [["a", 1, 1.5, true], [null, null, null, null]]}`,
		`{"insert": [["x", -2, 0, false]], "delete": [1, 2]}`,
		`{"delete": [9223372036854775807]}`,
		`{"rows": [["a", 9223372036854775808, 1e400, "t"]]}`,
		`{"rows": [["a", 1.0, 1, true]]}`,
		`{"rows": [[1]]}`, `{"rows": [[]]}`, `{"rows": "x"}`, `{"rows": null}`,
		`{"insert": [["a", 1, 1, true]], "delete": ["1"]}`,
		`{"unknown": 1}`, `{"rows": []} {"rows": 1}`, `[`, ``, `null`,
	} {
		f.Add([]byte(body))
	}
	s := &Server{opts: Options{MaxBodyBytes: 1 << 12}.withDefaults()}
	schema := relation.MustSchema("fz",
		relation.Attribute{Name: "s", Kind: relation.KindText},
		relation.Attribute{Name: "i", Kind: relation.KindInt},
		relation.Attribute{Name: "f", Kind: relation.KindFloat},
		relation.Attribute{Name: "b", Kind: relation.KindBool})
	f.Fuzz(func(t *testing.T, body []byte) {
		for _, req := range []any{&RowsPayload{}, &UpdatesRequest{}} {
			r := httptest.NewRequest("POST", "/", bytes.NewReader(body))
			aerr := s.decodeBody(httptest.NewRecorder(), r, req)
			if aerr == nil {
				var rows [][]any
				switch req := req.(type) {
				case *RowsPayload:
					rows = req.Rows
				case *UpdatesRequest:
					rows = req.Insert
				}
				rel, err := toRelation(schema, rows)
				if err == nil {
					checkDecoded(t, body, schema, rows, rel)
					continue
				}
				if !errors.As(err, &aerr) {
					t.Fatalf("%T of %q: toRelation failed untyped: %v", req, body, err)
				}
			}
			if aerr.Code != CodeBadRequest {
				t.Fatalf("%T of %q: %v, want %s", req, body, aerr, CodeBadRequest)
			}
		}
	})
}

// checkDecoded verifies what toRelation made of rows: a tuple per row,
// each cell NULL or of its column's kind.
func checkDecoded(t *testing.T, body []byte, schema *relation.Schema, rows [][]any, rel *relation.Relation) {
	t.Helper()
	if len(rel.Rows) != len(rows) {
		t.Fatalf("%q: %d rows decoded into %d tuples", body, len(rows), len(rel.Rows))
	}
	for ri, tup := range rel.Rows {
		for ci, v := range tup {
			if k := schema.Attrs[ci].Kind; v.K != relation.KindNull && v.K != k {
				t.Fatalf("%q: row %d column %d holds %s, want %s", body, ri, ci, v.K, k)
			}
		}
	}
}
