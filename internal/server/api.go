package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"

	"ecfd/internal/relation"
)

// Error codes of the wire protocol. Every non-2xx response carries an
// {"error": {"code", "message"}} envelope; the code is the contract —
// clients branch on it, the message is for humans.
const (
	CodeBadRequest = "bad_request"       // malformed body, unknown field, type mismatch
	CodeNotFound   = "not_found"         // no such session or route
	CodeConflict   = "conflict"          // duplicate session name
	CodeQueueFull  = "queue_full"        // admission queue at capacity; retry later
	CodeDeadline   = "deadline_exceeded" // the request deadline expired while queued
	CodeInternal   = "internal"          // engine or detector failure
)

// APIError is the typed error the handlers produce and the envelope
// carries. It implements error so internal layers can return it
// directly.
type APIError struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

func (e *APIError) Error() string { return e.Code + ": " + e.Message }

func apiErrorf(code, format string, args ...any) *APIError {
	return &APIError{Code: code, Message: fmt.Sprintf(format, args...)}
}

// httpStatus maps an error code to its transport status. queue_full is
// the 429 of the admission contract; deadline_exceeded maps to 504
// (the server, not the client, gave up on the queued request).
func httpStatus(code string) int {
	switch code {
	case CodeBadRequest:
		return http.StatusBadRequest
	case CodeNotFound:
		return http.StatusNotFound
	case CodeConflict:
		return http.StatusConflict
	case CodeQueueFull:
		return http.StatusTooManyRequests
	case CodeDeadline:
		return http.StatusGatewayTimeout
	default:
		return http.StatusInternalServerError
	}
}

type errorEnvelope struct {
	Error *APIError `json:"error"`
}

// --- requests and responses ---

// GenSpec asks the server to build a session from the built-in
// generator workload (internal/gen): the paper's schema and constraint
// set, with Rows tuples loaded at Noise%% corruption. It exists so load
// generators and benchmarks need not ship a dataset over the wire.
type GenSpec struct {
	Rows  int     `json:"rows"`
	Noise float64 `json:"noise"`
	Seed  int64   `json:"seed"`
}

// CreateSessionRequest opens a detection session. Exactly one of Spec
// (the textual constraint language, all constraints over one table) or
// Gen must be set.
type CreateSessionRequest struct {
	Name string   `json:"name,omitempty"`
	Spec string   `json:"spec,omitempty"`
	Gen  *GenSpec `json:"gen,omitempty"`
}

// ColumnInfo describes one attribute of the session's table.
type ColumnInfo struct {
	Name string `json:"name"`
	Kind string `json:"kind"`
}

// SessionInfo is the public view of a session.
type SessionInfo struct {
	ID          string       `json:"id"`
	Name        string       `json:"name,omitempty"`
	Table       string       `json:"table"`
	Columns     []ColumnInfo `json:"columns"`
	Constraints int          `json:"constraints"`
	Rows        int64        `json:"rows"`
	Created     string       `json:"created"`
}

// RowsPayload carries data tuples: one JSON array per tuple, values in
// schema attribute order (null for NULL).
type RowsPayload struct {
	Rows [][]any `json:"rows"`
}

// RIDRange reports a contiguous RID assignment.
type RIDRange struct {
	FirstRID int64 `json:"first_rid"`
	Count    int64 `json:"count"`
}

// DetectResponse reports one batch detection run.
type DetectResponse struct {
	SV        int64   `json:"sv"`
	MV        int64   `json:"mv"`
	Total     int64   `json:"total"`
	ElapsedMS float64 `json:"elapsed_ms"`
}

// CheckVerdict is the advisory verdict for one tuple of a check batch.
type CheckVerdict struct {
	SV bool `json:"sv"`
	MV bool `json:"mv"`
}

// CheckResponse reports a check call: one verdict per submitted tuple,
// in submission order.
type CheckResponse struct {
	Results   []CheckVerdict `json:"results"`
	ElapsedMS float64        `json:"elapsed_ms"`
}

// UpdatesRequest applies ΔD = (ΔD⁻, ΔD⁺) with incremental maintenance.
type UpdatesRequest struct {
	Insert [][]any `json:"insert,omitempty"`
	Delete []int64 `json:"delete,omitempty"`
}

// UpdatesResponse reports one incremental maintenance step. Applied
// counts the rows inserted plus the rows deleted; a RID that repeats or
// names no row counts nothing.
type UpdatesResponse struct {
	Inserted  RIDRange `json:"inserted"`
	Applied   int64    `json:"applied"`
	ElapsedMS float64  `json:"elapsed_ms"`
}

// EngineHealth surfaces sqldb.DB.Stats() for one session's engine.
type EngineHealth struct {
	EpochSeq      uint64 `json:"epoch_seq"`
	LiveEpochs    int    `json:"live_epochs"`
	RetiredEpochs int    `json:"retired_epochs"`
	// RetiredBytes is an upper bound: the rows of every retired epoch at
	// 40 bytes a cell and its built column segments at their real size
	// (40 bytes a value, 2 a dictionary code), shared ones counted in each.
	RetiredBytes int64 `json:"retired_bytes"`
	// Recovery is the engine's crash-recovery report (WAL generation,
	// units replayed, torn tail) — zero-valued for volatile engines.
	Recovery RecoveryHealth `json:"recovery"`
}

// RecoveryHealth mirrors sqldb.RecoveryStats.
type RecoveryHealth struct {
	Gen           uint64 `json:"gen"`
	SnapshotGen   uint64 `json:"snapshot_gen"`
	UnitsReplayed int    `json:"units_replayed"`
	TornTail      bool   `json:"torn_tail"`
	FellBack      bool   `json:"fell_back"`
}

// SessionHealth is one session's entry in the health report.
type SessionHealth struct {
	ID     string       `json:"id"`
	Name   string       `json:"name,omitempty"`
	Table  string       `json:"table"`
	Rows   int64        `json:"rows"`
	Engine EngineHealth `json:"engine"`
}

// HealthResponse is the /healthz body.
type HealthResponse struct {
	Status     string          `json:"status"`
	UptimeSecs float64         `json:"uptime_secs"`
	Workers    int             `json:"workers"`
	QueueDepth int             `json:"queue_depth"`
	InFlight   int64           `json:"in_flight"`
	Queued     int64           `json:"queued"`
	Sessions   []SessionHealth `json:"sessions"`
}

// --- JSON <-> engine value conversion ---

// toValue converts one decoded JSON cell to an engine value of the
// attribute's kind. Numbers arrive as json.Number (the decoder runs
// with UseNumber so int64 precision survives).
func toValue(cell any, attr relation.Attribute) (relation.Value, error) {
	if cell == nil {
		return relation.Null(), nil
	}
	fail := func() (relation.Value, error) {
		return relation.Value{}, apiErrorf(CodeBadRequest,
			"column %s wants %s, got %T (%v)", attr.Name, attr.Kind, cell, cell)
	}
	switch attr.Kind {
	case relation.KindInt:
		n, ok := cell.(json.Number)
		if !ok {
			return fail()
		}
		i, err := strconv.ParseInt(n.String(), 10, 64)
		if err != nil {
			return fail()
		}
		return relation.Int(i), nil
	case relation.KindFloat:
		n, ok := cell.(json.Number)
		if !ok {
			return fail()
		}
		f, err := strconv.ParseFloat(n.String(), 64)
		if err != nil {
			return fail()
		}
		return relation.Float(f), nil
	case relation.KindBool:
		b, ok := cell.(bool)
		if !ok {
			return fail()
		}
		return relation.Bool(b), nil
	default: // text
		s, ok := cell.(string)
		if !ok {
			return fail()
		}
		return relation.Text(s), nil
	}
}

// toRelation converts a rows payload into an instance of the schema.
func toRelation(schema *relation.Schema, rows [][]any) (*relation.Relation, error) {
	out := relation.New(schema)
	for ri, row := range rows {
		if len(row) != len(schema.Attrs) {
			return nil, apiErrorf(CodeBadRequest,
				"row %d has %d values, schema %s has %d attributes",
				ri, len(row), schema.Name, len(schema.Attrs))
		}
		t := make(relation.Tuple, len(row))
		for ci, cell := range row {
			v, err := toValue(cell, schema.Attrs[ci])
			if err != nil {
				return nil, err
			}
			t[ci] = v
		}
		out.Rows = append(out.Rows, t)
	}
	return out, nil
}

// cellJSON renders one engine value as a JSON scalar.
func cellJSON(v relation.Value) any {
	switch v.K {
	case relation.KindNull:
		return nil
	case relation.KindInt:
		return v.I
	case relation.KindBool:
		return v.I != 0
	case relation.KindFloat:
		return v.F
	default:
		return v.S
	}
}
