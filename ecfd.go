// Package ecfd is a complete implementation of extended Conditional
// Functional Dependencies as introduced by Bravo, Fan, Geerts and Ma,
// "Increasing the Expressivity of Conditional Functional Dependencies
// without Extra Complexity" (ICDE 2008).
//
// eCFDs extend conditional functional dependencies with disjunction
// (set patterns, t[A] ∈ S), inequality (complement patterns,
// t[A] ∉ S̄) and additionally constrained RHS attributes Yp, while
// keeping satisfiability NP-complete and implication coNP-complete.
//
// The package offers four layers:
//
//   - Constraints: ECFD / CFD / FD values, a textual constraint
//     language (ParseSpec), and direct in-memory checking (Detect,
//     Satisfies).
//   - Static analysis: Satisfiable, Implies and the approximate
//     maximum-satisfiable-subset MaxSS via the paper's reduction to
//     MAXGSAT.
//   - SQL-based detection: NewDetector compiles a set of eCFDs into the
//     paper's tableau-as-data encoding and detects violations through
//     database/sql with a fixed pair of queries (BatchDetect), plus
//     incremental maintenance under updates (InsertTuples /
//     DeleteTuples). Every update is one transaction: readers see it
//     whole or not at all, and on a durable database a crash recovers
//     to one side of it.
//   - An embedded SQL engine: OpenMemory returns a database/sql handle
//     backed by the in-memory engine (driver "ecfdmem") so everything
//     runs self-contained; any other database/sql driver with the
//     needed SQL subset works too.
//   - Detection as a service: NewServer exposes sessions, detection,
//     incremental updates, advisory checks and streamed violations
//     over HTTP/JSON with admission control (cmd/ecfdserver is the
//     standalone binary).
//
// See the examples/ directory for runnable walkthroughs and
// docs/ARCHITECTURE.md for the paper-to-code map.
package ecfd

import (
	"database/sql"
	"fmt"
	"io"

	"ecfd/internal/core"
	"ecfd/internal/detect"
	"ecfd/internal/discover"
	"ecfd/internal/relation"
	"ecfd/internal/repair"
	"ecfd/internal/sat"
	"ecfd/internal/server"
	"ecfd/internal/sqldb"
	"ecfd/internal/sqldriver"
)

// Re-exported relational substrate types.
type (
	// Schema describes a relation: its name and attributes.
	Schema = relation.Schema
	// Attribute is one column, optionally with a finite domain.
	Attribute = relation.Attribute
	// Kind enumerates value types (TEXT, INTEGER, REAL, BOOLEAN).
	Kind = relation.Kind
	// Value is one typed field value.
	Value = relation.Value
	// Tuple is one row.
	Tuple = relation.Tuple
	// Relation is an in-memory instance: a schema plus rows.
	Relation = relation.Relation
)

// Value kind constants.
const (
	KindNull  = relation.KindNull
	KindBool  = relation.KindBool
	KindInt   = relation.KindInt
	KindFloat = relation.KindFloat
	KindText  = relation.KindText
)

// Re-exported constraint types (§II of the paper).
type (
	// ECFD is an extended conditional functional dependency
	// (R: X → Y, Yp, Tp).
	ECFD = core.ECFD
	// Pattern is one tableau cell: wildcard, ∈ S, or ∉ S.
	Pattern = core.Pattern
	// PatternTuple is one row of a pattern tableau.
	PatternTuple = core.PatternTuple
	// CFD is a classic conditional functional dependency (the special
	// case with singleton constants only).
	CFD = core.CFD
	// FD is a plain functional dependency.
	FD = core.FD
	// Violations reports which rows of an instance violate Σ.
	Violations = core.Violations
	// Spec is a parsed constraint file (table declarations + eCFDs).
	Spec = core.Spec
)

// Pattern constructors.
var (
	// Any returns the wildcard pattern '_'.
	Any = core.Any
	// In returns the disjunction pattern t[A] ∈ {vs...}.
	In = core.InSet
	// NotIn returns the inequality pattern t[A] ∉ {vs...}.
	NotIn = core.NotInSet
	// InStrings and NotInStrings are text-set conveniences.
	InStrings = core.InStrings
	// NotInStrings returns t[A] ∉ {ss...} over text values.
	NotInStrings = core.NotInStrings
	// ConstPattern returns the singleton pattern {v}.
	ConstPattern = core.Const
)

// Value constructors.
var (
	// Text returns a TEXT value.
	Text = relation.Text
	// Int returns an INTEGER value.
	Int = relation.Int
	// Float returns a REAL value.
	Float = relation.Float
	// Bool returns a BOOLEAN value.
	Bool = relation.Bool
	// Null returns the NULL value.
	Null = relation.Null
)

// NewSchema builds a schema from attributes.
func NewSchema(name string, attrs ...Attribute) (*Schema, error) {
	return relation.NewSchema(name, attrs...)
}

// MustSchema is NewSchema panicking on error, for static schemas.
func MustSchema(name string, attrs ...Attribute) *Schema {
	return relation.MustSchema(name, attrs...)
}

// NewRelation returns an empty instance over a schema.
func NewRelation(s *Schema) *Relation { return relation.New(s) }

// ReadCSV reads a headered CSV stream into an instance of the schema;
// columns may appear in any order and extra columns are ignored.
func ReadCSV(r io.Reader, s *Schema) (*Relation, error) {
	return relation.ReadCSV(r, s)
}

// ParseSpec parses the textual constraint language: optional table
// declarations followed by eCFDs. See core.Spec for the grammar.
func ParseSpec(src string, predeclared map[string]*Schema) (*Spec, error) {
	return core.ParseSpec(src, predeclared)
}

// ParseConstraints parses eCFDs over already-known schemas.
func ParseConstraints(src string, schemas map[string]*Schema) ([]*ECFD, error) {
	return core.ParseConstraints(src, schemas)
}

// Detect evaluates Σ directly over an in-memory instance (the naive,
// non-SQL semantics of §II) and reports per-row SV/MV flags.
func Detect(inst *Relation, sigma []*ECFD) (*Violations, error) {
	return core.NaiveDetect(inst, sigma)
}

// Satisfies reports I ⊨ Σ.
func Satisfies(inst *Relation, sigma []*ECFD) (bool, error) {
	return core.Satisfies(inst, sigma)
}

// Satisfiable decides whether a non-empty instance satisfying Σ exists
// (§III, NP-complete; exact via the single-tuple small model). The
// witness tuple is returned when satisfiable.
func Satisfiable(schema *Schema, sigma []*ECFD) (bool, Tuple, error) {
	return sat.Satisfiable(schema, sigma)
}

// Implies decides Σ ⊨ φ (§III, coNP-complete; exact via the two-tuple
// small model). When not implied, a counterexample instance of at most
// two tuples is returned.
func Implies(schema *Schema, sigma []*ECFD, phi *ECFD) (bool, []Tuple, error) {
	ok, cx, err := sat.Implies(schema, sigma, phi)
	if err != nil || ok {
		return ok, nil, err
	}
	return false, cx.Tuples, nil
}

// MaxSSResult is the outcome of the approximate maximum satisfiable
// subset computation.
type MaxSSResult = sat.MaxSSResult

// MaxSS approximates the maximum satisfiable subset of Σ through the
// paper's approximation-factor-preserving reduction to MAXGSAT (§IV).
// Σ is split into single-pattern constraints first; Subset indexes into
// SplitConstraints(sigma).
func MaxSS(schema *Schema, sigma []*ECFD, seed int64) (MaxSSResult, error) {
	return sat.MaxSS(schema, sigma, seed)
}

// SplitConstraints splits every eCFD into single-pattern-tuple
// constraints (each pattern tuple is itself a constraint, §II).
func SplitConstraints(sigma []*ECFD) []*ECFD { return core.Split(sigma) }

// Detector runs SQL-based violation detection (§V) over a database/sql
// handle.
type Detector = detect.Detector

// BatchStats and IncStats report detection runs.
type (
	// BatchStats is the outcome of one BatchDetect run.
	BatchStats = detect.BatchStats
	// IncStats is the outcome of one incremental maintenance step.
	IncStats = detect.IncStats
)

// NewDetector validates Σ and prepares the fixed SQL statement set for
// its schema. Call Install to create the tables and load the encoding,
// LoadData to install the instance, then BatchDetect / InsertTuples /
// DeleteTuples. Each of those calls runs as one database transaction.
func NewDetector(db *sql.DB, schema *Schema, sigma []*ECFD) (*Detector, error) {
	return detect.New(db, schema, sigma)
}

// MemoryDriverName is the database/sql driver name of the embedded
// in-memory SQL engine.
const MemoryDriverName = sqldriver.DriverName

// OpenMemory opens a database/sql handle onto a named embedded
// in-memory database. The same name returns the same database;
// CloseMemory releases it.
func OpenMemory(name string) (*sql.DB, error) {
	db, err := sql.Open(sqldriver.DriverName, name)
	if err != nil {
		return nil, fmt.Errorf("ecfd: open memory db: %w", err)
	}
	return db, nil
}

// CloseMemory drops the named embedded database and frees its memory.
// A durable database (OpenDurable) is closed first, syncing any
// batched WAL tail.
func CloseMemory(name string) { sqldriver.Unregister(name) }

// OpenDurable opens a named embedded database backed by a write-ahead
// log in walDir, recovering any state a previous process persisted
// there. fsync is "always" (default), "batched" or "off";
// checkpointBytes > 0 snapshots and rotates the WAL when it exceeds
// that size. The returned DSN names the engine for CloseMemory and for
// reopening the same instance. See internal/sqldb's durability
// documentation for the recovery guarantees each policy buys.
func OpenDurable(name, walDir, fsync string, checkpointBytes int64) (*sql.DB, string, error) {
	dsn := name + "?wal=" + walDir
	if fsync != "" {
		dsn += "&fsync=" + fsync
	}
	if checkpointBytes > 0 {
		dsn += fmt.Sprintf("&checkpoint=%d", checkpointBytes)
	}
	// Open eagerly: recovery errors (corrupt WAL, bad options) surface
	// here rather than on the first query.
	if _, err := sqldriver.OpenEngine(dsn); err != nil {
		return nil, "", err
	}
	db, err := OpenMemory(dsn)
	if err != nil {
		return nil, "", err
	}
	return db, dsn, nil
}

// Engine returns the raw embedded engine behind a named memory
// database — useful for bulk-loading relations without SQL round trips.
func Engine(name string) *sqldb.DB { return sqldriver.Engine(name) }

// EngineStats is the embedded engine's operational counter surface
// (sqldb.DB.Stats): the MVCC epoch sequence, how many epochs are live,
// how much superseded state pinned readers are holding, and what WAL
// recovery did when the engine opened.
type EngineStats = sqldb.Stats

// EngineRecoveryStats describes what WAL recovery did at open time
// (generation used, snapshot fallback, units replayed, torn tail).
type EngineRecoveryStats = sqldb.RecoveryStats

// StatsOf returns the named engine's current operational stats, and
// false if no engine is open under that name; it never opens one.
func StatsOf(name string) (EngineStats, bool) {
	eng, ok := sqldriver.Lookup(name)
	if !ok {
		return EngineStats{}, false
	}
	return eng.Stats(), true
}

// Server is the detection-as-a-service HTTP handler: sessions register
// a schema and Σ once, then load data, detect, apply incremental
// updates, probe candidate tuples (check) and stream violations over
// JSON, all gated by a bounded worker pool with typed queue_full
// rejection. It implements http.Handler; the caller owns the listener.
// cmd/ecfdserver wraps it as a standalone binary; see internal/server
// for the wire protocol.
type Server = server.Server

// ServerOptions configures NewServer (worker pool size, admission
// queue depth, request deadlines, body cap); zero values select
// sensible defaults.
type ServerOptions = server.Options

// NewServer builds a detection service handler. Close it to tear down
// every session and release the engines.
func NewServer(opts ServerOptions) *Server { return server.New(opts) }

// DiscoverOptions tunes constraint discovery; zero values select
// sensible defaults.
type DiscoverOptions = discover.Options

// Discover mines candidate single-attribute eCFDs from a data sample —
// conditional FDs with exception sets (the φ1 shape) and value bindings
// with disjunctions (the φ2 shape). This implements the future-work
// direction of the paper's §VIII; see internal/discover for the scope.
// Every returned constraint is satisfied by the sample.
func Discover(inst *Relation, opts DiscoverOptions) ([]*ECFD, error) {
	return discover.Discover(inst, opts)
}

// Repair types (future work of §VIII, heuristic value-modification
// repair; see internal/repair for the algorithm and its limits).
type (
	// RepairOptions bounds the repair loop.
	RepairOptions = repair.Options
	// RepairResult reports the repaired instance, the cell changes and
	// any violations remaining.
	RepairResult = repair.Result
	// RepairChange is one repaired cell.
	RepairChange = repair.Change
)

// Repair returns a repaired copy of the instance in which eCFD
// violations have been eliminated by greedy value modification
// (pattern violations to the cheapest admissible value, embedded-FD
// groups by majority). Result.Remaining is non-zero when Σ cannot be
// fully repaired within the round budget (for example, when Σ itself
// is unsatisfiable — check Satisfiable first).
func Repair(inst *Relation, sigma []*ECFD, opts RepairOptions) (*RepairResult, error) {
	return repair.Repair(inst, sigma, opts)
}

// Paper fixtures (Fig. 1 and Fig. 2), exported for the examples and
// for experimentation.
var (
	// CustSchema is the running-example schema cust(AC, PN, NM, STR, CT, ZIP).
	CustSchema = core.CustSchema
	// Fig1Instance is the instance D0 of Fig. 1.
	Fig1Instance = core.Fig1Instance
	// Fig2Constraints are φ1 and φ2 of Fig. 2.
	Fig2Constraints = core.Fig2Constraints
)
