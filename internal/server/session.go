package server

import (
	"database/sql"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ecfd/internal/core"
	"ecfd/internal/detect"
	"ecfd/internal/gen"
	"ecfd/internal/relation"
	"ecfd/internal/sqldb"
	"ecfd/internal/sqldriver"
)

// session is one long-lived detection context: a private engine, the
// schema + Σ registered once at creation (Install compiles the fixed
// statement set; the engine's plan cache then serves every later
// request), and the detector state the requests share.
//
// mu serializes the state-mutating surface — load, detect, check,
// updates all share the detector's staging tables and RID counter.
// Violation reads do NOT take mu: they pin an MVCC snapshot through a
// read-only transaction and run lock-free against it, concurrent with
// whatever the writer side is doing.
type session struct {
	id      string
	name    string
	dsn     string
	db      *sql.DB
	eng     *sqldb.DB
	det     *detect.Detector
	created time.Time

	mu sync.Mutex

	closed atomic.Bool
}

// rowCount is |D| as the engine's published epoch has it.
func (s *session) rowCount() int64 {
	n, _ := s.eng.TableLen(s.det.DataTable()) // cannot fail: Install created the table and nothing drops it
	return int64(n)
}

func (s *session) info() SessionInfo {
	schema := s.det.Sigma()[0].Schema
	cols := make([]ColumnInfo, len(schema.Attrs))
	for i, a := range schema.Attrs {
		cols[i] = ColumnInfo{Name: a.Name, Kind: a.Kind.String()}
	}
	return SessionInfo{
		ID:          s.id,
		Name:        s.name,
		Table:       s.det.DataTable(),
		Columns:     cols,
		Constraints: len(s.det.Sigma()),
		Rows:        s.rowCount(),
		Created:     s.created.UTC().Format(time.RFC3339),
	}
}

func (s *session) health() SessionHealth {
	st := s.eng.Stats()
	return SessionHealth{
		ID:    s.id,
		Name:  s.name,
		Table: s.det.DataTable(),
		Rows:  s.rowCount(),
		Engine: EngineHealth{
			EpochSeq:      st.EpochSeq,
			LiveEpochs:    st.LiveEpochs,
			RetiredEpochs: st.RetiredEpochs,
			RetiredBytes:  st.RetiredBytes,
			Recovery: RecoveryHealth{
				Gen:           st.Recovery.Gen,
				SnapshotGen:   st.Recovery.SnapshotGen,
				UnitsReplayed: st.Recovery.UnitsReplayed,
				TornTail:      st.Recovery.TornTail,
				FellBack:      st.Recovery.FellBack,
			},
		},
	}
}

// close releases the session's engine. It waits for the in-flight
// mutating request (if any) to finish; read streams fail over to
// database/sql's drain-on-close semantics.
func (s *session) close() {
	if !s.closed.CompareAndSwap(false, true) {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.db.Close()
	sqldriver.Unregister(s.dsn)
}

// registry owns the session table.
type registry struct {
	mu   sync.RWMutex
	byID map[string]*session
	seq  atomic.Int64
}

func newRegistry() *registry {
	return &registry{byID: make(map[string]*session)}
}

var sessionSeq atomic.Int64 // process-wide: DSNs must not collide across servers

// create builds a session from a request: engine, detector, Σ encoding
// and (for gen-backed sessions) the generated dataset.
func (r *registry) create(req *CreateSessionRequest) (*session, *APIError) {
	var schema *relation.Schema
	var sigma []*core.ECFD
	var data *relation.Relation
	switch {
	case req.Spec != "" && req.Gen != nil:
		return nil, apiErrorf(CodeBadRequest, "spec and gen are mutually exclusive")
	case req.Spec != "":
		spec, err := core.ParseSpec(req.Spec, nil)
		if err != nil {
			return nil, apiErrorf(CodeBadRequest, "parse spec: %v", err)
		}
		if len(spec.Constraints) == 0 {
			return nil, apiErrorf(CodeBadRequest, "spec declares no constraints")
		}
		schema = spec.Constraints[0].Schema
		for _, e := range spec.Constraints {
			if e.Schema.Name != schema.Name {
				return nil, apiErrorf(CodeBadRequest,
					"all constraints must target one table; got %s and %s",
					schema.Name, e.Schema.Name)
			}
		}
		sigma = spec.Constraints
	case req.Gen != nil:
		cfg := gen.Config{Rows: req.Gen.Rows, Noise: req.Gen.Noise, Seed: req.Gen.Seed}
		if err := cfg.Validate(); err != nil {
			return nil, apiErrorf(CodeBadRequest, "%v", err)
		}
		schema = gen.Schema()
		sigma = gen.Constraints()
		if cfg.Rows > 0 {
			data = gen.Dataset(cfg)
		}
	default:
		return nil, apiErrorf(CodeBadRequest, "one of spec or gen is required")
	}

	if req.Name != "" {
		r.mu.RLock()
		for _, s := range r.byID {
			if s.name == req.Name {
				r.mu.RUnlock()
				return nil, apiErrorf(CodeConflict, "session name %q is taken", req.Name)
			}
		}
		r.mu.RUnlock()
	}

	dsn := fmt.Sprintf("ecfdserver_%d", sessionSeq.Add(1))
	db, err := sql.Open(sqldriver.DriverName, dsn)
	if err != nil {
		return nil, apiErrorf(CodeInternal, "open engine: %v", err)
	}
	fail := func(e error) (*session, *APIError) {
		db.Close()
		sqldriver.Unregister(dsn)
		return nil, apiErrorf(CodeInternal, "%v", e)
	}
	det, err := detect.New(db, schema, sigma)
	if err != nil {
		return fail(err)
	}
	if err := det.Install(); err != nil {
		return fail(err)
	}

	s := &session{
		id:      fmt.Sprintf("s%d", r.seq.Add(1)),
		name:    req.Name,
		dsn:     dsn,
		db:      db,
		eng:     sqldriver.Engine(dsn),
		det:     det,
		created: time.Now(),
	}
	if data != nil {
		if _, err := det.LoadData(data); err != nil {
			return fail(err)
		}
	}

	r.mu.Lock()
	r.byID[s.id] = s
	r.mu.Unlock()
	return s, nil
}

func (r *registry) get(id string) (*session, *APIError) {
	r.mu.RLock()
	s, ok := r.byID[id]
	r.mu.RUnlock()
	if !ok {
		return nil, apiErrorf(CodeNotFound, "no session %q", id)
	}
	return s, nil
}

// remove detaches a session from the registry and closes it.
func (r *registry) remove(id string) *APIError {
	r.mu.Lock()
	s, ok := r.byID[id]
	delete(r.byID, id)
	r.mu.Unlock()
	if !ok {
		return apiErrorf(CodeNotFound, "no session %q", id)
	}
	s.close()
	return nil
}

// list returns the sessions ordered by id.
func (r *registry) list() []*session {
	r.mu.RLock()
	out := make([]*session, 0, len(r.byID))
	for _, s := range r.byID {
		out = append(out, s)
	}
	r.mu.RUnlock()
	sort.Slice(out, func(a, b int) bool { return out[a].id < out[b].id })
	return out
}

// closeAll tears every session down (server shutdown).
func (r *registry) closeAll() {
	r.mu.Lock()
	all := make([]*session, 0, len(r.byID))
	for id, s := range r.byID {
		all = append(all, s)
		delete(r.byID, id)
	}
	r.mu.Unlock()
	for _, s := range all {
		s.close()
	}
}
