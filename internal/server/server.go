// Package server exposes eCFD violation detection as a long-running
// HTTP/JSON service — the request/response shape the paper's two-fixed-
// queries design was always pointing at.
//
// A *session* registers a schema and a constraint set Σ once (POST
// /v1/sessions); the detector compiles its fixed statement texts at
// creation and the engine's plan cache serves every later request, so
// the per-request cost is execution only. Requests then load data,
// run detection, apply incremental updates, probe candidate tuples
// (check — the advisory hot path), and stream the violation set.
//
// Concurrency model: a bounded worker pool gates every data-path
// request (admission control). When all slots are busy a bounded
// number of requests queue; beyond that the server answers 429 with
// the typed queue_full error instead of queuing unboundedly. Each
// request carries a deadline (server default, ?timeout= override,
// capped); a deadline that expires while queued yields the typed
// deadline_exceeded error, and a cancelled or disconnected client
// releases whatever MVCC snapshot its read had pinned. /healthz
// surfaces the engine's epoch accounting (sqldb.DB.Stats) per session,
// so pin leaks are observable in production, not just in tests.
//
// Routes:
//
//	GET    /healthz
//	POST   /v1/sessions                     {name?, spec | gen}
//	GET    /v1/sessions
//	GET    /v1/sessions/{id}
//	DELETE /v1/sessions/{id}
//	POST   /v1/sessions/{id}/load           {rows: [[...], ...]}
//	POST   /v1/sessions/{id}/detect
//	POST   /v1/sessions/{id}/check          {rows: [[...], ...]}
//	POST   /v1/sessions/{id}/updates        {insert?: [[...]], delete?: [rids]}
//	GET    /v1/sessions/{id}/violations?lo=&hi=   (streamed JSON)
//
// Every error response is {"error": {"code", "message"}}; see the Code*
// constants for the contract.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"runtime"
	"time"
)

// Options configures a Server. Zero values select sane defaults.
type Options struct {
	// Workers bounds concurrently executing data-path requests.
	// <= 0 selects GOMAXPROCS.
	Workers int
	// QueueDepth bounds requests waiting for a worker slot; beyond it
	// requests are rejected with queue_full. <= 0 selects 4×Workers.
	QueueDepth int
	// DefaultTimeout is the per-request deadline when the client sends
	// no ?timeout= override. <= 0 selects 30s.
	DefaultTimeout time.Duration
	// MaxTimeout caps the ?timeout= override. <= 0 selects 5m.
	MaxTimeout time.Duration
	// MaxBodyBytes caps request bodies. <= 0 selects 32 MiB.
	MaxBodyBytes int64
}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 4 * o.Workers
	}
	if o.DefaultTimeout <= 0 {
		o.DefaultTimeout = 30 * time.Second
	}
	if o.MaxTimeout <= 0 {
		o.MaxTimeout = 5 * time.Minute
	}
	if o.MaxBodyBytes <= 0 {
		o.MaxBodyBytes = 32 << 20
	}
	return o
}

// Server is the detection service. It implements http.Handler; the
// caller owns the listener (http.Server, httptest, ...).
type Server struct {
	opts    Options
	adm     *admission
	reg     *registry
	mux     *http.ServeMux
	started time.Time
}

// New builds a server with its session registry and admission gate.
func New(opts Options) *Server {
	s := &Server{
		opts:    opts.withDefaults(),
		reg:     newRegistry(),
		started: time.Now(),
	}
	s.adm = newAdmission(s.opts.Workers, s.opts.QueueDepth)
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("POST /v1/sessions", s.handleCreateSession)
	mux.HandleFunc("GET /v1/sessions", s.handleListSessions)
	mux.HandleFunc("GET /v1/sessions/{id}", s.handleGetSession)
	mux.HandleFunc("DELETE /v1/sessions/{id}", s.handleDeleteSession)
	mux.HandleFunc("POST /v1/sessions/{id}/load", s.dataPath(s.doLoad))
	mux.HandleFunc("POST /v1/sessions/{id}/detect", s.dataPath(s.doDetect))
	mux.HandleFunc("POST /v1/sessions/{id}/check", s.dataPath(s.doCheck))
	mux.HandleFunc("POST /v1/sessions/{id}/updates", s.dataPath(s.doUpdates))
	mux.HandleFunc("GET /v1/sessions/{id}/violations", s.dataPath(s.doViolations))
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		writeError(w, apiErrorf(CodeNotFound, "no route %s %s", r.Method, r.URL.Path))
	})
	s.mux = mux
	return s
}

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// Close tears down every session and releases the engines.
func (s *Server) Close() { s.reg.closeAll() }

// --- response plumbing ---

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, e *APIError) {
	writeJSON(w, httpStatus(e.Code), errorEnvelope{Error: e})
}

// decodeBody parses a JSON request body with int64-preserving numbers
// and strict fields, mapping every failure to a typed bad_request.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, v any) *APIError {
	body := http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes)
	dec := json.NewDecoder(body)
	dec.UseNumber()
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			return apiErrorf(CodeBadRequest, "request body exceeds %d bytes", tooBig.Limit)
		}
		return apiErrorf(CodeBadRequest, "decode body: %v", err)
	}
	return nil
}

// requestCtx derives the per-request deadline: the server default, or
// the ?timeout= override capped at MaxTimeout. The deadline covers the
// queue wait and the streaming reads; a mutating engine call that has
// started runs to completion (the engine's write path is not
// interruptible — the deadline's job is to bound waiting, not to tear
// half-applied state).
func (s *Server) requestCtx(r *http.Request) (context.Context, context.CancelFunc, *APIError) {
	d := s.opts.DefaultTimeout
	if t := r.URL.Query().Get("timeout"); t != "" {
		dur, err := time.ParseDuration(t)
		if err != nil || dur <= 0 {
			return nil, nil, apiErrorf(CodeBadRequest, "bad timeout %q", t)
		}
		if dur > s.opts.MaxTimeout {
			dur = s.opts.MaxTimeout
		}
		d = dur
	}
	ctx, cancel := context.WithTimeout(r.Context(), d)
	return ctx, cancel, nil
}

// dataPath wraps a session data-path handler with session lookup, the
// per-request deadline and admission control.
func (s *Server) dataPath(h func(ctx context.Context, sess *session, w http.ResponseWriter, r *http.Request) *APIError) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		sess, aerr := s.reg.get(r.PathValue("id"))
		if aerr != nil {
			writeError(w, aerr)
			return
		}
		ctx, cancel, aerr := s.requestCtx(r)
		if aerr != nil {
			writeError(w, aerr)
			return
		}
		defer cancel()
		if aerr := s.adm.acquire(ctx); aerr != nil {
			writeError(w, aerr)
			return
		}
		defer s.adm.release()
		if err := ctx.Err(); err != nil {
			writeError(w, apiErrorf(CodeDeadline, "deadline expired before execution"))
			return
		}
		if aerr := h(ctx, sess, w, r); aerr != nil {
			writeError(w, aerr)
		}
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	sessions := s.reg.list()
	resp := HealthResponse{
		Status:     "ok",
		UptimeSecs: time.Since(s.started).Seconds(),
		Workers:    s.opts.Workers,
		QueueDepth: s.opts.QueueDepth,
		InFlight:   s.adm.inflight.Load(),
		Queued:     s.adm.queued.Load(),
		Sessions:   make([]SessionHealth, 0, len(sessions)),
	}
	for _, sess := range sessions {
		resp.Sessions = append(resp.Sessions, sess.health())
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleCreateSession(w http.ResponseWriter, r *http.Request) {
	var req CreateSessionRequest
	if aerr := s.decodeBody(w, r, &req); aerr != nil {
		writeError(w, aerr)
		return
	}
	sess, aerr := s.reg.create(&req)
	if aerr != nil {
		writeError(w, aerr)
		return
	}
	writeJSON(w, http.StatusCreated, sess.info())
}

func (s *Server) handleListSessions(w http.ResponseWriter, r *http.Request) {
	sessions := s.reg.list()
	out := make([]SessionInfo, 0, len(sessions))
	for _, sess := range sessions {
		out = append(out, sess.info())
	}
	writeJSON(w, http.StatusOK, map[string]any{"sessions": out})
}

func (s *Server) handleGetSession(w http.ResponseWriter, r *http.Request) {
	sess, aerr := s.reg.get(r.PathValue("id"))
	if aerr != nil {
		writeError(w, aerr)
		return
	}
	writeJSON(w, http.StatusOK, sess.info())
}

func (s *Server) handleDeleteSession(w http.ResponseWriter, r *http.Request) {
	if aerr := s.reg.remove(r.PathValue("id")); aerr != nil {
		writeError(w, aerr)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"deleted": r.PathValue("id")})
}
