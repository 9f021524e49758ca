package server

import (
	"context"
	"errors"
	"net/http"
	"time"

	"ecfd/internal/detect"
	"ecfd/internal/relation"
)

func (s *session) schema() *relation.Schema { return s.det.Sigma()[0].Schema }

// doLoad appends a batch of rows to the session's data table (raw —
// run detect afterwards to establish the flags and Aux).
func (s *Server) doLoad(ctx context.Context, sess *session, w http.ResponseWriter, r *http.Request) *APIError {
	var req RowsPayload
	if aerr := s.decodeBody(w, r, &req); aerr != nil {
		return aerr
	}
	inst, err := toRelation(sess.schema(), req.Rows)
	if err != nil {
		return asAPIError(err)
	}
	sess.mu.Lock()
	rids, err := sess.det.LoadData(inst)
	sess.mu.Unlock()
	if err != nil {
		return detectError("load", err)
	}
	out := RIDRange{Count: int64(len(rids))}
	if len(rids) > 0 {
		out.FirstRID = rids[0]
	}
	writeJSON(w, http.StatusOK, out)
	return nil
}

// doDetect recomputes the violation flags from scratch (BatchDetect).
func (s *Server) doDetect(ctx context.Context, sess *session, w http.ResponseWriter, r *http.Request) *APIError {
	sess.mu.Lock()
	bst, err := sess.det.BatchDetect()
	sess.mu.Unlock()
	if err != nil {
		return apiErrorf(CodeInternal, "detect: %v", err)
	}
	writeJSON(w, http.StatusOK, DetectResponse{
		SV: bst.SV, MV: bst.MV, Total: bst.Total,
		ElapsedMS: float64(bst.Elapsed) / float64(time.Millisecond),
	})
	return nil
}

// doCheck is the advisory hot path: stage the candidate tuples and run
// the two fixed check queries against the current flags and Aux. See
// detect.Check for the verdict contract (SV exact; MV = membership in
// a currently-violating group).
func (s *Server) doCheck(ctx context.Context, sess *session, w http.ResponseWriter, r *http.Request) *APIError {
	var req RowsPayload
	if aerr := s.decodeBody(w, r, &req); aerr != nil {
		return aerr
	}
	inst, err := toRelation(sess.schema(), req.Rows)
	if err != nil {
		return asAPIError(err)
	}
	start := time.Now()
	sess.mu.Lock()
	res, err := sess.det.Check(inst)
	sess.mu.Unlock()
	if err != nil {
		return detectError("check", err)
	}
	out := CheckResponse{
		Results:   make([]CheckVerdict, len(res)),
		ElapsedMS: float64(time.Since(start)) / float64(time.Millisecond),
	}
	for i, v := range res {
		out.Results[i] = CheckVerdict{SV: v.SV, MV: v.MV}
	}
	writeJSON(w, http.StatusOK, out)
	return nil
}

// doUpdates applies ΔD = (delete, insert) with the paper's incremental
// maintenance (flags and Aux must be current — run detect once after
// loading).
func (s *Server) doUpdates(ctx context.Context, sess *session, w http.ResponseWriter, r *http.Request) *APIError {
	var req UpdatesRequest
	if aerr := s.decodeBody(w, r, &req); aerr != nil {
		return aerr
	}
	if len(req.Insert) == 0 && len(req.Delete) == 0 {
		return apiErrorf(CodeBadRequest, "empty update: one of insert or delete is required")
	}
	var ins *relation.Relation
	if len(req.Insert) > 0 {
		var err error
		if ins, err = toRelation(sess.schema(), req.Insert); err != nil {
			return asAPIError(err)
		}
	}
	sess.mu.Lock()
	rids, st, err := sess.det.ApplyUpdates(ins, req.Delete)
	sess.mu.Unlock()
	if err != nil {
		return detectError("updates", err)
	}
	out := UpdatesResponse{
		Applied:   st.Applied,
		ElapsedMS: float64(st.Elapsed) / float64(time.Millisecond),
		Inserted:  RIDRange{Count: int64(len(rids))},
	}
	if len(rids) > 0 {
		out.Inserted.FirstRID = rids[0]
	}
	writeJSON(w, http.StatusOK, out)
	return nil
}

// detectError reports a detector failure: a batch the detector refuses
// is a bad request, and the session goes on serving; anything else is
// internal.
func detectError(op string, err error) *APIError {
	var rv *detect.ReservedValueError
	if errors.As(err, &rv) {
		return apiErrorf(CodeBadRequest, "%s: %v", op, err)
	}
	return apiErrorf(CodeInternal, "%s: %v", op, err)
}

// asAPIError passes typed errors through and wraps anything else as
// internal.
func asAPIError(err error) *APIError {
	if ae, ok := err.(*APIError); ok {
		return ae
	}
	return apiErrorf(CodeInternal, "%v", err)
}
