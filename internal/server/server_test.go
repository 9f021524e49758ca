package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

const testSpec = `
table cust (AC text, PN text, NM text, STR text, CT text, ZIP text)

ecfd phi1 on cust: [CT] -> [AC] {
  (!{NYC, LI} || _)
}
ecfd phi2 on cust: [ZIP] -> [STR] {
  (_ || _)
}
ecfd phi3 on cust: [CT] -> [AC] {
  ({NYC} || {212, 718})
}
`

// testClient wraps the raw HTTP plumbing the protocol tests share.
type testClient struct {
	t   *testing.T
	ts  *httptest.Server
	srv *Server
}

func newTestClient(t *testing.T, opts Options) *testClient {
	t.Helper()
	srv := New(opts)
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return &testClient{t: t, ts: ts, srv: srv}
}

// do fires one request and decodes the response body, returning the
// status code and the typed error code (empty on 2xx).
func (c *testClient) do(method, path string, in, out any) (int, string) {
	c.t.Helper()
	var body io.Reader
	if in != nil {
		raw, err := json.Marshal(in)
		if err != nil {
			c.t.Fatal(err)
		}
		body = bytes.NewReader(raw)
	}
	req, err := http.NewRequest(method, c.ts.URL+path, body)
	if err != nil {
		c.t.Fatal(err)
	}
	resp, err := c.ts.Client().Do(req)
	if err != nil {
		c.t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		c.t.Fatal(err)
	}
	if resp.StatusCode/100 != 2 {
		var env errorEnvelope
		if err := json.Unmarshal(raw, &env); err != nil || env.Error == nil {
			c.t.Fatalf("%s %s: HTTP %d with non-envelope body %q", method, path, resp.StatusCode, raw)
		}
		return resp.StatusCode, env.Error.Code
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			c.t.Fatalf("%s %s: decode %q: %v", method, path, raw, err)
		}
	}
	return resp.StatusCode, ""
}

func (c *testClient) mustOK(method, path string, in, out any) {
	c.t.Helper()
	if status, code := c.do(method, path, in, out); code != "" {
		c.t.Fatalf("%s %s: HTTP %d %s", method, path, status, code)
	}
}

// TestServerProtocol walks the whole session lifecycle over the wire:
// create from a spec, load, detect, check, incremental updates, the
// streamed violation set, and teardown.
func TestServerProtocol(t *testing.T) {
	c := newTestClient(t, Options{})

	var sess SessionInfo
	c.mustOK("POST", "/v1/sessions", CreateSessionRequest{Name: "cust", Spec: testSpec}, &sess)
	if sess.ID == "" || len(sess.Columns) != 6 || sess.Constraints != 3 {
		t.Fatalf("session: %+v", sess)
	}
	base := "/v1/sessions/" + sess.ID

	// Rows 1-2: MV pair on phi1 (same CT outside NYC/LI, different AC).
	// Row 3: SV on phi3 (CT=NYC with AC outside {212, 718}).
	// Rows 4-5: MV pair on phi2 (same ZIP, different STR).
	rows := RowsPayload{Rows: [][]any{
		{"212", "5551234", "Ann", "1 Main St", "CHI", "60601"},
		{"312", "5555678", "Bob", "2 Oak Ave", "CHI", "60602"},
		{"999", "5559999", "Eve", "3 Elm Rd", "NYC", "10001"},
		{"415", "5550000", "Joe", "4 Pine St", "SF", "94101"},
		{"415", "5551111", "Sam", "5 Fir Ct", "SF", "94101"},
	}}
	var loaded RIDRange
	c.mustOK("POST", base+"/load", rows, &loaded)
	if loaded.Count != 5 || loaded.FirstRID != 1 {
		t.Fatalf("load: %+v", loaded)
	}

	var det DetectResponse
	c.mustOK("POST", base+"/detect", nil, &det)
	if det.SV == 0 || det.MV == 0 {
		t.Fatalf("detect found no violations: %+v", det)
	}

	// Check is advisory and must not mutate: a candidate in untouched
	// groups is clean, an SV candidate is exact, and one joining a
	// currently-violating group is MV-flagged.
	var chk CheckResponse
	c.mustOK("POST", base+"/check", RowsPayload{Rows: [][]any{
		{"999", "0000000", "New", "9 New St", "DAL", "75201"},
		{"555", "1111111", "Ivy", "8 Gum Dr", "NYC", "10003"},
		{"415", "2222222", "Tim", "6 Ash Ln", "SF", "94101"},
	}}, &chk)
	if len(chk.Results) != 3 {
		t.Fatalf("check: %+v", chk)
	}
	if chk.Results[0].SV || chk.Results[0].MV {
		t.Errorf("clean candidate flagged: %+v", chk.Results[0])
	}
	if !chk.Results[1].SV {
		t.Errorf("SV candidate not flagged: %+v", chk.Results[1])
	}
	if !chk.Results[2].MV {
		t.Errorf("group-joining candidate not MV-flagged: %+v", chk.Results[2])
	}
	var det2 DetectResponse
	c.mustOK("POST", base+"/detect", nil, &det2)
	if det2.SV != det.SV || det2.MV != det.MV {
		t.Fatalf("check mutated state: %+v vs %+v", det2, det)
	}

	var upd UpdatesResponse
	c.mustOK("POST", base+"/updates", UpdatesRequest{
		Insert: [][]any{{"212", "7777777", "Zoe", "7 Bay Rd", "NYC", "10002"}},
		Delete: []int64{3},
	}, &upd)
	if upd.Inserted.Count != 1 || upd.Applied != 2 {
		t.Fatalf("updates: %+v", upd)
	}

	resp, err := http.Get(c.ts.URL + base + "/violations")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stream struct {
		Columns []string `json:"columns"`
		Rows    [][]any  `json:"rows"`
		Count   int64    `json:"count"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stream); err != nil {
		t.Fatalf("violations stream: %v", err)
	}
	if stream.Columns[0] != "RID" || int64(len(stream.Rows)) != stream.Count || stream.Count == 0 {
		t.Fatalf("violations: columns=%v count=%d rows=%d", stream.Columns, stream.Count, len(stream.Rows))
	}

	var listing struct {
		Sessions []SessionInfo `json:"sessions"`
	}
	c.mustOK("GET", "/v1/sessions", nil, &listing)
	if len(listing.Sessions) != 1 {
		t.Fatalf("list: %+v", listing)
	}
	c.mustOK("DELETE", base, nil, nil)
	if status, code := c.do("POST", base+"/detect", nil, nil); status != http.StatusNotFound || code != CodeNotFound {
		t.Fatalf("deleted session answered %d %s", status, code)
	}
}

// TestUpdatesAppliedCountsRows: the updates route's "applied" is the
// rows inserted plus the rows deleted; a RID named twice, or naming no
// row, counts nothing.
func TestUpdatesAppliedCountsRows(t *testing.T) {
	c := newTestClient(t, Options{})
	var sess SessionInfo
	c.mustOK("POST", "/v1/sessions", CreateSessionRequest{Name: "cust", Spec: testSpec}, &sess)
	base := "/v1/sessions/" + sess.ID
	c.mustOK("POST", base+"/load", RowsPayload{Rows: [][]any{
		{"212", "5551234", "Ann", "1 Main St", "CHI", "60601"},
		{"312", "5555678", "Bob", "2 Oak Ave", "CHI", "60602"},
		{"415", "5550000", "Joe", "4 Pine St", "SF", "94101"},
	}}, nil)
	c.mustOK("POST", base+"/detect", nil, nil)
	for _, tc := range []struct {
		req  UpdatesRequest
		want int64
	}{
		{UpdatesRequest{Delete: []int64{2, 2, 999}}, 1},
		{UpdatesRequest{Insert: [][]any{{"212", "7777777", "Zoe", "7 Bay Rd", "NYC", "10002"}}, Delete: []int64{2}}, 1},
	} {
		var upd UpdatesResponse
		c.mustOK("POST", base+"/updates", tc.req, &upd)
		if upd.Applied != tc.want {
			t.Errorf("updates %+v: applied %d, want %d", tc.req, upd.Applied, tc.want)
		}
	}
}

// TestServerCreateErrors covers the typed rejection surface of session
// creation and body decoding.
func TestServerCreateErrors(t *testing.T) {
	c := newTestClient(t, Options{})
	cases := []struct {
		name string
		body any
		code string
	}{
		{"neither", CreateSessionRequest{}, CodeBadRequest},
		{"both", CreateSessionRequest{Spec: testSpec, Gen: &GenSpec{Rows: 1}}, CodeBadRequest},
		{"bad spec", CreateSessionRequest{Spec: "table ???"}, CodeBadRequest},
		{"unknown field", map[string]any{"bogus": 1}, CodeBadRequest},
		// The per-session detect fan-out is gone; its field is unknown like any other.
		{"workers", map[string]any{"gen": GenSpec{Rows: 10, Noise: 5, Seed: 1}, "workers": 4}, CodeBadRequest},
		// Out-of-range gen parameters are refused before generation, which
		// would panic on them inside the handler.
		{"gen rows", CreateSessionRequest{Gen: &GenSpec{Rows: -1}}, CodeBadRequest},
		{"gen noise above 100", CreateSessionRequest{Gen: &GenSpec{Rows: 10, Noise: 150}}, CodeBadRequest},
		{"gen noise below 0", CreateSessionRequest{Gen: &GenSpec{Rows: 10, Noise: -5}}, CodeBadRequest},
	}
	for _, tc := range cases {
		if status, code := c.do("POST", "/v1/sessions", tc.body, nil); status != http.StatusBadRequest || code != tc.code {
			t.Errorf("%s: got %d %q, want 400 %q", tc.name, status, code, tc.code)
		}
	}
	var created SessionInfo
	c.mustOK("POST", "/v1/sessions", CreateSessionRequest{Gen: &GenSpec{Rows: 10, Noise: 100}}, &created) // still serving
	c.mustOK("POST", "/v1/sessions", CreateSessionRequest{Name: "dup", Spec: testSpec}, &created)
	var info map[string]any
	c.mustOK("GET", "/v1/sessions/"+created.ID, nil, &info)
	if _, ok := info["workers"]; ok || info["id"] != created.ID {
		t.Errorf("session info still prints workers (or lost its id): %v", info)
	}
	if _, code := c.do("POST", "/v1/sessions", CreateSessionRequest{Name: "dup", Spec: testSpec}, nil); code != CodeConflict {
		t.Errorf("duplicate name: got %q, want %q", code, CodeConflict)
	}
	if status, code := c.do("GET", "/no/such/route", nil, nil); status != http.StatusNotFound || code != CodeNotFound {
		t.Errorf("unknown route: %d %s", status, code)
	}
}

// TestReservedValueBadRequest: a row holding the string the detector
// reserves for NULL is the client's error on every route that takes rows
// — 400 bad_request, not 500 — and the session keeps serving.
func TestReservedValueBadRequest(t *testing.T) {
	c := newTestClient(t, Options{})
	var sess SessionInfo
	c.mustOK("POST", "/v1/sessions", CreateSessionRequest{Spec: testSpec}, &sess)
	base := "/v1/sessions/" + sess.ID
	good := []any{"617", "5550000", "Ann", "1 Main St", "BOS", "02101"}
	bad := [][]any{good, {"@NULL@", "5550001", "Bob", "1 Main St", "BOS", "02101"}}
	for _, r := range []struct {
		path string
		body any
	}{
		{"/load", RowsPayload{Rows: bad}},
		{"/check", RowsPayload{Rows: bad}},
		{"/updates", UpdatesRequest{Insert: bad}},
	} {
		if status, code := c.do("POST", base+r.path, r.body, nil); status != http.StatusBadRequest || code != CodeBadRequest {
			t.Errorf("%s with a reserved value: %d %q, want 400 %q", r.path, status, code, CodeBadRequest)
		}
	}
	var loaded RIDRange
	c.mustOK("POST", base+"/load", RowsPayload{Rows: [][]any{good}}, &loaded)
	if loaded.Count != 1 || loaded.FirstRID != 1 {
		t.Fatalf("load after the refusals: %+v, want RID 1 only", loaded)
	}
	c.mustOK("POST", base+"/detect", nil, nil)
}

// blockSession parks the session's writer lock so the next data-path
// request occupies a worker slot indefinitely; the returned func
// releases it.
func blockSession(t *testing.T, c *testClient, id string) func() {
	t.Helper()
	sess, aerr := c.srv.reg.get(id)
	if aerr != nil {
		t.Fatal(aerr)
	}
	sess.mu.Lock()
	return sess.mu.Unlock
}

// TestQueueFullTypedRejection saturates a Workers=1, QueueDepth=1
// server with concurrent clients and requires the overflow to be the
// typed queue_full rejection at HTTP 429 — not queuing, not a hang.
func TestQueueFullTypedRejection(t *testing.T) {
	c := newTestClient(t, Options{Workers: 1, QueueDepth: 1})
	var sess SessionInfo
	c.mustOK("POST", "/v1/sessions", CreateSessionRequest{Gen: &GenSpec{Rows: 50, Noise: 5, Seed: 1}}, &sess)
	base := "/v1/sessions/" + sess.ID

	unblock := blockSession(t, c, sess.ID)
	released := false
	defer func() {
		if !released {
			unblock()
		}
	}()

	// Occupy the single worker slot: this request holds it while
	// blocked on the session lock.
	firstDone := make(chan struct{})
	go func() {
		defer close(firstDone)
		c.srvDo(t, "POST", base+"/detect")
	}()
	waitFor(t, time.Second, func() bool { return c.srv.adm.inflight.Load() == 1 })

	// Overflow: with the slot busy and queue depth 1, at most one of
	// these can queue — the rest must bounce with queue_full.
	const extra = 6
	var ok, queueFull, other atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < extra; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			status, code := c.statusOf("POST", base+"/detect")
			switch {
			case status == http.StatusOK:
				ok.Add(1)
			case status == http.StatusTooManyRequests && code == CodeQueueFull:
				queueFull.Add(1)
			default:
				other.Add(1)
			}
		}()
	}
	// Let the extras reach the admission gate before opening it.
	waitFor(t, time.Second, func() bool { return queueFull.Load() >= extra-1 })
	released = true
	unblock()
	wg.Wait()
	<-firstDone

	if other.Load() != 0 {
		t.Fatalf("unexpected responses: ok=%d queue_full=%d other=%d", ok.Load(), queueFull.Load(), other.Load())
	}
	if queueFull.Load() < extra-1 || ok.Load() > 1 {
		t.Fatalf("admission leaked: ok=%d queue_full=%d (want <=1 ok with queue depth 1)", ok.Load(), queueFull.Load())
	}
}

// TestDeadlineWhileQueued parks a request in the admission queue past
// its deadline and requires the typed deadline_exceeded answer at 504.
func TestDeadlineWhileQueued(t *testing.T) {
	c := newTestClient(t, Options{Workers: 1, QueueDepth: 8})
	var sess SessionInfo
	c.mustOK("POST", "/v1/sessions", CreateSessionRequest{Gen: &GenSpec{Rows: 50, Noise: 5, Seed: 1}}, &sess)
	base := "/v1/sessions/" + sess.ID

	unblock := blockSession(t, c, sess.ID)
	released := false
	defer func() {
		if !released {
			unblock()
		}
	}()

	firstDone := make(chan struct{})
	go func() {
		defer close(firstDone)
		c.srvDo(t, "POST", base+"/detect")
	}()
	waitFor(t, time.Second, func() bool { return c.srv.adm.inflight.Load() == 1 })

	start := time.Now()
	status, code := c.statusOf("POST", base+"/detect?timeout=150ms")
	if status != http.StatusGatewayTimeout || code != CodeDeadline {
		t.Fatalf("queued past deadline: got %d %s, want 504 %s", status, code, CodeDeadline)
	}
	if waited := time.Since(start); waited > 5*time.Second {
		t.Fatalf("deadline not enforced: waited %v", waited)
	}
	released = true
	unblock()
	<-firstDone
	if status, _ := c.statusOf("POST", base+"/detect"); status != http.StatusOK {
		t.Fatalf("server wedged after deadline rejection: %d", status)
	}
}

// srvDo fires a request and drains it, failing the test on transport
// errors only — the status is the caller's business.
func (c *testClient) srvDo(t *testing.T, method, path string) {
	t.Helper()
	req, err := http.NewRequest(method, c.ts.URL+path, nil)
	if err != nil {
		t.Error(err)
		return
	}
	resp, err := c.ts.Client().Do(req)
	if err != nil {
		t.Error(err)
		return
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
}

func (c *testClient) statusOf(method, path string) (int, string) {
	c.t.Helper()
	req, err := http.NewRequest(method, c.ts.URL+path, nil)
	if err != nil {
		c.t.Fatal(err)
	}
	resp, err := c.ts.Client().Do(req)
	if err != nil {
		c.t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	var env errorEnvelope
	json.Unmarshal(raw, &env)
	code := ""
	if env.Error != nil {
		code = env.Error.Code
	}
	return resp.StatusCode, code
}

func waitFor(t *testing.T, patience time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(patience)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in time")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// assertPinsReleased forces an epoch turnover (a write retires the
// epoch any leaked pin would hold) and requires the engine to settle
// back to exactly one live epoch.
func assertPinsReleased(t *testing.T, c *testClient, base string, sessID string) {
	t.Helper()
	sess, aerr := c.srv.reg.get(sessID)
	if aerr != nil {
		t.Fatal(aerr)
	}
	c.mustOK("POST", base+"/updates", UpdatesRequest{
		Insert: [][]any{genRow()},
	}, nil)
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := sess.eng.Stats()
		if st.LiveEpochs == 1 && st.RetiredEpochs == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("snapshot pin leaked: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// genRow is one syntactically valid tuple of the generator schema.
func genRow() []any {
	return []any{"999", "0000000", "X", "0 Null St", "ZZZ", "00000", "1", "0.0", "ok"}
}

// TestDisconnectMidStreamReleasesSnapshot cancels a violations stream
// partway through and requires the reader's MVCC snapshot pin to be
// released — the exact leak a crashing or impatient client would cause.
func TestDisconnectMidStreamReleasesSnapshot(t *testing.T) {
	c := newTestClient(t, Options{})
	var sess SessionInfo
	c.mustOK("POST", "/v1/sessions", CreateSessionRequest{Gen: &GenSpec{Rows: 6000, Noise: 30, Seed: 3}}, &sess)
	base := "/v1/sessions/" + sess.ID
	c.mustOK("POST", base+"/detect", nil, nil)

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, "GET", c.ts.URL+base+"/violations", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := c.ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	// Read a sliver of the stream, then vanish.
	buf := make([]byte, 512)
	if _, err := io.ReadFull(resp.Body, buf); err != nil {
		t.Fatalf("stream head: %v", err)
	}
	if !strings.HasPrefix(string(buf), `{"columns":["RID"`) {
		t.Fatalf("stream head: %q", buf[:64])
	}
	cancel()
	resp.Body.Close()

	assertPinsReleased(t, c, base, sess.ID)

	// The stream endpoint still works after the aborted read.
	resp2, err := http.Get(c.ts.URL + base + "/violations")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var stream struct {
		Count int64 `json:"count"`
	}
	if err := json.NewDecoder(resp2.Body).Decode(&stream); err != nil || stream.Count == 0 {
		t.Fatalf("stream after abort: count=%d err=%v", stream.Count, err)
	}
}

// TestConcurrentMixedClients races checks, updates, detects and
// violation streams from many clients — run it under -race — and then
// requires zero leaked pins and only contract status codes.
func TestConcurrentMixedClients(t *testing.T) {
	c := newTestClient(t, Options{Workers: 4, QueueDepth: 4})
	var sess SessionInfo
	c.mustOK("POST", "/v1/sessions", CreateSessionRequest{Gen: &GenSpec{Rows: 1500, Noise: 10, Seed: 2}}, &sess)
	base := "/v1/sessions/" + sess.ID
	c.mustOK("POST", base+"/detect", nil, nil)

	checkBody, _ := json.Marshal(RowsPayload{Rows: [][]any{genRow()}})
	updBody, _ := json.Marshal(UpdatesRequest{Insert: [][]any{genRow()}})

	const clients, perClient = 8, 25
	var bad atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < perClient; j++ {
				var resp *http.Response
				var err error
				switch (i + j) % 4 {
				case 0:
					resp, err = c.ts.Client().Post(c.ts.URL+base+"/check", "application/json", bytes.NewReader(checkBody))
				case 1:
					resp, err = c.ts.Client().Post(c.ts.URL+base+"/updates", "application/json", bytes.NewReader(updBody))
				case 2:
					resp, err = c.ts.Client().Get(c.ts.URL + base + "/violations")
				default:
					resp, err = c.ts.Client().Post(c.ts.URL+base+"/detect?timeout=10s", "application/json", nil)
				}
				if err != nil {
					bad.Add(1)
					continue
				}
				io.Copy(io.Discard, resp.Body)
				switch resp.StatusCode {
				case http.StatusOK, http.StatusTooManyRequests, http.StatusGatewayTimeout:
				default:
					bad.Add(1)
					t.Errorf("client %d: HTTP %d", i, resp.StatusCode)
				}
				resp.Body.Close()
			}
		}(i)
	}
	wg.Wait()
	if bad.Load() != 0 {
		t.Fatalf("%d requests outside the status contract", bad.Load())
	}
	assertPinsReleased(t, c, base, sess.ID)
}

// TestHealthzReportsEngineStats exercises the observability surface:
// per-session epoch accounting and recovery stats over the wire.
func TestHealthzReportsEngineStats(t *testing.T) {
	c := newTestClient(t, Options{Workers: 2})
	var sess SessionInfo
	c.mustOK("POST", "/v1/sessions", CreateSessionRequest{Gen: &GenSpec{Rows: 100, Noise: 5, Seed: 1}}, &sess)
	c.mustOK("POST", "/v1/sessions/"+sess.ID+"/detect", nil, nil)

	var health HealthResponse
	c.mustOK("GET", "/healthz", nil, &health)
	if health.Status != "ok" || health.Workers != 2 || len(health.Sessions) != 1 {
		t.Fatalf("healthz: %+v", health)
	}
	eng := health.Sessions[0].Engine
	if eng.EpochSeq == 0 || eng.LiveEpochs != 1 {
		t.Fatalf("engine stats missing from healthz: %+v", eng)
	}
}

// TestSessionRowsIsTheTableCount: the row count a session reports is
// the engine's, whatever the requests claimed — RIDs that do not exist
// and a RID named twice in one delete list remove nothing extra.
func TestSessionRowsIsTheTableCount(t *testing.T) {
	c := newTestClient(t, Options{})
	var sess SessionInfo
	c.mustOK("POST", "/v1/sessions", CreateSessionRequest{Spec: testSpec}, &sess)
	base := "/v1/sessions/" + sess.ID
	c.mustOK("POST", base+"/load", RowsPayload{Rows: [][]any{
		{"212", "5551234", "Ann", "1 Main St", "CHI", "60601"},
		{"312", "5555678", "Bob", "2 Oak Ave", "CHI", "60602"},
	}}, nil)
	c.mustOK("POST", base+"/detect", nil, nil)

	assertRows := func(want int64) {
		t.Helper()
		var info SessionInfo
		c.mustOK("GET", base, nil, &info)
		var health HealthResponse
		c.mustOK("GET", "/healthz", nil, &health)
		if len(health.Sessions) != 1 {
			t.Fatalf("healthz: %+v", health)
		}
		if got := health.Sessions[0].Rows; info.Rows != want || got != want {
			t.Fatalf("rows: session says %d, healthz says %d, the table holds %d", info.Rows, got, want)
		}
	}
	assertRows(2)
	c.mustOK("POST", base+"/updates", UpdatesRequest{Delete: []int64{999, 999, 1000}}, nil)
	assertRows(2)
	c.mustOK("POST", base+"/updates", UpdatesRequest{
		Insert: [][]any{{"415", "5550000", "Joe", "4 Pine St", "SF", "94101"}},
		Delete: []int64{1, 1, 999},
	}, nil)
	assertRows(2)
}
