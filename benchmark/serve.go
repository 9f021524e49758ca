package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"ecfd/internal/core"
	"ecfd/internal/gen"
	"ecfd/internal/relation"
	"ecfd/internal/server"
)

// serveInstance is serve_check_10k and serve_mixed_10k: the real
// server on a loopback listener inside this process, one gen-backed
// session, and the benchmark's own load generator.
//
// server.RunLoad is not used: its updates mode only inserts, so |D|
// and latency drift within a run, and it leaves 429s out of both the
// latencies and the failures. Here every insert batch is paired with
// as many deletes, a refusal is a failed op, and writes go out on a
// schedule and are timed from when they were due.
type serveInstance struct {
	mixed bool
	sigma []*core.ECFD

	srv  *server.Server
	web  *loopback
	base string // http://127.0.0.1:port/v1/sessions/<id>

	ref         *loopback // the reference the wall-clock metrics are scaled by
	refAllocPer float64

	clients int
	bodies  [][]byte    // check requests, pre-marshaled
	expect  [][]verdict // oracle verdict per body, per tuple
	seq     []int64     // next op index per reader, kept across runs

	// The writer of serve_mixed_10k owns the stream while a run is on;
	// verify reads it between runs.
	deltaStream
	lowRID  atomic.Int64 // smallest live RID: the page windows rotate above it
	writing atomic.Bool  // an update is in flight
}

func readerCount() int { return max(1, runtime.NumCPU()/2) }

// loopback is an http.Server on a 127.0.0.1 port of its own.
type loopback struct {
	hs   *http.Server
	done chan struct{} // closed when hs.Serve has returned
	root string        // http://127.0.0.1:port
}

func listenLoopback(h http.Handler) (*loopback, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l := &loopback{hs: &http.Server{Handler: h}, done: make(chan struct{}), root: "http://" + ln.Addr().String()}
	go func() {
		defer close(l.done)
		l.hs.Serve(ln) // returns once Close is called
	}()
	return l, nil
}

func (l *loopback) close() {
	l.hs.Close()
	<-l.done
}

// startServer boots the service on a loopback port.
func startServer() (*server.Server, *loopback, error) {
	srv := server.New(server.Options{})
	web, err := listenLoopback(srv)
	if err != nil {
		srv.Close()
		return nil, nil, err
	}
	return srv, web, nil
}

// newClient returns a keep-alive client that holds one connection.
func newClient() *http.Client {
	return &http.Client{
		Timeout:   30 * time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1},
	}
}

// setupServe is the cold set-up: boot the server, create the session
// (the server generates and loads the rows), first detect.
func setupServe(cfg runConfig, mixed bool) (instance, error) {
	s := &serveInstance{mixed: mixed, sigma: gen.Constraints(), clients: readerCount()}
	s.gcfg = genConfig(cfg.rows(serveRows), cfg.seed)
	var err error
	if s.srv, s.web, err = startServer(); err != nil {
		return nil, err
	}
	c := newClient()
	defer c.CloseIdleConnections()
	id, err := createSession(c, s.web.root, s.gcfg)
	if err == nil {
		s.base = s.web.root + "/v1/sessions/" + id
		err = postJSON(c, s.base+"/detect", nil, new(server.DetectResponse))
	}
	if err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

func createSession(c *http.Client, root string, g gen.Config) (string, error) {
	var info server.SessionInfo
	req := server.CreateSessionRequest{Gen: &server.GenSpec{Rows: g.Rows, Noise: g.Noise, Seed: g.Seed}}
	if err := postJSON(c, root+"/v1/sessions", req, &info); err != nil {
		return "", fmt.Errorf("create session: %w", err)
	}
	return info.ID, nil
}

func (s *serveInstance) close() {
	if s.ref != nil {
		s.ref.close()
	}
	s.web.close()
	s.srv.Close()
}

// postJSON is for set-up calls, not the measured path.
func postJSON(c *http.Client, url string, in, out any) error {
	var body []byte
	if in != nil {
		var err error
		if body, err = json.Marshal(in); err != nil {
			return err
		}
	}
	r := do(c, "POST", url, body)
	if r.err != nil {
		return r.err
	}
	if r.status/100 != 2 {
		return fmt.Errorf("POST %s: HTTP %d: %s", url, r.status, r.body)
	}
	return json.Unmarshal(r.body, out)
}

func jsonRows(rows []relation.Tuple) [][]any {
	out := make([][]any, len(rows))
	for i, t := range rows {
		row := make([]any, len(t))
		for j, v := range t {
			switch v.K {
			case relation.KindNull:
				row[j] = nil
			case relation.KindInt:
				row[j] = v.I
			case relation.KindFloat:
				row[j] = v.F
			case relation.KindBool:
				row[j] = v.I != 0
			default:
				row[j] = v.S
			}
		}
		out[i] = row
	}
	return out
}

// checkBodies draws bodyCount candidate batches from a seed disjoint
// from the table's and answers each from the oracle over data. Fresh
// tuples rarely fall into a violating group, so the first tuple of
// each batch repeats a row of data that sits in one: both verdicts,
// and both outcomes of the Aux probe, are exercised.
func checkBodies(g gen.Config, data *relation.Relation, sigma []*core.ECFD) (cands [][]relation.Tuple, bodies [][]byte, expect [][]verdict, err error) {
	pool := gen.Dataset(gen.Config{Rows: bodyCount * deltaRows, Noise: g.Noise, Seed: g.Seed + 7919})
	flags, err := core.NaiveDetect(data, sigma)
	if err != nil {
		return nil, nil, nil, err
	}
	var grouped []int
	for i, mv := range flags.MV {
		if mv {
			grouped = append(grouped, i)
		}
	}
	rng := rand.New(rand.NewSource(g.Seed + 104729))
	oracle := newCheckOracle(data, sigma)
	for i := 0; i < bodyCount; i++ {
		batch := pool.Rows[i*deltaRows : (i+1)*deltaRows]
		if len(grouped) > 0 {
			batch[0] = data.Rows[grouped[rng.Intn(len(grouped))]].Clone()
		}
		body, err := json.Marshal(server.RowsPayload{Rows: jsonRows(batch)})
		if err != nil {
			return nil, nil, nil, err
		}
		want := make([]verdict, len(batch))
		for j, t := range batch {
			want[j] = oracle.check(t)
		}
		cands, bodies, expect = append(cands, batch), append(bodies, body), append(expect, want)
	}
	return cands, bodies, expect, nil
}

func (s *serveInstance) prepare() error {
	// The session was generated server-side from the same config, so
	// this is the table, with RIDs 1..n.
	data := gen.Dataset(s.gcfg)
	s.live = mirrorOf(data)
	s.lowRID.Store(1)
	s.seq = make([]int64, s.clients)
	var err error
	if _, s.bodies, s.expect, err = checkBodies(s.gcfg, data, s.sigma); err != nil {
		return err
	}
	if s.ref, err = startRefServer(); err != nil {
		return err
	}
	c := newClient()
	defer c.CloseIdleConnections()
	s.refAllocPer = allocPer(func() { do(c, "POST", s.ref.root+"/ping", s.bodies[0]) })
	return nil
}

// ping times one reference round trip — a check body to the benchmark's
// own handler. Its time is kept only if no update was in flight beside
// it: the reference is to say how fast the host is, not how much of it
// the write path is using.
func (s *serveInstance) ping(ref *refClock, c *http.Client, b int) {
	busy := s.writing.Load()
	r := do(c, "POST", s.ref.root+"/ping", s.bodies[b])
	ref.add(r.took, r.err == nil && !busy && !s.writing.Load())
}

// reply is what one request came back with.
type reply struct {
	status int
	body   []byte
	took   time.Duration // until the body was read in full
	err    error
}

func do(c *http.Client, method, url string, body []byte) reply {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return reply{err: err}
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	t0 := time.Now()
	resp, err := c.Do(req)
	if err != nil {
		return reply{err: err, took: time.Since(t0)}
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return reply{status: resp.StatusCode, body: raw, took: time.Since(t0), err: err}
}

// count books a reply: ok reports whether it is a 200 the caller
// should now verify.
func (w *window) count(r reply) (ok bool) {
	w.attempted++
	switch {
	case r.err != nil:
	case r.status == http.StatusOK:
		return true
	case r.status == http.StatusTooManyRequests:
		w.rejected++
	case r.status == http.StatusGatewayTimeout:
		w.deadline++
	}
	w.failed++
	return false
}

// checkAnswer verifies a check response against the oracle. Beside a
// write stream the MV verdict depends on which updates the check saw,
// so only SV — a property of the tuple alone — is held exact there.
func checkAnswer(body []byte, want []verdict, exactMV bool) (elapsedMS float64, err error) {
	var got server.CheckResponse
	if err := json.Unmarshal(body, &got); err != nil {
		return 0, err
	}
	if len(got.Results) != len(want) {
		return 0, fmt.Errorf("check returned %d verdicts for %d tuples", len(got.Results), len(want))
	}
	for i, v := range got.Results {
		if v.SV != want[i].sv || (exactMV && v.MV != want[i].mv) {
			return 0, fmt.Errorf("tuple %d: got sv=%v mv=%v, oracle sv=%v mv=%v", i, v.SV, v.MV, want[i].sv, want[i].mv)
		}
	}
	return got.ElapsedMS, nil
}

// page is the streamed violations document.
type page struct {
	Columns []string `json:"columns"`
	Rows    [][]any  `json:"rows"`
	Count   int64    `json:"count"`
}

// pageAnswer verifies a bounded page: complete, inside (lo, hi],
// ascending, every row flagged.
func pageAnswer(body []byte, lo, hi int64) (rows int64, err error) {
	vs, err := decodeViolations(body)
	if err != nil {
		return 0, err
	}
	last := lo
	for _, v := range vs {
		if v.rid <= last || v.rid > hi {
			return 0, fmt.Errorf("page (%d, %d]: RID %d out of order or range", lo, hi, v.rid)
		}
		last = v.rid
	}
	return int64(len(vs)), nil
}

func decodeViolations(body []byte) ([]violation, error) {
	var p page
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.UseNumber()
	if err := dec.Decode(&p); err != nil {
		return nil, fmt.Errorf("violations document: %w", err) // a cut stream ends here
	}
	if p.Count != int64(len(p.Rows)) {
		return nil, fmt.Errorf("violations document counts %d rows, carries %d", p.Count, len(p.Rows))
	}
	out := make([]violation, len(p.Rows))
	for i, r := range p.Rows {
		n := len(r)
		var cell [3]int64
		for j, c := range []any{r[0], r[n-2], r[n-1]} {
			num, ok := c.(json.Number)
			if !ok {
				return nil, fmt.Errorf("violations row %d: %v is not a number", i, c)
			}
			var err error
			if cell[j], err = num.Int64(); err != nil {
				return nil, err
			}
		}
		if cell[1] != 1 && cell[2] != 1 {
			return nil, fmt.Errorf("violations row %d: RID %d carries no flag", i, cell[0])
		}
		out[i] = violation{rid: cell[0], sv: cell[1] == 1, mv: cell[2] == 1}
	}
	return out, nil
}

// reader is one closed-loop client: the next request goes out when the
// previous answer is in.
func (s *serveInstance) reader(c int, start time.Time, d time.Duration, tr *tracer) *window {
	w := &window{}
	client, refClient := newClient(), newClient()
	defer client.CloseIdleConnections()
	defer refClient.CloseIdleConnections()
	rows := int64(s.gcfg.Rows)
	for ; time.Since(start) < d; s.seq[c]++ {
		i := s.seq[c]
		op := i*int64(s.clients) + int64(c)
		if i%refEvery == refEvery/2 { // mid-cycle: never right after a page
			s.ping(&w.ref, refClient, int(op%bodyCount))
		}
		traced := tr != nil && i%2 == 0
		var optr *tracer
		if traced {
			optr = tr
		}
		if s.mixed && i%readsPerPage == readsPerPage-1 {
			lo := s.lowRID.Load() - 1 + (i/readsPerPage*int64(s.clients)+int64(c))*pageWindow%rows
			hi := lo + pageWindow
			id := optr.start("op.page", 0, op)
			r := do(client, "GET", fmt.Sprintf("%s/violations?lo=%d&hi=%d", s.base, lo, hi), nil)
			optr.end(id)
			if !w.count(r) {
				continue
			}
			n, err := pageAnswer(r.body, lo, hi)
			if err != nil {
				w.failed++
				fmt.Printf("page failed: %v\n", err)
				continue
			}
			w.pageRows += n
			w.samples = append(w.samples, sample{at: time.Since(start).Seconds(), ms: ms(r.took), kind: opPage, traced: traced})
			continue
		}
		b := int(op % bodyCount)
		id := optr.start("op.check", 0, op)
		r := do(client, "POST", s.base+"/check", s.bodies[b])
		optr.end(id)
		if !w.count(r) {
			continue
		}
		if _, err := checkAnswer(r.body, s.expect[b], !s.mixed); err != nil {
			w.failed++
			fmt.Printf("check failed: %v\n", err)
			continue
		}
		w.samples = append(w.samples, sample{at: time.Since(start).Seconds(), ms: ms(r.took), traced: traced})
	}
	return w
}

// writer is the open loop: one update every 1/writeHz seconds whatever
// the server does. An update is timed from when it was due, so a stall
// that delays the next ones is counted against them too.
func (s *serveInstance) writer(start time.Time, d time.Duration, tr *tracer) *window {
	w := &window{}
	client := newClient()
	defer client.CloseIdleConnections()
	period := time.Second / writeHz
	for k := 0; ; k++ {
		due := start.Add(time.Duration(k) * period)
		if due.Sub(start) >= d {
			return w
		}
		// Sleep close to the due time, then spin the last stretch: a
		// timer alone wakes up to a millisecond late on a busy host.
		time.Sleep(time.Until(due) - 500*time.Microsecond)
		for time.Now().Before(due) {
			runtime.Gosched()
		}
		ins, del := s.next(deltaRows)
		body, err := json.Marshal(server.UpdatesRequest{Insert: jsonRows(ins.Rows), Delete: del})
		if err != nil {
			w.attempted++
			w.failed++
			continue
		}
		sent := time.Now()
		id := tr.start("op.update", 0, int64(k))
		s.writing.Store(true)
		r := do(client, "POST", s.base+"/updates", body)
		s.writing.Store(false)
		tr.end(id)
		lat, lag := fromDue(due, sent, r.took)
		w.lagMS = append(w.lagMS, lag)
		if !w.count(r) {
			continue // refused whole: the mirror does not move
		}
		var got server.UpdatesResponse
		if err := json.Unmarshal(r.body, &got); err != nil || got.Inserted.Count != deltaRows {
			w.failed++
			fmt.Printf("update failed: %v (inserted %d)\n", err, got.Inserted.Count)
			continue
		}
		s.applied(ins, got.Inserted.FirstRID)
		s.lowRID.Store(s.live[0].rid)
		w.writes = append(w.writes, sample{at: time.Since(start).Seconds(), ms: lat})
	}
}

// fromDue is the open loop's accounting: a request due at due, sent
// at sent and answered took later waited from its due time — the lag
// is the generator's own lateness, and is part of the latency.
func fromDue(due, sent time.Time, took time.Duration) (latencyMS, lagMS float64) {
	return ms(sent.Add(took).Sub(due)), ms(sent.Sub(due))
}

func (s *serveInstance) run(d time.Duration, tr *tracer) *window {
	parts := make([]*window, s.clients+1)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < s.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			parts[c] = s.reader(c, start, d, tr)
		}()
	}
	if s.mixed {
		wg.Add(1)
		go func() {
			defer wg.Done()
			parts[s.clients] = s.writer(start, d, tr)
		}()
	}
	wg.Wait()
	total := &window{seconds: time.Since(start).Seconds(), clients: s.clients,
		refNominalMS: refPingNominalMS, refAllocPer: s.refAllocPer}
	for _, p := range parts {
		if p != nil {
			total.merge(p)
		}
	}
	return total
}

// verify streams the whole violation set and holds it against the
// naive oracle on the mirrored end state. It also requires the engine
// to have settled to one live epoch: a leaked snapshot pin would keep
// retired epochs alive.
func (s *serveInstance) verify() error {
	c := newClient()
	defer c.CloseIdleConnections()
	r := do(c, "GET", s.base+"/violations", nil)
	if r.err != nil || r.status != http.StatusOK {
		return fmt.Errorf("GET violations: HTTP %d: %v", r.status, r.err)
	}
	got, err := decodeViolations(r.body)
	if err != nil {
		return err
	}
	want, err := expectViolations(s.live, s.sigma)
	if err != nil {
		return err
	}
	if err := sameViolations(got, want); err != nil {
		return err
	}
	if h, err := engineHealth(c, s.web.root); err != nil || h.LiveEpochs != 1 {
		return fmt.Errorf("engine did not settle to one live epoch: %d (%v)", h.LiveEpochs, err)
	}
	return nil
}

// engineHealth reads the first session's engine counters off /healthz.
func engineHealth(c *http.Client, root string) (server.EngineHealth, error) {
	r := do(c, "GET", root+"/healthz", nil)
	if r.err != nil || r.status != http.StatusOK {
		return server.EngineHealth{}, fmt.Errorf("GET healthz: HTTP %d: %v", r.status, r.err)
	}
	var h server.HealthResponse
	if err := json.Unmarshal(r.body, &h); err != nil {
		return server.EngineHealth{}, err
	}
	if len(h.Sessions) == 0 {
		return server.EngineHealth{}, fmt.Errorf("healthz lists no session")
	}
	return h.Sessions[0].Engine, nil
}
