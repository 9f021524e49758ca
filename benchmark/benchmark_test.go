package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"ecfd/internal/gen"
	"ecfd/internal/relation"
)

func TestPercentileIsNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	for _, c := range []struct{ p, want float64 }{{0.5, 50}, {0.9, 90}, {0.95, 95}, {0.99, 99}, {1, 100}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile([]float64{7}, 0.9); got != 7 {
		t.Errorf("one sample: %v", got)
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("no samples must give NaN, not a number that looks measured")
	}
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median of unsorted = %v", got)
	}
}

// A tail percentile counts only with ten samples beyond it: p90 needs
// 100 samples, p95 needs 200.
func TestTailSupport(t *testing.T) {
	for _, c := range []struct {
		n      int
		p      float64
		beyond int
	}{{100, 0.90, 10}, {99, 0.90, 9}, {107, 0.90, 10}, {200, 0.95, 10}, {199, 0.95, 9}, {0, 0.9, 0}} {
		if got := samplesBeyond(c.n, c.p); got != c.beyond {
			t.Errorf("samplesBeyond(%d, %v) = %d, want %d", c.n, c.p, got, c.beyond)
		}
	}
	for _, wl := range workloads {
		if wl.tailP != 0.90 && wl.tailP != 0.95 {
			t.Errorf("%s: tail percentile %v", wl.name, wl.tailP)
		}
	}
}

// quartiles must be Python's statistics.quantiles(xs, n=4), which the
// acceptance rule for the benchmark's spread is written in.
func TestQuartilesMatchPythonExclusive(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{1, 2, 4, 8})
	if q1 != 1.25 || q2 != 3 || q3 != 7 {
		t.Errorf("quartiles(1,2,4,8) = %v %v %v, want 1.25 3 7", q1, q2, q3)
	}
}

func TestSubWindowMedians(t *testing.T) {
	var ss []sample
	for i := 0; i < 40; i++ { // ten ops per 6 s sub-window; the last is slower
		at := float64(i) * 0.6
		lat := 1.0
		if at >= 18 {
			lat = 3
		}
		ss = append(ss, sample{at: at, ms: lat})
	}
	ss = append(ss, sample{at: 24.2, ms: 3}) // overshot the deadline: still the last window
	got := subWindowMedians(ss, 24, 4)
	if len(got) != 4 || got[0] != 1 || got[2] != 1 || got[3] != 3 {
		t.Errorf("sub-window medians = %v", got)
	}
	if got := subWindowMedians(ss[:10], 24, 4); len(got) != 1 {
		t.Errorf("empty sub-windows must be left out: %v", got)
	}
}

func TestSelfTimeCountsOverlappingChildrenOnce(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "parent", StartNS: 0, EndNS: 100},
		{ID: 2, Parent: 1, Name: "a", StartNS: 10, EndNS: 50},
		{ID: 3, Parent: 1, Name: "b", StartNS: 30, EndNS: 70},  // overlaps a
		{ID: 4, Parent: 1, Name: "c", StartNS: 90, EndNS: 120}, // runs past the parent
		{ID: 5, Parent: 2, Name: "leaf", StartNS: 20, EndNS: 30},
	}
	self := selfTimes(spans)
	if self[1] != 100-(60+10) {
		t.Errorf("parent self time = %d, want 30", self[1])
	}
	if self[2] != 30 || self[3] != 40 || self[5] != 10 {
		t.Errorf("self times = %v", self)
	}
}

func TestTracerNilRecordsNothing(t *testing.T) {
	var tr *tracer
	id := tr.start("x", 0, 0)
	tr.end(id)
	if err := tr.do("x", 0, 0, func() error { return errors.New("kept") }); err == nil || id != 0 {
		t.Error("a nil tracer must still run the call and return its error")
	}
	on := newTracer()
	parent := on.start("p", 0, 7)
	on.do("c", parent, 7, func() error { return nil })
	on.end(parent)
	if len(on.ms("c")) != 1 || on.spans[1].Parent != parent || on.spans[1].Op != 7 {
		t.Errorf("spans = %+v", on.spans)
	}
}

// An open-loop request is timed from when it was due: the wait a stall
// imposes on the requests behind it is theirs too.
func TestLatencyFromDueTime(t *testing.T) {
	due := time.Unix(100, 0)
	lat, lag := fromDue(due, due.Add(30*time.Millisecond), 40*time.Millisecond)
	if lat != 70 || lag != 30 {
		t.Errorf("latency %v ms, lag %v ms; want 70, 30", lat, lag)
	}
	lat, lag = fromDue(due, due, 40*time.Millisecond)
	if lat != 40 || lag != 0 {
		t.Errorf("on time: latency %v ms, lag %v ms", lat, lag)
	}
}

// Errors, refusals and deadline answers are failed ops, not dropped
// ones.
func TestFailureCounting(t *testing.T) {
	w := &window{}
	oks := 0
	for _, r := range []reply{
		{status: http.StatusOK},
		{status: http.StatusTooManyRequests},
		{status: http.StatusGatewayTimeout},
		{status: http.StatusInternalServerError},
		{err: errors.New("connection reset")},
		{status: http.StatusOK},
	} {
		if w.count(r) {
			oks++
		}
	}
	if oks != 2 || w.attempted != 6 || w.failed != 4 || w.rejected != 1 || w.deadline != 1 {
		t.Errorf("ok %d, window %+v", oks, w)
	}
	o := &window{attempted: 3, failed: 1, samples: []sample{{ms: 1}}}
	w.merge(o)
	if w.attempted != 9 || w.failed != 5 || len(w.samples) != 1 {
		t.Errorf("merged %+v", w)
	}
}

func TestAnswersAreVerified(t *testing.T) {
	want := []verdict{{sv: true}, {mv: true}}
	body := []byte(`{"results":[{"sv":true,"mv":false},{"sv":false,"mv":true}],"elapsed_ms":0.5}`)
	if ms, err := checkAnswer(body, want, true); err != nil || ms != 0.5 {
		t.Errorf("right answer: %v %v", ms, err)
	}
	wrongMV := []byte(`{"results":[{"sv":true,"mv":false},{"sv":false,"mv":false}]}`)
	if _, err := checkAnswer(wrongMV, want, true); err == nil {
		t.Error("a wrong MV verdict must fail where MV is exact")
	}
	if _, err := checkAnswer(wrongMV, want, false); err != nil {
		t.Errorf("beside writes only SV is exact: %v", err)
	}
	if _, err := checkAnswer([]byte(`{"results":[]}`), want, false); err == nil {
		t.Error("a missing verdict must fail")
	}

	doc := []byte(`{"columns":["RID","A","SV","MV"],"rows":[[3,"x",1,0],[9,"y",0,1]],"count":2}`)
	if n, err := pageAnswer(doc, 2, 9); err != nil || n != 2 {
		t.Errorf("page: %d %v", n, err)
	}
	if _, err := pageAnswer(doc, 3, 9); err == nil {
		t.Error("RID 3 is outside (3, 9]")
	}
	if _, err := pageAnswer(doc[:len(doc)-12], 0, 9); err == nil {
		t.Error("a cut stream must fail")
	}
	if _, err := pageAnswer([]byte(`{"columns":[],"rows":[[3,"x",0,0]],"count":1}`), 0, 9); err == nil {
		t.Error("an unflagged row is not a violation")
	}
}

// The oracle for check verdicts is the benchmark's own; it must agree
// with the detector it judges, and expectViolations with BatchDetect.
func TestOraclesAgreeWithDetector(t *testing.T) {
	g := genConfig(1500, 3)
	data, sigma := gen.Dataset(g), gen.Constraints()
	st, err := newStore(data, sigma, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer st.close()
	rel, err := st.det.Violations()
	if err != nil {
		t.Fatal(err)
	}
	want, err := expectViolations(mirrorOf(data), sigma)
	if err != nil || len(want) == 0 {
		t.Fatalf("oracle: %d violations, %v", len(want), err)
	}
	if err := sameViolations(violationsOf(rel), want); err != nil {
		t.Error(err)
	}
	cands, _, expect, err := checkBodies(g, data, sigma)
	if err != nil {
		t.Fatal(err)
	}
	sv, mv := 0, 0
	for b, rows := range cands {
		batch := relation.New(gen.Schema())
		batch.Rows = rows
		got, err := st.det.Check(batch)
		if err != nil {
			t.Fatal(err)
		}
		for j, v := range got {
			if (verdict{v.SV, v.MV}) != expect[b][j] {
				t.Errorf("body %d tuple %d: detector %+v, oracle %+v", b, j, v, expect[b][j])
			}
			sv, mv = sv+b2i(v.SV), mv+b2i(v.MV)
		}
	}
	if sv == 0 || mv == 0 {
		t.Errorf("the bodies exercise %d SV and %d MV verdicts; both kinds are needed", sv, mv)
	}

	// The mirror follows an update stream.
	stream := &deltaStream{gcfg: g, live: mirrorOf(data)}
	for i := 0; i < 3; i++ {
		if err := stream.applyTo(st.det, deltaRows); err != nil {
			t.Fatal(err)
		}
	}
	if len(stream.live) != g.Rows || stream.live[0].rid != 3*deltaRows+1 {
		t.Errorf("mirror holds %d rows from RID %d", len(stream.live), stream.live[0].rid)
	}
	rel, err = st.det.Violations()
	if err != nil {
		t.Fatal(err)
	}
	if want, err = expectViolations(stream.live, sigma); err != nil {
		t.Fatal(err)
	}
	if err := sameViolations(violationsOf(rel), want); err != nil {
		t.Error(err)
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// The limits BENCHMARK.json is refused beyond.
func TestSpecWithinContract(t *testing.T) {
	seen := make(map[string]bool)
	name := func(n string) {
		t.Helper()
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is outside [A-Za-z0-9_.-]{1,64}", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if len(workloads) < 2 || len(workloads) > 8 {
		t.Errorf("%d workloads", len(workloads))
	}
	for _, w := range workloads {
		name(w.name)
		if len(w.why) == 0 || len(w.why) > 200 || strings.ContainsAny(w.why, "\n\r") {
			t.Errorf("%s: why is %d characters; one line of at most 200", w.name, len(w.why))
		}
	}
	if len(endToEnd) < 1 || len(endToEnd) > 16 || len(perLayer) < 1 || len(perLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics", len(endToEnd), len(perLayer))
	}
	setup := false
	for _, m := range endToEnd {
		name(m.Name)
		if m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("%s: bound %v", m.Name, m.Bound)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("setup_s in s, lower is better, must be an end-to-end metric")
	}
	for _, m := range perLayer {
		name(m.Name)
		if m.Bound != nil {
			t.Errorf("%s: per-layer metrics carry no bound", m.Name)
		}
	}
	for _, m := range append(append([]metricSpec(nil), endToEnd...), perLayer...) {
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better %q", m.Name, m.Better)
		}
	}
	if runSeconds < 1 || runSeconds > 60 {
		t.Errorf("run_seconds %d", runSeconds)
	}
}

// BENCHMARK.json is `-spec` in a file, so every name the program
// prints is in it and the reverse.
func TestBenchmarkJSONIsTheSpec(t *testing.T) {
	want, err := benchmarkJSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bytes.TrimSpace(got), want) {
		t.Error("BENCHMARK.json differs from `bash benchmark/run.sh -spec`; print it again")
	}
	if len(got) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes", len(got))
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(got, &keys); err != nil || len(keys) != 6 {
		t.Errorf("BENCHMARK.json has %d keys (%v)", len(keys), err)
	}
}

// A run's metrics are exactly the contract's, by name and unit.
func TestPrintedNamesAreTheSpec(t *testing.T) {
	out := &outcome{Metrics: map[string]metric{}}
	for _, m := range endToEnd {
		out.Metrics[m.Name] = metric{1, m.Unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		t.Fatal(err)
	}
	var back struct {
		Correct   *bool
		Attempted *int64
		Failed    *int64
		Metrics   map[string]metric
	}
	dec := json.NewDecoder(bytes.NewReader(line))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&back); err != nil || back.Correct == nil || back.Attempted == nil || back.Failed == nil {
		t.Fatalf("result line %s: %v", line, err)
	}
	if len(back.Metrics) != len(endToEnd) || back.Metrics["ops_per_s"].Unit != "1/s" {
		t.Errorf("result line carries %d metrics", len(back.Metrics))
	}
}
