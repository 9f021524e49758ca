package main

import (
	"bytes"
	"database/sql"
	"fmt"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"ecfd/internal/core"
	"ecfd/internal/detect"
	"ecfd/internal/gen"
	"ecfd/internal/relation"
	"ecfd/internal/sqldb"
	"ecfd/internal/sqldriver"
)

// The traced run. A third of the window drives the workload itself
// with every second op recorded as a span — the pair of medians is the
// tracing overhead — and the rest goes to probes that time each layer
// from outside, by calling its public functions: the library layers at
// the workload's table size and a quarter of it, the durable engine at
// the quarter, the service at serveRows. Every probe is given a share
// of the window and repeats until the share is spent, so a run takes
// the same time on any host.
//
// Every traced run yields every per-layer metric, whichever workload
// it is given; the workload decides the table size of the library
// probes and which op stream is traced.

// layers carries one traced run.
type layers struct {
	cfg    runConfig
	tr     *tracer
	budget time.Duration // what the probes may spend in all
	m      map[string]float64
	sigma  []*core.ECFD
	bad    []string // probe results the oracle rejected
	ops    int64    // probe operations made
}

// share is a probe's part of the budget.
func (l *layers) share(f float64) time.Duration { return time.Duration(f * float64(l.budget)) }

// repeat calls fn until the share is spent, at least lo and at most
// hi times, and returns how many calls it made.
func (l *layers) repeat(d time.Duration, lo, hi int, fn func(i int64) error) (int, error) {
	start := time.Now()
	n := 0
	for n < lo || (n < hi && time.Since(start) < d) {
		if err := fn(int64(n)); err != nil {
			return n, err
		}
		n++
		l.ops++
	}
	return n, nil
}

// timed repeats one call as a span.
func (l *layers) timed(name string, d time.Duration, lo, hi int, fn func() error) error {
	_, err := l.repeat(d, lo, hi, func(i int64) error { return l.tr.do(name, 0, i, fn) })
	return err
}

func (l *layers) reject(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	fmt.Println("PROBE REJECTED:", msg)
	l.bad = append(l.bad, msg)
}

// holds checks a violation set read from the system against the
// oracle's.
func (l *layers) holds(what string, read func() (*relation.Relation, error), want []violation) error {
	rel, err := read()
	if err != nil {
		return err
	}
	if err := sameViolations(violationsOf(rel), want); err != nil {
		l.reject("%s: %v", what, err)
	}
	return nil
}

func runTraced(wl workload, cfg runConfig) (*outcome, error) {
	l := &layers{cfg: cfg, tr: newTracer(), m: make(map[string]float64), sigma: gen.Constraints(),
		budget: seconds(cfg.seconds * 2 / 3)}
	out := &outcome{Correct: true}
	ref := &refClock{}
	for i := 0; i < 9; i++ {
		ref.time(refKernel)
	}
	l.m["host.reference_ms"] = median(ref.ms)

	// The workload's own stream first, on a heap like the untraced run's.
	inst, err := wl.setup(cfg)
	if err != nil {
		return nil, err
	}
	if err := inst.prepare(); err != nil {
		inst.close()
		return nil, err
	}
	inst.run(seconds(min(cfg.warm, 1)), nil)
	win := inst.run(seconds(cfg.seconds/3), l.tr)
	if err := inst.verify(); err != nil {
		l.reject("%s: %v", wl.name, err)
	}
	inst.close()
	// Pages fall on odd op indexes only, so the pair is taken on the
	// workload's main op alone.
	traced := func(s sample) bool { return s.traced && s.kind == opMain }
	untraced := func(s sample) bool { return !s.traced && s.kind == opMain }
	l.m["trace.overhead_ratio"] = median(latencies(win.samples, traced)) / median(latencies(win.samples, untraced))
	out.Attempted, out.Failed = win.attempted, win.failed

	rows := cfg.rows(batchRows)
	if wl.name == "serve_check_10k" || wl.name == "serve_mixed_10k" {
		rows = cfg.rows(serveRows)
	}
	runtime.GC()
	if err := l.library(rows); err != nil {
		return nil, fmt.Errorf("library probes: %w", err)
	}
	runtime.GC()
	if err := l.durable(rows / 4); err != nil {
		return nil, fmt.Errorf("durable probes: %w", err)
	}
	runtime.GC()
	mixed, err := l.service()
	if err != nil {
		return nil, fmt.Errorf("service probes: %w", err)
	}
	out.Attempted += l.ops + mixed.attempted
	out.Failed += mixed.failed + int64(len(l.bad))
	l.m["loadgen.fail_ratio"] = float64(out.Failed) / float64(out.Attempted)
	out.Correct = out.Failed == 0

	out.Metrics = make(map[string]metric, len(perLayer))
	for _, spec := range perLayer {
		v, ok := l.m[spec.Name]
		if !ok {
			return nil, fmt.Errorf("the traced run did not measure %s", spec.Name)
		}
		out.Metrics[spec.Name] = metric{v, spec.Unit}
	}
	if len(l.m) != len(perLayer) {
		return nil, fmt.Errorf("the traced run measured %d metrics, the contract lists %d", len(l.m), len(perLayer))
	}
	path := filepath.Join(cfg.outDir, "trace_"+wl.name+".json")
	if err := l.tr.write(path); err != nil {
		return nil, err
	}
	fmt.Printf("workload %s  seed %d  traced: %d spans in %s, library probes at %d and %d rows\n",
		wl.name, cfg.seed, len(l.tr.spans), path, rows, rows/4)
	return out, nil
}

// paired combines the i-th values of two series recorded in the same
// rounds.
func paired(a, b []float64, f func(a, b float64) float64) []float64 {
	out := make([]float64, min(len(a), len(b)))
	for i := range out {
		out[i] = f(a[i], b[i])
	}
	return out
}

// setMS files the median duration of the spans under a metric name.
func (l *layers) setMS(metric, spanName string) { l.m[metric] = l.tr.p50(spanName) }

// batchStatements rebuilds BatchDetect's five statements from what the
// detector exposes, in script order.
func batchStatements(det *detect.Detector) [][2]string {
	_, qsvUpdate, qmvInsert, mvUpdate := det.SQL()
	data := det.DataTable()
	aux := strings.TrimSuffix(data, "_data") + "_aux"
	return [][2]string{
		{"sqldb.stmt.reset_flags", fmt.Sprintf("UPDATE %s SET %s = 0, %s = 0", data, detect.ColSV, detect.ColMV)},
		{"sqldb.stmt.qsv_update", qsvUpdate},
		{"sqldb.stmt.aux_truncate", "TRUNCATE TABLE " + aux},
		{"sqldb.stmt.qmv_insert", qmvInsert},
		{"sqldb.stmt.mv_update", mvUpdate},
	}
}

// library times gen, core, detect, sqldriver and sqldb at rows and at
// a quarter of them.
func (l *layers) library(rows int) error {
	tr, sigma := l.tr, l.sigma
	gcfg, small := genConfig(rows, l.cfg.seed), genConfig(rows/4, l.cfg.seed)

	// Set-up, three times from nothing: generate, install, load.
	var data *relation.Relation
	var st *store
	for i := int64(0); i < 3; i++ {
		if st != nil {
			st.close()
		}
		parent := tr.start("probe.setup", 0, i)
		tr.do("gen.dataset", parent, i, func() error { data = gen.Dataset(gcfg); return nil })
		var err error
		if st, err = newStore(data, sigma, tr, parent); err != nil {
			return err
		}
		tr.end(parent)
	}
	defer st.close()
	l.setMS("gen.dataset_ms", "gen.dataset")
	l.setMS("detect.install_ms", "detect.install")
	l.setMS("detect.load_ms", "detect.load")

	for i := int64(0); i < 2; i++ {
		if err := tr.do("core.naive_detect", 0, i, func() error { _, err := core.NaiveDetect(data, sigma); return err }); err != nil {
			return err
		}
	}
	l.setMS("core.naive_detect_ms", "core.naive_detect")

	// BatchDetect whole; its five statements one at a time through
	// database/sql; the same five on the engine directly. The three take
	// turns, and the turn order rotates, so that drift and the garbage
	// each leaves behind fall on all alike.
	stmts := batchStatements(st.det)
	variants := []func(i int64) error{
		func(i int64) error {
			return tr.do("detect.batch", 0, i, func() error { _, err := st.det.BatchDetect(); return err })
		},
		func(i int64) error {
			parent := tr.start("batch.decomposed", 0, i)
			inner := tr.start("batch.decomposed.stmts", parent, i)
			for _, s := range stmts {
				if err := tr.do(s[0], inner, i, func() error { _, err := st.db.Exec(s[1]); return err }); err != nil {
					return fmt.Errorf("%s: %w", s[0], err)
				}
			}
			tr.end(inner)
			err := tr.do("detect.counts", parent, i, func() error { _, _, _, err := st.det.Counts(); return err })
			tr.end(parent)
			return err
		},
		func(i int64) error {
			return tr.do("batch.engine", 0, i, func() error {
				for _, s := range stmts {
					p, err := st.eng.Prepare(s[1]) // the plan cache, as the driver uses it
					if err == nil {
						_, err = p.Exec()
					}
					if err != nil {
						return fmt.Errorf("%s on the engine: %w", s[0], err)
					}
				}
				return nil
			})
		},
	}
	_, err := l.repeat(l.share(0.27), 3, 40, func(i int64) error {
		for j := range variants {
			if err := variants[(int(i)+j)%len(variants)](i); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	live := mirrorOf(data)
	want, err := expectViolations(live, sigma)
	if err != nil {
		return err
	}
	if err := l.holds("the five batch statements run one at a time", st.det.Violations, want); err != nil {
		return err
	}
	batch := tr.p50("detect.batch")
	l.m["detect.batch_ms"] = batch
	for _, s := range stmts {
		l.setMS(s[0]+"_ms", s[0])
	}
	l.setMS("detect.counts_ms", "detect.counts")
	// Paired by round: the host drifts more between rounds than within.
	l.m["detect.batch_reconcile"] = median(paired(tr.ms("batch.decomposed"), tr.ms("detect.batch"), func(a, b float64) float64 { return a / b }))
	l.m["sqldriver.batch_overhead_ms"] = median(paired(tr.ms("batch.decomposed.stmts"), tr.ms("batch.engine"), func(a, b float64) float64 { return a - b }))

	var vioRows int
	if err := l.timed("detect.violations", 0, 10, 10, func() error {
		rel, err := st.det.Violations()
		if err == nil {
			vioRows = rel.Len()
		}
		return err
	}); err != nil {
		return err
	}
	l.setMS("detect.violations_ms", "detect.violations")
	l.m["detect.violation_rows"] = float64(vioRows)

	// Prepare: a text the process has never parsed, on an engine with an
	// empty plan cache, against the same text again.
	fresh := sqldb.NewDB()
	for i := int64(0); i < 20; i++ {
		text := stmts[3][1] + strings.Repeat(" ", int(i)+1)
		for _, name := range []string{"sqldb.prepare_cold", "sqldb.prepare_warm"} {
			if err := tr.do(name, 0, i, func() error { _, err := fresh.Prepare(text); return err }); err != nil {
				return err
			}
		}
	}
	l.m["sqldb.prepare_cold_us"] = tr.p50("sqldb.prepare_cold") * 1000
	l.m["sqldb.prepare_warm_us"] = tr.p50("sqldb.prepare_warm") * 1000

	rowSources := 0
	for _, s := range stmts {
		if strings.HasPrefix(s[1], "TRUNCATE") {
			continue // no plan to explain
		}
		plan, err := st.eng.Explain(s[1])
		if err != nil {
			return fmt.Errorf("explain %s: %w", s[0], err)
		}
		rowSources += strings.Count(plan, "[row]")
	}
	l.m["sqldb.explain_row_sources"] = float64(rowSources)

	// The two parallel detectors, over the same data.
	nproc := runtime.GOMAXPROCS(0)
	if err := l.timed("detect.parallel", l.share(0.05), 3, 20, func() error {
		_, err := st.det.ParallelDetect(nproc)
		return err
	}); err != nil {
		return err
	}
	if err := l.holds("ParallelDetect", st.det.Violations, want); err != nil {
		return err
	}
	if err := l.sharded(data, want, nproc); err != nil {
		return err
	}
	l.setMS("detect.parallel_ms", "detect.parallel")
	l.setMS("detect.sharded_ms", "detect.sharded")
	l.m["detect.parallel_speedup"] = batch / l.m["detect.parallel_ms"]
	l.m["detect.sharded_speedup"] = batch / l.m["detect.sharded_ms"]

	// A quarter of the rows: is detection linear in |D|? And with the
	// first constraint's tableau grown tenfold: is it flat in |Tp|?
	smallData := gen.Dataset(small)
	stSmall, err := newStore(smallData, sigma, nil, 0)
	if err != nil {
		return err
	}
	defer stSmall.close()
	scaled := gen.ConstraintsScaled(10*len(sigma[0].Tableau), l.cfg.seed)
	stTP, err := newStore(smallData, scaled, nil, 0)
	if err != nil {
		return err
	}
	if err := l.timed("detect.batch_small", l.share(0.03), 5, 40, func() error { _, err := stSmall.det.BatchDetect(); return err }); err != nil {
		return err
	}
	err = l.timed("detect.batch_tp", l.share(0.03), 5, 40, func() error { _, err := stTP.det.BatchDetect(); return err })
	stTP.close()
	if err != nil {
		return err
	}
	batchSmall := tr.p50("detect.batch_small")
	l.m["detect.batch_linearity"] = (batch / float64(rows)) / (batchSmall / float64(rows/4))
	l.m["detect.batch_tp_ratio"] = tr.p50("detect.batch_tp") / batchSmall

	// Incremental maintenance: the inc_40k op, with the engine's epoch
	// counters read around it; the same DML with no maintenance on a
	// twin; the same op on the quarter table; and a batch eight times
	// the size.
	stream := &deltaStream{gcfg: gcfg, live: live}
	epoch0 := st.eng.Stats().EpochSeq
	n, err := l.repeat(l.share(0.10), 5, 60, func(i int64) error {
		return tr.do("detect.apply", 0, i, func() error { return stream.applyTo(st.det, deltaRows) })
	})
	if err != nil {
		return err
	}
	l.m["sqldb.epochs_per_op"] = float64(st.eng.Stats().EpochSeq-epoch0) / float64(n)
	// What one update retires while a reader pins the epoch before it:
	// the copy-on-write volume a concurrent snapshot keeps alive.
	var retired int64
	for i := 0; i < 3; i++ {
		snap := st.eng.PinSnapshot()
		err := stream.applyTo(st.det, deltaRows)
		retired = max(retired, st.eng.Stats().RetiredBytes)
		snap.Close()
		if err != nil {
			return err
		}
	}
	l.m["sqldb.retired_bytes_max"] = float64(retired)

	twin, err := newStore(data, sigma, nil, 0)
	if err != nil {
		return err
	}
	rawStream := &deltaStream{gcfg: gcfg, live: mirrorOf(data)}
	_, err = l.repeat(0, n, n, func(i int64) error {
		ins, del := rawStream.next(deltaRows)
		return tr.do("detect.raw_dml", 0, i, func() error {
			rids, err := twin.det.InsertRaw(ins)
			if err != nil {
				return err
			}
			rawStream.applied(ins, rids[0])
			return twin.det.DeleteRaw(del)
		})
	})
	twin.close()
	if err != nil {
		return err
	}

	smallStream := &deltaStream{gcfg: small, live: mirrorOf(smallData)}
	if err := l.timed("detect.apply_small", l.share(0.04), 5, 60, func() error { return smallStream.applyTo(stSmall.det, deltaRows) }); err != nil {
		return err
	}
	if err := l.timed("detect.apply_delta64", l.share(0.05), 3, 20, func() error { return stream.applyTo(st.det, 8*deltaRows) }); err != nil {
		return err
	}
	if want, err = expectViolations(stream.live, sigma); err != nil {
		return err
	}
	if err := l.holds("ApplyUpdates", st.det.Violations, want); err != nil {
		return err
	}
	apply := tr.p50("detect.apply")
	l.m["detect.apply_ms"] = apply
	l.setMS("detect.raw_dml_ms", "detect.raw_dml")
	l.m["detect.maintain_share"] = 1 - l.m["detect.raw_dml_ms"]/apply
	l.m["detect.apply_scaling"] = apply / tr.p50("detect.apply_small")
	l.m["detect.inc_vs_batch"] = apply / batch
	l.setMS("detect.apply_delta64_ms", "detect.apply_delta64")
	return nil
}

// sharded times ShardedDetector.BatchDetect with one shard per core.
func (l *layers) sharded(data *relation.Relation, want []violation, shards int) error {
	dsn := fmt.Sprintf("benchmark_%d", dsnSeq.Add(1))
	db, err := sql.Open(sqldriver.DriverName, dsn)
	if err != nil {
		return err
	}
	defer sqldriver.Unregister(dsn)
	defer db.Close()
	sd, err := detect.NewSharded(db, gen.Schema(), l.sigma, detect.ShardOptions{Shards: shards})
	if err != nil {
		return err
	}
	defer sd.Close()
	if err := sd.Install(); err != nil {
		return err
	}
	if _, err := sd.LoadData(data); err != nil {
		return err
	}
	if err := l.timed("detect.sharded", l.share(0.05), 3, 20, func() error { _, err := sd.BatchDetect(); return err }); err != nil {
		return err
	}
	return l.holds("ShardedDetector", sd.Violations, want)
}

// durable replays the update stream on engines with a write-ahead log
// in a directory under the benchmark's out/, without fsync and with
// one per commit, each update one transaction; then closes the second,
// reopens it from the log alone and compares.
func (l *layers) durable(rows int) error {
	gcfg := genConfig(rows, l.cfg.seed)
	data := gen.Dataset(gcfg)
	for _, policy := range []string{"off", "always"} {
		dir, err := os.MkdirTemp(l.cfg.outDir, "wal-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		if dir, err = filepath.Abs(dir); err != nil {
			return err
		}
		dsn := fmt.Sprintf("benchmark_%d?wal=%s&fsync=%s", dsnSeq.Add(1), dir, policy)
		st, err := openStore(dsn, l.sigma)
		if err != nil {
			return err
		}
		st.det.SetAtomicUpdates(true)
		err = st.det.Install()
		if err == nil {
			_, err = st.det.LoadData(data)
		}
		if err == nil {
			_, err = st.det.BatchDetect()
		}
		if err != nil {
			st.close()
			return err
		}
		stream := &deltaStream{gcfg: gcfg, live: mirrorOf(data)}
		size0, err := dirSize(dir)
		if err != nil {
			st.close()
			return err
		}
		n, err := l.repeat(l.share(0.05), 5, 60, func(i int64) error {
			return l.tr.do("sqldb.wal.apply_"+policy, 0, i, func() error { return stream.applyTo(st.det, deltaRows) })
		})
		if err != nil {
			st.close()
			return err
		}
		l.setMS("sqldb.wal.apply_"+policy+"_ms", "sqldb.wal.apply_"+policy)
		if policy != "always" {
			st.close()
			continue
		}
		size1, err := dirSize(dir)
		if err != nil {
			st.close()
			return err
		}
		l.m["sqldb.wal.bytes_per_op"] = float64(size1-size0) / float64(n)
		rel, err := st.det.Violations()
		st.close() // closes the engine; what follows sees only the files
		if err != nil {
			return err
		}
		before := renderViolations(violationsOf(rel))
		var back *store
		err = l.tr.do("sqldb.wal.recovery", 0, 0, func() error {
			var err error
			if back, err = openStore(dsn, l.sigma); err != nil {
				return err
			}
			return back.det.Resume()
		})
		if err != nil {
			return fmt.Errorf("recovery: %w", err)
		}
		l.setMS("sqldb.wal.recovery_ms", "sqldb.wal.recovery")
		rel, err = back.det.Violations()
		back.close()
		if err != nil {
			return err
		}
		l.m["sqldb.wal.recovered_ok"] = 1
		if renderViolations(violationsOf(rel)) != before {
			l.m["sqldb.wal.recovered_ok"] = 0
			l.reject("the violation set read back after recovery differs from the one before the close")
		}
		want, err := expectViolations(stream.live, l.sigma)
		if err != nil {
			return err
		}
		if err := sameViolations(violationsOf(rel), want); err != nil {
			l.reject("durable ApplyUpdates: %v", err)
		}
	}
	return nil
}

func dirSize(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err == nil {
			total += info.Size()
		}
		return err
	})
	return total, err
}

// service times the server: session creation, then the same check
// bodies three ways in turn — over loopback HTTP, through the handler
// with no network, and through Detector.Check on a twin detector with
// no server — and last a short serve_mixed_10k stream split by request
// kind. It returns that stream's window.
func (l *layers) service() (*window, error) {
	tr := l.tr
	gcfg := genConfig(l.cfg.rows(serveRows), l.cfg.seed)
	srv, web, err := startServer()
	if err != nil {
		return nil, err
	}
	root := web.root
	stop := func() {
		web.close()
		srv.Close()
	}
	c := newClient()
	defer c.CloseIdleConnections()
	var id string
	for i := int64(0); i < 3; i++ {
		if err := tr.do("server.session_create", 0, i, func() error {
			var err error
			id, err = createSession(c, root, gcfg)
			return err
		}); err != nil {
			stop()
			return nil, err
		}
	}
	l.setMS("server.session_create_ms", "server.session_create")
	path := "/v1/sessions/" + id
	data := gen.Dataset(gcfg)
	twin, err := newStore(data, l.sigma, nil, 0)
	if err == nil {
		err = postJSON(c, root+path+"/detect", nil, new(struct{}))
	}
	if err != nil {
		stop()
		return nil, err
	}
	cands, bodies, expect, err := checkBodies(gcfg, data, l.sigma)
	if err != nil {
		stop()
		twin.close()
		return nil, err
	}
	var elapsed []float64
	_, err = l.repeat(0, 300, 300, func(i int64) error {
		b := int(i % bodyCount)
		id := tr.start("server.roundtrip", 0, i)
		r := do(c, "POST", root+path+"/check", bodies[b])
		tr.end(id)
		if r.err != nil || r.status != http.StatusOK {
			return fmt.Errorf("check over HTTP: HTTP %d: %v", r.status, r.err)
		}
		field, err := checkAnswer(r.body, expect[b], true)
		if err != nil {
			l.reject("check over HTTP: %v", err)
		}
		elapsed = append(elapsed, field)

		rec := httptest.NewRecorder()
		req := httptest.NewRequest("POST", path+"/check", bytes.NewReader(bodies[b]))
		tr.do("server.handler", 0, i, func() error { srv.ServeHTTP(rec, req); return nil })
		if rec.Code != http.StatusOK {
			return fmt.Errorf("check through the handler: HTTP %d", rec.Code)
		}
		if _, err := checkAnswer(rec.Body.Bytes(), expect[b], true); err != nil {
			l.reject("check through the handler: %v", err)
		}

		batch := relation.New(gen.Schema())
		batch.Rows = cands[b]
		var got []detect.CheckResult
		if err := tr.do("detect.check", 0, i, func() error {
			var err error
			got, err = twin.det.Check(batch)
			return err
		}); err != nil {
			return err
		}
		for j, v := range got {
			if (verdict{v.SV, v.MV}) != expect[b][j] {
				l.reject("Detector.Check body %d tuple %d: got %+v, oracle %+v", b, j, v, expect[b][j])
			}
		}
		return nil
	})
	twin.close()
	stop()
	if err != nil {
		return nil, err
	}
	rt := sortedCopy(tr.ms("server.roundtrip"))
	l.m["server.roundtrip_ms"] = percentile(rt, 0.5)
	l.m["server.p99_ms"] = percentile(rt, 0.99)
	l.m["server.max_ms"] = rt[len(rt)-1]
	l.setMS("server.handler_ms", "server.handler")
	l.setMS("detect.check_ms", "detect.check")
	l.m["server.elapsed_field_ms"] = median(elapsed)
	l.m["server.http_overhead_ms"] = l.m["server.roundtrip_ms"] - l.m["server.handler_ms"]
	l.m["server.handler_overhead_ms"] = l.m["server.handler_ms"] - l.m["detect.check_ms"]

	// Reads beside the paced writer, split by kind.
	inst, err := setupServe(l.cfg, true)
	if err != nil {
		return nil, err
	}
	mixed := inst.(*serveInstance)
	defer mixed.close()
	if err := mixed.prepare(); err != nil {
		return nil, err
	}
	mixed.run(seconds(min(l.cfg.warm, 1)), nil)
	win := mixed.run(l.share(0.18), nil)
	if err := mixed.verify(); err != nil {
		l.reject("serve_mixed_10k stream: %v", err)
	}
	pages := latencies(win.samples, func(s sample) bool { return s.kind == opPage })
	var pageMS float64
	for _, p := range pages {
		pageMS += p
	}
	l.m["server.check_under_write_ms"] = median(latencies(win.samples, func(s sample) bool { return s.kind == opMain }))
	l.m["server.page_under_write_ms"] = median(pages)
	l.m["server.page_rows_per_s"] = float64(win.pageRows) / (pageMS / 1000)
	l.m["server.write_ms_p50"] = median(latencies(win.writes, nil))
	l.m["server.rejected_ratio"] = float64(win.rejected) / float64(win.attempted)
	l.m["server.deadline_ratio"] = float64(win.deadline) / float64(win.attempted)
	l.m["loadgen.write_lag_ms"] = median(win.lagMS)
	h, err := engineHealth(c, mixed.web.root)
	if err != nil {
		return nil, err
	}
	l.m["server.live_epochs_end"] = float64(h.LiveEpochs)
	return win, nil
}
