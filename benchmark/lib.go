package main

import (
	"database/sql"
	"fmt"
	"sync/atomic"
	"time"

	"ecfd/internal/core"
	"ecfd/internal/detect"
	"ecfd/internal/gen"
	"ecfd/internal/relation"
	"ecfd/internal/sqldb"
	"ecfd/internal/sqldriver"
)

const noise = 5 // percent of generated tuples corrupted

func genConfig(rows int, seed int64) gen.Config {
	return gen.Config{Rows: rows, Noise: noise, Seed: seed}
}

var dsnSeq atomic.Int64

// store is a detector over its own embedded engine, reached through
// database/sql as a production caller would.
type store struct {
	dsn string
	db  *sql.DB
	eng *sqldb.DB
	det *detect.Detector
}

// openStore opens the engine behind dsn and compiles a detector for Σ
// on it; nothing is installed yet.
func openStore(dsn string, sigma []*core.ECFD) (*store, error) {
	db, err := sql.Open(sqldriver.DriverName, dsn)
	if err != nil {
		return nil, err
	}
	eng, err := sqldriver.OpenEngine(dsn)
	if err == nil {
		var det *detect.Detector
		if det, err = detect.New(db, gen.Schema(), sigma); err == nil {
			det.BindEngine(eng)
			return &store{dsn: dsn, db: db, eng: eng, det: det}, nil
		}
	}
	db.Close()
	sqldriver.Unregister(dsn)
	return nil, err
}

func (s *store) close() {
	s.db.Close()
	sqldriver.Unregister(s.dsn)
}

// newStore builds a volatile store with data loaded and the flags
// current: Install, LoadData, first BatchDetect. With a tracer each
// step is a span under parent.
func newStore(data *relation.Relation, sigma []*core.ECFD, tr *tracer, parent int) (*store, error) {
	s, err := openStore(fmt.Sprintf("benchmark_%d", dsnSeq.Add(1)), sigma)
	if err != nil {
		return nil, err
	}
	err = tr.do("detect.install", parent, 0, s.det.Install)
	if err == nil {
		err = tr.do("detect.load", parent, 0, func() error { _, err := s.det.LoadData(data); return err })
	}
	if err == nil {
		err = tr.do("detect.first_batch", parent, 0, func() error { _, err := s.det.BatchDetect(); return err })
	}
	if err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// libInstance is batch_40k and inc_40k: one goroutine calling the
// detector in a closed loop.
type libInstance struct {
	inc   bool
	sigma []*core.ECFD
	st    *store
	deltaStream
	want        []violation
	refAllocPer float64
}

// deltaStream draws the update sequence of the write workloads and
// mirrors what the table holds after each accepted update.
type deltaStream struct {
	gcfg  gen.Config
	live  []liveRow // the data table, ascending RID
	batch int64     // update batches drawn so far
}

// next draws an update of n fresh tuples and the n oldest live RIDs,
// so |D| stays constant.
func (s *deltaStream) next(n int) (*relation.Relation, []int64) {
	ins := gen.Updates(s.gcfg, n, s.batch)
	s.batch++
	del := make([]int64, n)
	for i := range del {
		del[i] = s.live[i].rid
	}
	return ins, del
}

// applied moves the mirror past an update the system accepted; the
// inserted tuples got RIDs firstRID, firstRID+1, ...
func (s *deltaStream) applied(ins *relation.Relation, firstRID int64) {
	s.live = s.live[len(ins.Rows):]
	for i, t := range ins.Rows {
		s.live = append(s.live, liveRow{rid: firstRID + int64(i), t: t})
	}
}

// applyTo runs the next update of n+n tuples through ApplyUpdates.
func (s *deltaStream) applyTo(det *detect.Detector, n int) error {
	ins, del := s.next(n)
	rids, _, err := det.ApplyUpdates(ins, del)
	if err != nil {
		return err
	}
	if len(rids) != n {
		return fmt.Errorf("ApplyUpdates assigned %d RIDs for %d tuples", len(rids), n)
	}
	s.applied(ins, rids[0])
	return nil
}

// setupLib is the cold set-up: generate, open the engine, Install,
// LoadData, first BatchDetect — after it the first op can be served.
func setupLib(cfg runConfig, inc bool) (instance, error) {
	gcfg := genConfig(cfg.rows(batchRows), cfg.seed)
	data := gen.Dataset(gcfg)
	sigma := gen.Constraints()
	st, err := newStore(data, sigma, nil, 0)
	if err != nil {
		return nil, err
	}
	return &libInstance{inc: inc, sigma: sigma, st: st,
		deltaStream: deltaStream{gcfg: gcfg, live: mirrorOf(data)}}, nil
}

func (l *libInstance) prepare() error {
	l.refAllocPer = allocPer(refKernel)
	var err error
	l.want, err = expectViolations(l.live, l.sigma)
	return err
}

func (l *libInstance) close() { l.st.close() }

func (l *libInstance) run(d time.Duration, tr *tracer) *window {
	w := &window{clients: 1, refNominalMS: refKernelNominalMS, refAllocPer: l.refAllocPer}
	start := time.Now()
	for i := int64(0); time.Since(start) < d; i++ {
		w.ref.time(refKernel) // beside every op, outside its clock
		traced := tr != nil && i%2 == 0
		var optr *tracer
		if traced {
			optr = tr
		}
		var err error
		var lat time.Duration
		if l.inc {
			ins, del := l.next(deltaRows) // drawn before the clock starts
			var rids []int64
			t0 := time.Now()
			id := optr.start("op.apply_updates", 0, i)
			rids, _, err = l.st.det.ApplyUpdates(ins, del)
			optr.end(id)
			lat = time.Since(t0)
			if err == nil && len(rids) != len(ins.Rows) {
				err = fmt.Errorf("ApplyUpdates assigned %d RIDs for %d tuples", len(rids), len(ins.Rows))
			}
			if err == nil {
				l.applied(ins, rids[0])
			}
		} else {
			var bs detect.BatchStats
			t0 := time.Now()
			id := optr.start("op.batch_detect", 0, i)
			bs, err = l.st.det.BatchDetect()
			optr.end(id)
			lat = time.Since(t0)
			if err == nil && bs.Total != int64(len(l.want)) {
				err = fmt.Errorf("BatchDetect counted %d violations, oracle %d", bs.Total, len(l.want))
			}
		}
		w.attempted++
		if err != nil {
			w.failed++
			fmt.Printf("op %d failed: %v\n", i, err)
			continue
		}
		w.samples = append(w.samples, sample{at: time.Since(start).Seconds(), ms: ms(lat), traced: traced})
	}
	w.seconds = time.Since(start).Seconds()
	return w
}

// verify holds Violations() against the naive oracle on the mirror,
// (RID, SV, MV) byte for byte.
func (l *libInstance) verify() error {
	want := l.want
	if l.inc {
		var err error
		if want, err = expectViolations(l.live, l.sigma); err != nil {
			return err
		}
	}
	rel, err := l.st.det.Violations()
	if err != nil {
		return err
	}
	return sameViolations(violationsOf(rel), want)
}

func sameViolations(got, want []violation) error {
	g, w := renderViolations(got), renderViolations(want)
	if g != w {
		return fmt.Errorf("violation set differs from the naive oracle: got %d rows, want %d", len(got), len(want))
	}
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
