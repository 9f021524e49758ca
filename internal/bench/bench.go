// Package bench regenerates the paper's experimental study (§VI): one
// runner per figure, each producing the same series the paper plots.
// Absolute times differ from the 2008 Apple Xserve + commercial DBMS
// testbed; the shapes — linear scaling in |D| and |Tp|, incremental
// beating batch for reasonably-sized updates, the crossover near 50 %
// updates — are what EXPERIMENTS.md tracks.
package bench

import (
	"database/sql"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"strconv"
	"sync/atomic"

	"ecfd/internal/core"
	"ecfd/internal/detect"
	"ecfd/internal/gen"
	"ecfd/internal/sqldriver"
)

// Options scales and seeds an experiment run. Scale 1.0 is paper scale
// (|D| up to 100k); the CLI defaults lower so a full suite finishes in
// minutes on a laptop.
type Options struct {
	Scale float64
	Seed  int64
}

func (o Options) scale(n int) int {
	if o.Scale <= 0 {
		o.Scale = 1
	}
	v := int(float64(n) * o.Scale)
	if v < 10 {
		v = 10
	}
	return v
}

// Point is one x position of a figure with one y value per series.
type Point struct {
	X      string             `json:"x"`
	Series map[string]float64 `json:"series"`
}

// Figure is a regenerated table/graph.
type Figure struct {
	ID     string   `json:"id"`
	Title  string   `json:"title"`
	XLabel string   `json:"xlabel"`
	YLabel string   `json:"ylabel"`
	Names  []string `json:"names"` // series order
	Points []Point  `json:"points"`
}

// Report is the machine-readable form of a run: the series of every
// regenerated figure, for plotting against the paper's.
type Report struct {
	Scale   float64   `json:"scale"`
	Seed    int64     `json:"seed"`
	Figures []*Figure `json:"figures"`
}

// WriteJSON emits the report as indented JSON.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// Print renders the figure as an aligned table.
func (f *Figure) Print(w io.Writer) {
	fmt.Fprintf(w, "Fig. %s — %s\n", f.ID, f.Title)
	fmt.Fprintf(w, "%-14s", f.XLabel)
	for _, n := range f.Names {
		fmt.Fprintf(w, "  %14s", n)
	}
	fmt.Fprintln(w)
	for _, p := range f.Points {
		fmt.Fprintf(w, "%-14s", p.X)
		for _, n := range f.Names {
			fmt.Fprintf(w, "  %14.3f", p.Series[n])
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "(%s)\n\n", f.YLabel)
}

// Runners maps figure ids to their runners.
var Runners = map[string]func(Options) (*Figure, error){
	"5a": Fig5a, "5b": Fig5b, "5c": Fig5c,
	"6a": Fig6a, "6b": Fig6b, "6c": Fig6c,
	"7a": Fig7a, "7b": Fig7b,
}

// FigureIDs lists the runnable figures in paper order.
func FigureIDs() []string {
	ids := make([]string, 0, len(Runners))
	for id := range Runners {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Run regenerates one figure by id.
func Run(id string, opt Options) (*Figure, error) {
	r, ok := Runners[id]
	if !ok {
		return nil, fmt.Errorf("bench: unknown figure %q (have %v)", id, FigureIDs())
	}
	return r(opt)
}

var dsnSeq atomic.Int64

// setup builds a detector over a fresh in-memory database loaded with
// a generated dataset, and returns it with the assigned RIDs.
func setup(sigma []*core.ECFD, cfg gen.Config) (*detect.Detector, []int64, func(), error) {
	dsn := fmt.Sprintf("bench_%d", dsnSeq.Add(1))
	db, err := sql.Open(sqldriver.DriverName, dsn)
	if err != nil {
		return nil, nil, nil, err
	}
	cleanup := func() {
		db.Close()
		sqldriver.Unregister(dsn)
	}
	d, err := detect.New(db, gen.Schema(), sigma)
	if err != nil {
		cleanup()
		return nil, nil, nil, err
	}
	if err := d.Install(); err != nil {
		cleanup()
		return nil, nil, nil, err
	}
	rids, err := d.LoadData(gen.Dataset(cfg))
	if err != nil {
		cleanup()
		return nil, nil, nil, err
	}
	return d, rids, cleanup, nil
}

// Fig5a — BatchDetect scalability in |D| (10k–100k, noise 5 %, base Σ).
func Fig5a(opt Options) (*Figure, error) {
	f := &Figure{ID: "5a", Title: "BATCHDETECT scalability in |D|",
		XLabel: "|D|", YLabel: "seconds", Names: []string{"batch"}}
	for _, rows := range sweep(opt, 10_000, 100_000, 10_000) {
		d, _, cleanup, err := setup(gen.Constraints(), gen.Config{Rows: rows, Noise: 5, Seed: opt.Seed})
		if err != nil {
			return nil, err
		}
		st, err := d.BatchDetect()
		cleanup()
		if err != nil {
			return nil, err
		}
		f.Points = append(f.Points, Point{X: fmt.Sprint(rows),
			Series: map[string]float64{"batch": st.Elapsed.Seconds()}})
	}
	return f, nil
}

// Fig5b — BatchDetect scalability in noise% (|D| 100k).
func Fig5b(opt Options) (*Figure, error) {
	f := &Figure{ID: "5b", Title: "BATCHDETECT scalability in noise",
		XLabel: "noise%", YLabel: "seconds", Names: []string{"batch"}}
	rows := opt.scale(100_000)
	for noise := 0; noise <= 9; noise++ {
		d, _, cleanup, err := setup(gen.Constraints(), gen.Config{Rows: rows, Noise: float64(noise), Seed: opt.Seed})
		if err != nil {
			return nil, err
		}
		st, err := d.BatchDetect()
		cleanup()
		if err != nil {
			return nil, err
		}
		f.Points = append(f.Points, Point{X: fmt.Sprint(noise),
			Series: map[string]float64{"batch": st.Elapsed.Seconds()}})
	}
	return f, nil
}

// Fig5c — BatchDetect scalability in |Tp| (50–500, |D| 100k, noise 5 %).
func Fig5c(opt Options) (*Figure, error) {
	f := &Figure{ID: "5c", Title: "BATCHDETECT scalability in |Tp|",
		XLabel: "|Tp|", YLabel: "seconds", Names: []string{"batch"}}
	rows := opt.scale(100_000)
	for tp := 50; tp <= 500; tp += 50 {
		d, _, cleanup, err := setup(gen.ConstraintsScaled(tp, opt.Seed),
			gen.Config{Rows: rows, Noise: 5, Seed: opt.Seed})
		if err != nil {
			return nil, err
		}
		st, err := d.BatchDetect()
		cleanup()
		if err != nil {
			return nil, err
		}
		f.Points = append(f.Points, Point{X: fmt.Sprint(tp),
			Series: map[string]float64{"batch": st.Elapsed.Seconds()}})
	}
	return f, nil
}

// incVsBatch measures, for one configuration, the four §VI Experiment-2
// series: incremental and batch response to an insertion batch and to a
// deletion batch (ΔD⁺ and ΔD⁻ of equal size).
func incVsBatch(sigma []*core.ECFD, cfg gen.Config, delta int, opt Options) (map[string]float64, error) {
	out := make(map[string]float64)

	// Insertions, incremental.
	d, _, cleanup, err := setup(sigma, cfg)
	if err != nil {
		return nil, err
	}
	if _, err := d.BatchDetect(); err != nil {
		cleanup()
		return nil, err
	}
	batch := gen.Updates(cfg, delta, 0)
	_, st, err := d.InsertTuples(batch)
	cleanup()
	if err != nil {
		return nil, err
	}
	out["inc-ins"] = st.Elapsed.Seconds()

	// Insertions, batch recomputation.
	d, _, cleanup, err = setup(sigma, cfg)
	if err != nil {
		return nil, err
	}
	if _, err := d.InsertRaw(batch); err != nil {
		cleanup()
		return nil, err
	}
	bst, err := d.BatchDetect()
	cleanup()
	if err != nil {
		return nil, err
	}
	out["batch-ins"] = bst.Elapsed.Seconds()

	// Deletions, incremental.
	d, rids, cleanup, err := setup(sigma, cfg)
	if err != nil {
		return nil, err
	}
	if _, err := d.BatchDetect(); err != nil {
		cleanup()
		return nil, err
	}
	rng := rand.New(rand.NewSource(opt.Seed))
	doomed := gen.DeleteSample(rng, rids, delta)
	ist, err := d.DeleteTuples(doomed)
	cleanup()
	if err != nil {
		return nil, err
	}
	out["inc-del"] = ist.Elapsed.Seconds()

	// Deletions, batch recomputation.
	d, _, cleanup, err = setup(sigma, cfg)
	if err != nil {
		return nil, err
	}
	if err := d.DeleteRaw(doomed); err != nil {
		cleanup()
		return nil, err
	}
	bst, err = d.BatchDetect()
	cleanup()
	if err != nil {
		return nil, err
	}
	out["batch-del"] = bst.Elapsed.Seconds()
	return out, nil
}

var incSeries = []string{"inc-ins", "batch-ins", "inc-del", "batch-del"}

// incTitle is the title of Fig. 6(a)–(c): the update size ΔD they hold
// fixed, 10k at paper scale, as opt scales it.
func incTitle(by string, opt Options) string {
	return fmt.Sprintf("INCDETECT vs BATCHDETECT in %s (ΔD = %s)", by, sized(opt.scale(10_000)))
}

// updateTitle is the title of Fig. 7(a): the data size |D| it holds
// fixed, 100k at paper scale, as opt scales it.
func updateTitle(opt Options) string {
	return fmt.Sprintf("Effect of update size (|D| = %s fixed)", sized(opt.scale(100_000)))
}

// sized renders a tuple count as the titles print it: 10k, 1.5k, 100.
func sized(n int) string {
	if n < 1000 {
		return fmt.Sprint(n)
	}
	return strconv.FormatFloat(float64(n)/1000, 'f', -1, 64) + "k"
}

// Fig6a — incremental vs batch across |D|, ΔD⁺ = ΔD⁻ = 10k.
func Fig6a(opt Options) (*Figure, error) {
	f := &Figure{ID: "6a", Title: incTitle("|D|", opt),
		XLabel: "|D|", YLabel: "seconds", Names: incSeries}
	delta := opt.scale(10_000)
	for _, rows := range sweep(opt, 10_000, 100_000, 10_000) {
		series, err := incVsBatch(gen.Constraints(),
			gen.Config{Rows: rows, Noise: 5, Seed: opt.Seed}, min(delta, rows), opt)
		if err != nil {
			return nil, err
		}
		f.Points = append(f.Points, Point{X: fmt.Sprint(rows), Series: series})
	}
	return f, nil
}

// Fig6b — incremental vs batch across noise%, |D| = 100k.
func Fig6b(opt Options) (*Figure, error) {
	f := &Figure{ID: "6b", Title: incTitle("noise", opt),
		XLabel: "noise%", YLabel: "seconds", Names: incSeries}
	rows := opt.scale(100_000)
	delta := opt.scale(10_000)
	for noise := 0; noise <= 9; noise++ {
		series, err := incVsBatch(gen.Constraints(),
			gen.Config{Rows: rows, Noise: float64(noise), Seed: opt.Seed}, delta, opt)
		if err != nil {
			return nil, err
		}
		f.Points = append(f.Points, Point{X: fmt.Sprint(noise), Series: series})
	}
	return f, nil
}

// Fig6c — incremental vs batch across |Tp|, |D| = 100k.
func Fig6c(opt Options) (*Figure, error) {
	f := &Figure{ID: "6c", Title: incTitle("|Tp|", opt),
		XLabel: "|Tp|", YLabel: "seconds", Names: incSeries}
	rows := opt.scale(100_000)
	delta := opt.scale(10_000)
	for tp := 50; tp <= 500; tp += 50 {
		series, err := incVsBatch(gen.ConstraintsScaled(tp, opt.Seed),
			gen.Config{Rows: rows, Noise: 5, Seed: opt.Seed}, delta, opt)
		if err != nil {
			return nil, err
		}
		f.Points = append(f.Points, Point{X: fmt.Sprint(tp), Series: series})
	}
	return f, nil
}

// deltaSweep lists the paper's Fig. 7 |ΔD| values: 2k–12k step 2k, then
// 20k–60k step 20k.
func deltaSweep(opt Options) []int {
	var out []int
	for d := 2_000; d <= 12_000; d += 2_000 {
		out = append(out, opt.scale(d))
	}
	for d := 20_000; d <= 60_000; d += 20_000 {
		out = append(out, opt.scale(d))
	}
	return out
}

// Fig7a — incremental vs batch across |ΔD| with |D| = 100k held fixed
// (equal numbers of deletions and insertions). The paper's observation:
// IncDetect wins until roughly half the data is updated.
func Fig7a(opt Options) (*Figure, error) {
	f := &Figure{ID: "7a", Title: updateTitle(opt),
		XLabel: "|ΔD|", YLabel: "seconds", Names: []string{"inc", "batch"}}
	rows := opt.scale(100_000)
	cfg := gen.Config{Rows: rows, Noise: 5, Seed: opt.Seed}
	for _, delta := range deltaSweep(opt) {
		if delta > rows {
			delta = rows
		}
		// Incremental: delete then insert the same number of tuples.
		d, rids, cleanup, err := setup(gen.Constraints(), cfg)
		if err != nil {
			return nil, err
		}
		if _, err := d.BatchDetect(); err != nil {
			cleanup()
			return nil, err
		}
		rng := rand.New(rand.NewSource(opt.Seed))
		doomed := gen.DeleteSample(rng, rids, delta)
		batch := gen.Updates(cfg, delta, 1)
		_, ust, err := d.ApplyUpdates(batch, doomed)
		cleanup()
		if err != nil {
			return nil, err
		}
		incSecs := ust.Elapsed.Seconds()

		// Batch: apply the same updates raw, then recompute.
		d, _, cleanup, err = setup(gen.Constraints(), cfg)
		if err != nil {
			return nil, err
		}
		if err := d.DeleteRaw(doomed); err != nil {
			cleanup()
			return nil, err
		}
		if _, err := d.InsertRaw(batch); err != nil {
			cleanup()
			return nil, err
		}
		bst, err := d.BatchDetect()
		cleanup()
		if err != nil {
			return nil, err
		}
		f.Points = append(f.Points, Point{X: fmt.Sprint(delta), Series: map[string]float64{
			"inc": incSecs, "batch": bst.Elapsed.Seconds()}})
	}
	return f, nil
}

// Fig7b — the number of violation *changes* across |ΔD| (the paper's
// caption: "Effect on number of violation changes"): DSV counts rows
// whose SV flag flipped (including flagged rows that were deleted and
// flagged rows that arrived), DMV likewise for MV. DSV grows linearly
// with the update size; DMV grows much faster for large updates as
// whole embedded-FD groups flip — which is exactly why BATCHDETECT
// overtakes INCDETECT there.
func Fig7b(opt Options) (*Figure, error) {
	f := &Figure{ID: "7b", Title: "Violation changes with update size",
		XLabel: "|ΔD|", YLabel: "changed tuples", Names: []string{"DSV", "DMV"}}
	rows := opt.scale(100_000)
	cfg := gen.Config{Rows: rows, Noise: 5, Seed: opt.Seed}
	for _, delta := range deltaSweep(opt) {
		if delta > rows {
			delta = rows
		}
		d, rids, cleanup, err := setup(gen.Constraints(), cfg)
		if err != nil {
			return nil, err
		}
		if _, err := d.BatchDetect(); err != nil {
			cleanup()
			return nil, err
		}
		before, err := d.FlagsByRID()
		if err != nil {
			cleanup()
			return nil, err
		}
		rng := rand.New(rand.NewSource(opt.Seed))
		doomed := gen.DeleteSample(rng, rids, delta)
		if _, err := d.DeleteTuples(doomed); err != nil {
			cleanup()
			return nil, err
		}
		if _, _, err := d.InsertTuples(gen.Updates(cfg, delta, 1)); err != nil {
			cleanup()
			return nil, err
		}
		after, err := d.FlagsByRID()
		cleanup()
		if err != nil {
			return nil, err
		}
		var dsv, dmv float64
		for rid, b := range before {
			a := after[rid] // zero value for deleted rows
			if a[0] != b[0] {
				dsv++
			}
			if a[1] != b[1] {
				dmv++
			}
		}
		for rid, a := range after {
			if _, existed := before[rid]; existed {
				continue
			}
			if a[0] {
				dsv++
			}
			if a[1] {
				dmv++
			}
		}
		f.Points = append(f.Points, Point{X: fmt.Sprint(delta), Series: map[string]float64{
			"DSV": dsv, "DMV": dmv}})
	}
	return f, nil
}

func sweep(opt Options, from, to, step int) []int {
	var out []int
	for v := from; v <= to; v += step {
		out = append(out, opt.scale(v))
	}
	return out
}
