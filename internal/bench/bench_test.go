package bench

import (
	"bytes"
	"sort"
	"strings"
	"testing"
	"time"

	"ecfd/internal/gen"
)

// tinyOpts keeps unit-test runs fast: ~1% of paper scale.
var tinyOpts = Options{Scale: 0.01, Seed: 1}

func TestRunUnknownFigure(t *testing.T) {
	if _, err := Run("9z", tinyOpts); err == nil {
		t.Error("unknown figure must error")
	}
}

func TestFigureIDs(t *testing.T) {
	ids := FigureIDs()
	want := []string{"5a", "5b", "5c", "6a", "6b", "6c", "7a", "7b", "mixed", "par", "server", "shard", "wal"}
	if strings.Join(ids, ",") != strings.Join(want, ",") {
		t.Errorf("FigureIDs = %v", ids)
	}
}

// TestFigParShape checks the parallel-scaling figure: four worker
// counts, positive times, speedup anchored at 1.0 for one worker.
func TestFigParShape(t *testing.T) {
	f, err := Run("par", tinyOpts)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Points) != 4 {
		t.Fatalf("Fig par has %d points, want 4", len(f.Points))
	}
	for _, p := range f.Points {
		if p.Series["parallel"] <= 0 || p.Series["batch"] <= 0 {
			t.Errorf("point %s: non-positive time", p.X)
		}
	}
	if s := f.Points[0].Series["speedup"]; s != 1.0 {
		t.Errorf("one-worker speedup = %v, want 1.0", s)
	}
}

// TestFigShardShape checks the shard-scaling figure: four shard
// counts, positive times, speedups relative to one serial baseline.
func TestFigShardShape(t *testing.T) {
	f, err := Run("shard", tinyOpts)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Points) != 4 {
		t.Fatalf("Fig shard has %d points, want 4", len(f.Points))
	}
	for _, p := range f.Points {
		if p.Series["sharded"] <= 0 || p.Series["batch"] <= 0 || p.Series["speedup"] <= 0 {
			t.Errorf("point %s: non-positive series", p.X)
		}
	}
}

// TestFigWithWorkers runs a batch figure through the parallel
// detector to cover the Options.Workers plumbing.
func TestFigWithWorkers(t *testing.T) {
	opt := tinyOpts
	opt.Workers = 2
	f, err := Run("5a", opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range f.Points {
		if p.Series["batch"] <= 0 {
			t.Errorf("point %s: non-positive time", p.X)
		}
	}
}

func TestFig5aShape(t *testing.T) {
	// The first detection in a process pays the cold start (page faults,
	// the first GC cycles), which at this scale outweighs a tenfold |D|:
	// one run is discarded, and each point is the median of three, so the
	// growth assertion is about |D|.
	if _, err := Run("5a", tinyOpts); err != nil {
		t.Fatal(err)
	}
	var batch [10][]float64
	for run := 0; run < 3; run++ {
		f, err := Run("5a", tinyOpts)
		if err != nil {
			t.Fatal(err)
		}
		if len(f.Points) != 10 {
			t.Fatalf("Fig 5a has %d points, want 10", len(f.Points))
		}
		for i, p := range f.Points {
			if p.Series["batch"] <= 0 {
				t.Errorf("point %s: non-positive time", p.X)
			}
			batch[i] = append(batch[i], p.Series["batch"])
		}
	}
	median := func(xs []float64) float64 {
		sort.Float64s(xs)
		return xs[len(xs)/2]
	}
	// Monotone-ish: the largest |D| should cost more than the smallest.
	if small, large := median(batch[0]), median(batch[9]); large <= small*0.8 {
		t.Errorf("batch time should grow with |D|: %v vs %v", small, large)
	}
}

func TestFig7bCounts(t *testing.T) {
	f, err := Run("7b", tinyOpts)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Points) != 9 {
		t.Fatalf("Fig 7b has %d points, want 9 (2k–12k + 20k–60k)", len(f.Points))
	}
	last := f.Points[len(f.Points)-1]
	first := f.Points[0]
	if last.Series["DSV"] < first.Series["DSV"] {
		t.Errorf("DSV should grow with |ΔD|: %v → %v", first.Series, last.Series)
	}
}

func TestIncVsBatchProducesAllSeries(t *testing.T) {
	f, err := Run("6a", Options{Scale: 0.005, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range f.Points {
		for _, name := range incSeries {
			if _, ok := p.Series[name]; !ok {
				t.Fatalf("point %s missing series %s", p.X, name)
			}
		}
	}
}

func TestPrint(t *testing.T) {
	f := &Figure{ID: "x", Title: "t", XLabel: "X", YLabel: "s",
		Names:  []string{"a"},
		Points: []Point{{X: "1", Series: map[string]float64{"a": 0.5}}}}
	var buf bytes.Buffer
	f.Print(&buf)
	out := buf.String()
	for _, frag := range []string{"Fig. x", "X", "a", "0.500"} {
		if !strings.Contains(out, frag) {
			t.Errorf("Print output missing %q:\n%s", frag, out)
		}
	}
}

// TestFigWALShape checks the durable-ingest figure: one point per
// durability configuration (positive load and detect times), then one
// concurrent-ingest point per writer count (positive wall time) under
// fsync=always group commit.
func TestFigWALShape(t *testing.T) {
	f, err := Run("wal", tinyOpts)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Points) != 7 {
		t.Fatalf("Fig wal has %d points, want 4 configs + 3 ingest", len(f.Points))
	}
	for _, p := range f.Points[:4] {
		if p.Series["load"] <= 0 || p.Series["batch"] <= 0 {
			t.Errorf("point %s: non-positive time", p.X)
		}
	}
	for _, p := range f.Points[4:] {
		if p.Series["ingest"] <= 0 {
			t.Errorf("point %s: non-positive ingest time", p.X)
		}
	}
}

// TestFigMixedShape checks the reader-latency figure: a read-only
// baseline point and a mixed point, positive latencies, and a writer
// that actually wrote.
func TestFigMixedShape(t *testing.T) {
	f, err := Run("mixed", tinyOpts)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Points) != 2 {
		t.Fatalf("Fig mixed has %d points, want 2", len(f.Points))
	}
	ro, mixed := f.Points[0], f.Points[1]
	if ro.X != "read-only" || mixed.X != "mixed" {
		t.Fatalf("unexpected point order: %s, %s", ro.X, mixed.X)
	}
	for _, p := range f.Points {
		if p.Series["p50"] <= 0 || p.Series["p99"] < p.Series["p50"] {
			t.Errorf("point %s: implausible latencies %+v", p.X, p.Series)
		}
	}
	if mixed.Series["writer_rows_s"] <= 0 {
		t.Error("mixed point: writer made no progress")
	}
}

// TestFig7IncrementalBeatsBatch asserts the shape of the paper's
// Fig. 7 rather than plotting it: for a small ΔD (8 insertions and 8
// deletions against 20 000 tuples), maintaining the flags incrementally
// costs well under half of detecting from scratch. Medians of five
// interleaved runs, so a slow phase of the host hits both sides.
func TestFig7IncrementalBeatsBatch(t *testing.T) {
	cfg := gen.Config{Rows: 20000, Noise: 5, Seed: 1}
	d, live, cleanup, err := setup(gen.Constraints(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cleanup()
	if _, err := d.BatchDetect(); err != nil {
		t.Fatal(err)
	}
	const runs, delta = 5, 8
	var batch, inc []time.Duration
	for i := 0; i < runs; i++ {
		start := time.Now()
		if _, err := d.BatchDetect(); err != nil {
			t.Fatal(err)
		}
		batch = append(batch, time.Since(start))

		ins := gen.Updates(cfg, delta, int64(i))
		start = time.Now()
		rids, _, err := d.ApplyUpdates(ins, live[:delta])
		if err != nil {
			t.Fatal(err)
		}
		inc = append(inc, time.Since(start))
		live = append(live[delta:], rids...)
	}
	median := func(ds []time.Duration) time.Duration {
		sort.Slice(ds, func(a, b int) bool { return ds[a] < ds[b] })
		return ds[len(ds)/2]
	}
	mb, mi := median(batch), median(inc)
	t.Logf("BatchDetect %v, ApplyUpdates(%d+%d) %v: ratio %.2f", mb, delta, delta, mi, float64(mi)/float64(mb))
	if 2*mi >= mb {
		t.Errorf("incremental maintenance of a %d+%d update took %v, not under half of BatchDetect's %v", delta, delta, mi, mb)
	}
}
