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

// TestRunUnknownFigure: an id outside the paper's eight is refused
// with the list of the figures there are.
func TestRunUnknownFigure(t *testing.T) {
	for _, id := range []string{"9z", "par"} {
		_, err := Run(id, tinyOpts)
		if err == nil {
			t.Fatalf("figure %q must error", id)
		}
		if want := "[5a 5b 5c 6a 6b 6c 7a 7b]"; !strings.Contains(err.Error(), want) {
			t.Errorf("figure %q: error %q does not name %s", id, err, want)
		}
	}
}

func TestFigureIDs(t *testing.T) {
	ids := FigureIDs()
	want := []string{"5a", "5b", "5c", "6a", "6b", "6c", "7a", "7b"}
	if strings.Join(ids, ",") != strings.Join(want, ",") {
		t.Errorf("FigureIDs = %v", ids)
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

// TestTitlesFollowScale: the sizes Fig. 6(a)–(c) and 7(a) hold fixed are
// printed as scaled, not at paper scale.
func TestTitlesFollowScale(t *testing.T) {
	for _, c := range []struct {
		scale       float64
		delta, rows string
	}{{0.1, "ΔD = 1k)", "|D| = 10k fixed"}, {1, "ΔD = 10k)", "|D| = 100k fixed"}, {0.015, "ΔD = 150)", "|D| = 1.5k fixed"}} {
		opt := Options{Scale: c.scale, Seed: 1}
		if got := incTitle("|D|", opt); !strings.HasSuffix(got, c.delta) {
			t.Errorf("scale %g: Fig. 6 title %q, want it to end %q", c.scale, got, c.delta)
		}
		if got := updateTitle(opt); !strings.Contains(got, c.rows) {
			t.Errorf("scale %g: Fig. 7(a) title %q, want %q", c.scale, got, c.rows)
		}
	}
}
