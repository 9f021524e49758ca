package detect

import (
	"database/sql"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"

	"ecfd/internal/gen"
	"ecfd/internal/sqldb"
	"ecfd/internal/sqldriver"
)

// applyWorkload is the inc_40k unit at any size: a detector with current
// flags over rows generated tuples, and the RIDs it holds, oldest first.
type applyWorkload struct {
	d     *Detector
	live  []int64
	cfg   gen.Config
	batch int64
}

func newApplyWorkload(t *testing.T, rows int) (*applyWorkload, func()) {
	t.Helper()
	d, cleanup := newBenchDetector(t, rows, 611)
	if _, err := d.BatchDetect(); err != nil {
		cleanup()
		t.Fatal(err)
	}
	w := &applyWorkload{d: d, cfg: gen.Config{Rows: rows, Noise: 5, Seed: 611}}
	for rid := int64(1); rid <= int64(rows); rid++ { // LoadData numbers the rows from 1
		w.live = append(w.live, rid)
	}
	return w, cleanup
}

// apply runs the next update: 8 fresh tuples in, the RIDs at the given
// positions of live out.
func (w *applyWorkload) apply(t *testing.T, at ...int) {
	t.Helper()
	del := make([]int64, len(at))
	for i, p := range at {
		del[i] = w.live[p]
	}
	rids, _, err := w.d.ApplyUpdates(gen.Updates(w.cfg, 8, w.batch), del)
	if err != nil {
		t.Fatal(err)
	}
	w.batch++
	for i := len(at) - 1; i >= 0; i-- { // at ascends
		w.live = slices.Delete(w.live, at[i], at[i]+1)
	}
	w.live = append(w.live, rids...)
}

// TestDeleteCopiesTouchedSegmentsOnly states the DML half of "work
// independent of |D|" in cells, which no host moves: the same 8+8
// ApplyUpdates makes the engine write the same number of cells
// (sqldb.Stats.CellsCopied: index positions and column-segment cells)
// whether the table holds 10 000, 40 000 or 160 000 rows — within one
// segment of every column, for what differs in how full the touched
// segments are — both when the eight deleted rows are the oldest (one
// segment, what the benchmark does) and when they are spread over the
// table (eight segments at most). The spread deletes compact the
// segments they touch, so their column-segment share (SegCellsCopied)
// must be counted, or the counter is not wired; deleting the oldest rows
// leaves one run of the head segment, which the new segment cuts from the
// old vectors without a copy. While the rows were one array beside the
// segments, and the RID index an array of positions, every update copied
// both whole.
func TestDeleteCopiesTouchedSegmentsOnly(t *testing.T) {
	const ops = 4
	width := int64(gen.Schema().Width() + 3) // RID, the attributes, SV, MV
	segment := int64(1024) * (width + 1)     // sqldb's segRows, in cells of every column and index positions
	var head, spread []int64                 // per size, cells per op
	sizes := []int{10_000, 40_000, 160_000}
	for _, rows := range sizes {
		w, cleanup := newApplyWorkload(t, rows)
		measure := func(at func(i int) int, compacts bool) int64 {
			t.Helper()
			var all int64
			for op := 0; op < ops+2; op++ {
				var pos [8]int
				for i := range pos {
					pos[i] = at(i)
				}
				before := w.d.eng.Stats()
				w.apply(t, pos[:]...)
				after := w.d.eng.Stats()
				if op < 2 {
					continue // the first updates build what the statements read
				}
				all += after.CellsCopied - before.CellsCopied
				if compacts && after.SegCellsCopied == before.SegCellsCopied {
					t.Errorf("%d rows: an update copied no column-segment cell", rows)
				}
			}
			return all / ops
		}
		head = append(head, measure(func(i int) int { return i }, false))
		spread = append(spread, measure(func(i int) int { return rows/8*i + rows/16 }, true))
		cleanup()
	}
	t.Logf("cells per 8+8 update at %v rows: oldest RIDs %v, spread RIDs %v (one segment of rows and every column: %d)", sizes, head, spread, segment)
	for i, rows := range sizes {
		if diff := head[i] - head[1]; diff > segment || -diff > segment {
			t.Errorf("deleting the oldest RIDs of %d rows copies %d cells, of %d rows %d: more than a segment (%d) apart",
				rows, head[i], sizes[1], head[1], segment)
		}
		if spread[i] > 8*segment {
			t.Errorf("deleting 8 RIDs spread over %d rows copies %d cells, more than 8 segments (%d)", rows, spread[i], 8*segment)
		}
		if diff := spread[i] - spread[1]; diff > segment || -diff > segment {
			t.Errorf("deleting spread RIDs of %d rows copies %d cells, of %d rows %d: more than a segment (%d) apart",
				rows, spread[i], sizes[1], spread[1], segment)
		}
	}
}

// TestApplyUpdatesAllocBudget keeps the gain where every run sees it, not
// only the benchmark's: a warm 8+8 ApplyUpdates allocates at most 512 kB,
// on 40 000 rows and on 160 000. It was 15.6 MB at 40 000 while a DELETE
// copied every built column vector whole, and 1.6 MB while it still copied
// the row array and the RID index's positions. Not parallel: TotalAlloc
// is the process's.
func TestApplyUpdatesAllocBudget(t *testing.T) {
	const ops, budget = 50, 512 << 10
	for _, rows := range []int{40_000, 160_000} {
		w, cleanup := newApplyWorkload(t, rows)
		for i := 0; i < 3; i++ {
			w.apply(t, 0, 1, 2, 3, 4, 5, 6, 7)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < ops; i++ {
			w.apply(t, 0, 1, 2, 3, 4, 5, 6, 7)
		}
		runtime.ReadMemStats(&after)
		cleanup()
		perOp := (after.TotalAlloc - before.TotalAlloc) / ops
		t.Logf("%d rows: %d kB allocated per update", rows, perOp>>10)
		if perOp > budget {
			t.Errorf("%d bytes allocated per 8+8 update on %d rows, budget %d", perOp, rows, budget)
		}
	}
}

// TestValueSetsDecideByCode states in counters that the value sets of an
// update decide a segment by its codes, not by hashing every row's
// string. Over a coded segment a set translates its members into codes
// once, so the strings it hashes or compares (sqldb.Stats.TextLookups)
// number about its members per segment, against the rows it decides
// (SetRows) — 76 % of them while every row's string was hashed. At 40 000
// rows a warm 8+8 update stays within 5 %; from 10 000 to 160 000 rows
// the lookups grow no faster than the number of segments.
func TestValueSetsDecideByCode(t *testing.T) {
	const ops = 4
	sizes := []int{10_000, 40_000, 160_000}
	var lookups []int64
	for _, rows := range sizes {
		w, cleanup := newApplyWorkload(t, rows)
		for i := 0; i < 2; i++ {
			w.apply(t, 0, 1, 2, 3, 4, 5, 6, 7)
		}
		before := w.d.eng.Stats()
		for i := 0; i < ops; i++ {
			w.apply(t, 0, 1, 2, 3, 4, 5, 6, 7)
		}
		after := w.d.eng.Stats()
		cleanup()
		set, text := (after.SetRows-before.SetRows)/ops, (after.TextLookups-before.TextLookups)/ops
		t.Logf("%d rows: value sets decide %d rows per update with %d text lookups (%.1f %%)", rows, set, text, 100*float64(text)/float64(set))
		if set < int64(rows) {
			t.Fatalf("%d rows: value sets decided %d rows per update, fewer than the table holds: the counter is not wired", rows, set)
		}
		if rows == 40_000 && 20*text > set {
			t.Errorf("%d rows: %d text lookups for %d rows decided by value sets, more than 5 %%", rows, text, set)
		}
		lookups = append(lookups, text)
	}
	segs := func(rows int) int64 { return int64((rows + 1023) / 1024) }
	for i := 1; i < len(sizes); i++ {
		if got, bound := float64(lookups[i])/float64(lookups[0]), float64(segs(sizes[i]))/float64(segs(sizes[0])); got > bound {
			t.Errorf("text lookups grow %.1f× from %d to %d rows, the segments %.1f×", got, sizes[0], sizes[i], bound)
		}
	}
}

// TestPreDedupDecidesByCode states in counters that the Qmv macro's
// DISTINCT pre-filter decides repeats by segment codes instead of building
// a key from every row. A repeat it decides by code alone adds to
// sqldb.Stats.CodeRepeats; every key it still builds adds to DistinctKeys,
// with the few the exact dedup and the grouping behind it hash. At 40 000
// rows a warm 8+8 update decides at least 95 % of its calls by code; from
// 10 000 to 160 000 rows the keys grow no faster than the segments; and a
// repeated BatchDetect decides exactly as many by code again.
func TestPreDedupDecidesByCode(t *testing.T) {
	const ops = 4
	sizes := []int{10_000, 40_000, 160_000}
	var keys []int64
	for _, rows := range sizes {
		w, cleanup := newApplyWorkload(t, rows)
		for i := 0; i < 2; i++ {
			w.apply(t, 0, 1, 2, 3, 4, 5, 6, 7)
		}
		before := w.d.eng.Stats()
		for i := 0; i < ops; i++ {
			w.apply(t, 0, 1, 2, 3, 4, 5, 6, 7)
		}
		after := w.d.eng.Stats()
		var batch [2]int64
		for run := range batch {
			b := w.d.eng.Stats().CodeRepeats
			if _, err := w.d.BatchDetect(); err != nil {
				t.Fatal(err)
			}
			batch[run] = w.d.eng.Stats().CodeRepeats - b
		}
		cleanup()
		code, key := (after.CodeRepeats-before.CodeRepeats)/ops, (after.DistinctKeys-before.DistinctKeys)/ops
		t.Logf("%d rows: an update decides %d repeats by code and hashes %d keys (%.1f %% by code); BatchDetect %d by code",
			rows, code, key, 100*float64(code)/float64(code+key), batch[0])
		if code == 0 || batch[0] == 0 {
			t.Fatalf("%d rows: no repeat decided by code: the counter is not wired", rows)
		}
		if rows == 40_000 && 20*code < 19*(code+key) {
			t.Errorf("%d rows: %d of %d pre-filter decisions by code, fewer than 95 %%", rows, code, code+key)
		}
		if batch[1] != batch[0] {
			t.Errorf("%d rows: BatchDetect decided %d repeats by code, then %d", rows, batch[0], batch[1])
		}
		keys = append(keys, key)
	}
	segs := func(rows int) int64 { return int64((rows + 1023) / 1024) }
	for i := 1; i < len(sizes); i++ {
		if got, bound := float64(keys[i])/float64(keys[0]), float64(segs(sizes[i]))/float64(segs(sizes[0])); got > bound {
			t.Errorf("keys grow %.1f× from %d to %d rows, the segments %.1f×", got, sizes[0], sizes[i], bound)
		}
	}
}

// TestRecomputeStepsFirstOccurrences states in counters that the Aux
// recompute hands the per-row machinery the rows that can add a key, not
// every row its levels select. Stepped alone in a warm 8+8 update at
// 10 000, 40 000 and 160 000 rows, auxRecompute steps
// (sqldb.Stats.RowsStepped) no more rows than it hashes DISTINCT keys and
// forms groups: the pattern rows stepped are fewer than the groups, and
// every data row stepped builds a key. Its repeats, decided by segment
// codes before a row is stepped (CodeRepeats), are still at least 95 % of
// the pre-filter's decisions at 40 000 rows, as TestPreDedupDecidesByCode
// asks of whole updates. While the code memo ran behind stepRow, every
// repeat was stepped too: about 30 times the bound.
func TestRecomputeStepsFirstOccurrences(t *testing.T) {
	const ops = 4
	for _, rows := range []int{10_000, 40_000, 160_000} {
		w, cleanup := newApplyWorkload(t, rows)
		for i := 0; i < 2; i++ {
			w.apply(t, 0, 1, 2, 3, 4, 5, 6, 7)
		}
		var stepped, keys, groups, repeats int64
		for i := 0; i < ops; i++ {
			w.stepApply(t, gen.Updates(w.cfg, 8, w.batch), w.live[:8:8], func(q string, before, after sqldb.Stats) {
				if q == w.d.stmts.auxRecompute {
					stepped += after.RowsStepped - before.RowsStepped
					keys += after.DistinctKeys - before.DistinctKeys
					groups += after.Groups - before.Groups
					repeats += after.CodeRepeats - before.CodeRepeats
				}
			})
			w.batch++
		}
		cleanup()
		stepped, keys, groups, repeats = stepped/ops, keys/ops, groups/ops, repeats/ops
		t.Logf("%d rows: auxRecompute steps %d rows, hashes %d keys, forms %d groups, decides %d repeats by code", rows, stepped, keys, groups, repeats)
		if stepped == 0 || repeats == 0 {
			t.Fatalf("%d rows: %d rows stepped, %d repeats by code: the counters are not wired", rows, stepped, repeats)
		}
		if stepped > keys+groups {
			t.Errorf("%d rows: auxRecompute stepped %d rows, more than its %d DISTINCT keys and %d groups", rows, stepped, keys, groups)
		}
		if rows == 40_000 && 20*repeats < 19*(repeats+keys) {
			t.Errorf("%d rows: %d of %d pre-filter decisions by code, fewer than 95 %%", rows, repeats, repeats+keys)
		}
	}
}

// TestBatchDetectKeysAndGroups pins what BatchDetect's DISTINCT and
// GROUP BY do in counters: the keys they hash (sqldb.Stats.DistinctKeys)
// and the groups they form (Groups) are identical when it runs again over
// the same data, and grow linearly with it from 10 000 to 40 000 rows: no
// faster than 4× and a tenth, no slower than 3× — the groups of the
// constraints whose LHS takes few values (CT → AC) do not grow at all.
func TestBatchDetectKeysAndGroups(t *testing.T) {
	measure := func(rows int) (keys, groups int64) {
		d, cleanup := newBenchDetector(t, rows, 611)
		defer cleanup()
		for run := 0; run < 2; run++ {
			before := d.eng.Stats()
			if _, err := d.BatchDetect(); err != nil {
				t.Fatal(err)
			}
			after := d.eng.Stats()
			k, g := after.DistinctKeys-before.DistinctKeys, after.Groups-before.Groups
			if run == 1 && (k != keys || g != groups) {
				t.Errorf("%d rows: BatchDetect hashed %d DISTINCT keys and formed %d groups, then %d and %d", rows, keys, groups, k, g)
			}
			keys, groups = k, g
		}
		if keys == 0 || groups == 0 {
			t.Fatalf("%d rows: %d DISTINCT keys, %d groups: the counters are not wired", rows, keys, groups)
		}
		return keys, groups
	}
	k10, g10 := measure(10_000)
	k40, g40 := measure(40_000)
	t.Logf("DISTINCT keys %d → %d, groups %d → %d from 10 000 to 40 000 rows", k10, k40, g10, g40)
	for _, c := range []struct {
		what     string
		from, to int64
	}{{"DISTINCT keys", k10, k40}, {"groups", g10, g40}} {
		if r := float64(c.to) / float64(c.from); r < 3 || r > 4.4 {
			t.Errorf("%s grow %.2f× for 4× the rows", c.what, r)
		}
	}
}

// TestRecomputeReadsPostings states in counters that the Aux recompute
// reads only the rows its touched keys name, not every cell of every
// FD-bearing pattern's pass over D. Stepped alone in a warm 8+8 update
// at 10 000, 40 000 and 160 000 rows, the cells auxRecompute's value sets
// test — the rows they decide (sqldb.Stats.SetRows) less those decided
// from a sealed segment's postings without reading the cell
// (PostingRows) — are at most 1.5·|D|. While every set filter tested
// every row of its run they were 5.2·|D|.
func TestRecomputeReadsPostings(t *testing.T) {
	const ops = 4
	for _, rows := range []int{10_000, 40_000, 160_000} {
		w, cleanup := newApplyWorkload(t, rows)
		for i := 0; i < 2; i++ {
			w.apply(t, 0, 1, 2, 3, 4, 5, 6, 7)
		}
		var set, posted int64
		for i := 0; i < ops; i++ {
			w.stepApply(t, gen.Updates(w.cfg, 8, w.batch), w.live[:8:8], func(q string, before, after sqldb.Stats) {
				if q == w.d.stmts.auxRecompute {
					set += after.SetRows - before.SetRows
					posted += after.PostingRows - before.PostingRows
				}
			})
			w.batch++
		}
		cleanup()
		set, posted = set/ops, posted/ops
		tested := set - posted
		t.Logf("%d rows: auxRecompute's value sets decide %d rows, %d from postings, and test %d cells (%.2f·|D|)",
			rows, set, posted, tested, float64(tested)/float64(rows))
		if posted == 0 {
			t.Fatalf("%d rows: no row decided from postings: the counter is not wired", rows)
		}
		if 2*tested > 3*int64(rows) {
			t.Errorf("%d rows: auxRecompute tested %d cells, more than 1.5·|D|", rows, tested)
		}
	}
}

// TestStoredRowBytes states the engine's memory per stored row in bytes,
// which no clock moves: the live heap that Install, LoadData of 40 000
// generated rows and one BatchDetect leave behind, after a forced GC,
// divided by the rows. The dataset is generated before the baseline and
// kept alive, so only what the engine holds counts: the data table, the
// pattern sets, Aux and the flags' indexes. While every stored row was
// also a relation.Tuple of 40-byte values beside its segment's columns it
// read about 700 B; with the columns the only copy it must stay within
// 350 B.
func TestStoredRowBytes(t *testing.T) {
	const rows, limit = 40_000, 350
	data := gen.Dataset(gen.Config{Rows: rows, Noise: 5, Seed: 611})
	dsn := fmt.Sprintf("detect_rowbytes_%d", dsnSeq.Add(1))
	db, err := sql.Open(sqldriver.DriverName, dsn)
	if err != nil {
		t.Fatal(err)
	}
	defer sqldriver.Unregister(dsn)
	defer db.Close()
	d, err := New(db, gen.Schema(), gen.Constraints())
	if err != nil {
		t.Fatal(err)
	}
	heap := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heap()
	if err := d.Install(); err != nil {
		t.Fatal(err)
	}
	if _, err := d.LoadData(data); err != nil {
		t.Fatal(err)
	}
	if _, err := d.BatchDetect(); err != nil {
		t.Fatal(err)
	}
	after := heap()
	runtime.KeepAlive(data)
	perRow := (int64(after) - int64(before)) / rows
	t.Logf("%d rows: the engine holds %d B per stored row (%.1f MB)", rows, perRow, float64(int64(after)-int64(before))/(1<<20))
	if perRow > limit {
		t.Errorf("the engine holds %d B per stored row, limit %d", perRow, limit)
	}
	runtime.KeepAlive(d)
}

// TestCountedAuxBytes measures what a counted Aux, kept instead of
// recomputing groups, would hold at 40 000 rows, seed 611: the Qmv
// macro's distinct rows — one per
// (CID, blanked LHS, blanked RHS), 41 959 of them, since φ10's key-like
// FD gives every customer a group — stored with a member count in a
// 20-column table. As relation.Value tuples that was an estimated 33 MB;
// as the segments' columns it measures 7.8 MB, 3.4 MB of which are the
// two INTEGER columns at 40 bytes a cell, and must stay within 9 MB.
func TestCountedAuxBytes(t *testing.T) {
	const rows, limit = 40_000, 9 << 20
	d, cleanup := newBenchDetector(t, rows, 611)
	defer cleanup()
	var cols []string
	for _, a := range d.schema.Attrs {
		cols = append(cols, a.Name+"_P TEXT")
	}
	for _, a := range d.schema.Attrs {
		cols = append(cols, a.Name+"_RV TEXT")
	}
	if _, err := d.db.Exec("CREATE TABLE aux_counted (CID INTEGER, " + strings.Join(cols, ", ") + ", N INTEGER)"); err != nil {
		t.Fatal(err)
	}
	heap := func() int64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	before := heap()
	n, err := d.db.Exec("INSERT INTO aux_counted SELECT m.*, 1 FROM (" + d.macro(d.dataTable, "") + ") m")
	if err != nil {
		t.Fatal(err)
	}
	grown := heap() - before
	got, _ := n.RowsAffected()
	t.Logf("%d macro rows in a 20-column table: %.2f MB of live heap, %d B a row", got, float64(grown)/(1<<20), grown/got)
	if got != 41_959 {
		t.Errorf("the macro yields %d distinct rows, want 41 959", got)
	}
	if grown > limit {
		t.Errorf("the counted table holds %.2f MB, limit %.0f MB", float64(grown)/(1<<20), float64(limit)/(1<<20))
	}
}
