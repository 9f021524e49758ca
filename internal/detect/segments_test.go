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
				before := engOf(w.d).Stats()
				w.apply(t, pos[:]...)
				after := engOf(w.d).Stats()
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
// only the benchmark's: a warm 8+8 ApplyUpdates allocates at most 256 kB,
// on 40 000 rows and on 160 000. It was 15.6 MB at 40 000 while a DELETE
// copied every built column vector whole, 1.6 MB while it still copied
// the row array and the RID index's positions, and about 270 kB while
// bulkInsert sized its argument buffer for a full 500-row batch whatever
// the rows. Not parallel: TotalAlloc is the process's.
func TestApplyUpdatesAllocBudget(t *testing.T) {
	const ops, budget = 50, 256 << 10
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

// TestBatchDetectAllocBudget bounds what a warm BatchDetect allocates at
// 40 000 rows. Its Qmv grouping keys the DISTINCT macro's rows by interned
// ids in flat tables allocated once at their final size, a group is a
// count, and values are decoded for the groups that pass HAVING only: about
// 8.4 MB. While the grouping built a string key per row and a row per
// group, the call allocated about 39 MB; while it kept a value per id, an
// accumulator per group and grew its tables by doubling, 26.8 MB.
func TestBatchDetectAllocBudget(t *testing.T) {
	const ops, budget = 3, 12 << 20
	d, cleanup := newBenchDetector(t, 40_000, 611)
	defer cleanup()
	for i := 0; i < 2; i++ {
		if _, err := d.BatchDetect(); err != nil {
			t.Fatal(err)
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < ops; i++ {
		if _, err := d.BatchDetect(); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perOp := (after.TotalAlloc - before.TotalAlloc) / ops
	t.Logf("40000 rows: %d kB allocated per BatchDetect (26.8 MB with a value per id and an object per group, about 39 MB with string keys)", perOp>>10)
	if perOp > budget {
		t.Errorf("%d bytes allocated per BatchDetect on 40000 rows, budget %d", perOp, budget)
	}
}

// TestRecomputeSkipsDeadPatterns states in counters that a pattern row
// the touched-keys probe rules out skips the data scan: over an empty keys
// table, stageRecomp at 40 000 rows scans the pattern rows and no data
// row. While the dead or-group still filtered every segment of the data
// for each pattern row, it scanned 200 013 rows.
func TestRecomputeSkipsDeadPatterns(t *testing.T) {
	d, cleanup := newBenchDetector(t, 40_000, 611)
	defer cleanup()
	if _, err := d.BatchDetect(); err != nil {
		t.Fatal(err)
	}
	if _, err := d.db.Exec("TRUNCATE TABLE " + d.keysTable); err != nil {
		t.Fatal(err)
	}
	var patterns int64
	if err := d.db.QueryRow("SELECT COUNT(*) FROM " + d.encTable).Scan(&patterns); err != nil {
		t.Fatal(err)
	}
	before := engOf(d).Stats()
	if _, err := d.db.Exec(d.stmts.stageRecomp); err != nil {
		t.Fatal(err)
	}
	scanned := engOf(d).Stats().RowsScanned - before.RowsScanned
	t.Logf("40000 rows, empty keys table: stageRecomp scans %d rows over %d pattern rows", scanned, patterns)
	if scanned > patterns {
		t.Errorf("stageRecomp over an empty keys table scans %d rows, more than the %d pattern rows", scanned, patterns)
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
		before := engOf(w.d).Stats()
		for i := 0; i < ops; i++ {
			w.apply(t, 0, 1, 2, 3, 4, 5, 6, 7)
		}
		after := engOf(w.d).Stats()
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
// DISTINCT decides its repeats by interned ids at the batch level, before
// a row is stepped, and that the ids cost a translation per segment code,
// not per row. Every row a DISTINCT feed keys adds to
// sqldb.Stats.DistinctKeys, those a batch level finds in the id table to
// CodeRepeats, and every segment code turned into an id to
// CodeTranslations. At 40 000 rows a warm 8+8 update decides at least 95 %
// of its keys as repeats before stepping them; from 10 000 to 160 000 rows
// its translations grow no faster than the segments (the active columns
// are the same at every size) and its keys no faster than the rows; and a
// repeated BatchDetect decides exactly as many repeats again.
func TestPreDedupDecidesByCode(t *testing.T) {
	const ops = 4
	sizes := []int{10_000, 40_000, 160_000}
	var keys, codes []int64
	for _, rows := range sizes {
		w, cleanup := newApplyWorkload(t, rows)
		for i := 0; i < 2; i++ {
			w.apply(t, 0, 1, 2, 3, 4, 5, 6, 7)
		}
		before := engOf(w.d).Stats()
		for i := 0; i < ops; i++ {
			w.apply(t, 0, 1, 2, 3, 4, 5, 6, 7)
		}
		after := engOf(w.d).Stats()
		var batch [2]int64
		for run := range batch {
			b := engOf(w.d).Stats().CodeRepeats
			if _, err := w.d.BatchDetect(); err != nil {
				t.Fatal(err)
			}
			batch[run] = engOf(w.d).Stats().CodeRepeats - b
		}
		cleanup()
		rep, key := (after.CodeRepeats-before.CodeRepeats)/ops, (after.DistinctKeys-before.DistinctKeys)/ops
		code := (after.CodeTranslations - before.CodeTranslations) / ops
		t.Logf("%d rows: an update keys %d rows, drops %d as repeats before stepping (%.1f %%), translates %d codes; BatchDetect drops %d",
			rows, key, rep, 100*float64(rep)/float64(key), code, batch[0])
		if rep == 0 || code == 0 || batch[0] == 0 {
			t.Fatalf("%d rows: %d repeats, %d translations: the counters are not wired", rows, rep, code)
		}
		if rows == 40_000 && 20*rep < 19*key {
			t.Errorf("%d rows: %d of %d keyed rows dropped before stepping, fewer than 95 %%", rows, rep, key)
		}
		if batch[1] != batch[0] {
			t.Errorf("%d rows: BatchDetect dropped %d repeats, then %d", rows, batch[0], batch[1])
		}
		keys, codes = append(keys, key), append(codes, code)
	}
	segs := func(rows int) int64 { return int64((rows + 1023) / 1024) }
	for i := 1; i < len(sizes); i++ {
		if got, bound := float64(codes[i])/float64(codes[0]), float64(segs(sizes[i]))/float64(segs(sizes[0])); got > bound {
			t.Errorf("translations grow %.1f× from %d to %d rows, the segments %.1f×", got, sizes[0], sizes[i], bound)
		}
		if got, bound := float64(keys[i])/float64(keys[0]), 1.1*float64(sizes[i])/float64(sizes[0]); got > bound {
			t.Errorf("keys grow %.1f× from %d to %d rows, more than the rows' %.1f×", got, sizes[0], sizes[i], bound/1.1)
		}
	}
}

// TestRecomputeStepsFirstOccurrences states in counters that the Aux
// recompute hands the per-row machinery only the rows that add a key, not
// every row its levels select. Stepped alone in a warm 8+8 update at
// 10 000, 40 000 and 160 000 rows, stageRecomp steps
// (sqldb.Stats.RowsStepped) no more rows than it adds to the id table —
// its keys (DistinctKeys) less the repeats a batch level dropped
// (CodeRepeats) — and groups it forms: the pattern rows stepped are fewer
// than the groups, and every data row stepped is a new key. Its repeats
// are still at least 95 % of its keys at 40 000 rows, as
// TestPreDedupDecidesByCode asks of whole updates. While a code memo ran
// behind stepRow, every repeat was stepped too: about 30 times the bound.
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
				if q == w.d.stmts.stageRecomp {
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
		t.Logf("%d rows: stageRecomp steps %d rows, keys %d, drops %d as repeats, forms %d groups", rows, stepped, keys, repeats, groups)
		if stepped == 0 || repeats == 0 {
			t.Fatalf("%d rows: %d rows stepped, %d repeats dropped: the counters are not wired", rows, stepped, repeats)
		}
		if stepped > keys-repeats+groups {
			t.Errorf("%d rows: stageRecomp stepped %d rows, more than its %d new keys and %d groups", rows, stepped, keys-repeats, groups)
		}
		if rows == 40_000 && 20*repeats < 19*keys {
			t.Errorf("%d rows: %d of %d keyed rows dropped before stepping, fewer than 95 %%", rows, repeats, keys)
		}
	}
}

// TestBatchDetectKeysAndGroups pins what BatchDetect's DISTINCT and
// GROUP BY do in counters: the rows its DISTINCT keys by interned ids
// (sqldb.Stats.DistinctKeys) and its group keys — the groups it forms
// (Groups) and the rows it holds and never keys, each a group of one row
// (SingletonRows) — are identical when it runs again over the same data,
// and grow linearly with it from 10 000 to 40 000 rows: no faster than 4×
// and a tenth, no slower than 3× — the groups of the constraints whose LHS
// takes few values (CT → AC) do not grow at all. Its group keys are those
// of the Qmv macro grouped with no HAVING, which holds no row, plus the
// one group of Counts' COUNT(*). That grouping translates every segment
// code its rows hold (CodeTranslations) — no faster than the segments
// grow, and a twentieth — and BatchDetect, which translates only the codes
// of the rows it keys, no more.
func TestBatchDetectKeysAndGroups(t *testing.T) {
	measure := func(rows int) (keys, groups, codes int64) {
		d, cleanup := newBenchDetector(t, rows, 611)
		defer cleanup()
		var held int64
		for run := 0; run < 2; run++ {
			before := engOf(d).Stats()
			if _, err := d.BatchDetect(); err != nil {
				t.Fatal(err)
			}
			after := engOf(d).Stats()
			k, g := after.DistinctKeys-before.DistinctKeys, after.Groups-before.Groups+after.SingletonRows-before.SingletonRows
			if run == 1 && (k != keys || g != groups) {
				t.Errorf("%d rows: BatchDetect keyed %d DISTINCT rows and found %d group keys, then %d and %d", rows, keys, groups, k, g)
			}
			keys, groups, held = k, g, after.CodeTranslations-before.CodeTranslations
		}
		g := strings.Join(d.groupCols(), ", ")
		before := engOf(d).Stats()
		if _, err := engOf(d).Query(fmt.Sprintf("SELECT %s, COUNT(*) FROM (%s\n) m GROUP BY %s", g, d.macro(), g)); err != nil {
			t.Fatal(err)
		}
		after := engOf(d).Stats()
		codes = after.CodeTranslations - before.CodeTranslations
		if all := after.Groups - before.Groups; groups != all+1 {
			t.Errorf("%d rows: BatchDetect found %d group keys, the macro grouped with no HAVING %d", rows, groups, all)
		}
		if held > codes {
			t.Errorf("%d rows: BatchDetect translated %d codes, more than the %d of the macro keying every row", rows, held, codes)
		}
		if keys == 0 || groups == 0 || codes == 0 || held == 0 {
			t.Fatalf("%d rows: %d DISTINCT keys, %d group keys, %d and %d translations: the counters are not wired", rows, keys, groups, held, codes)
		}
		t.Logf("%d rows: BatchDetect translated %d codes, the macro keying every row %d", rows, held, codes)
		return keys, groups, codes
	}
	k10, g10, c10 := measure(10_000)
	k40, g40, c40 := measure(40_000)
	t.Logf("DISTINCT keys %d → %d, group keys %d → %d, translations %d → %d from 10 000 to 40 000 rows", k10, k40, g10, g40, c10, c40)
	if r := float64(c40) / float64(c10); r > 4*1.05 {
		t.Errorf("translations grow %.2f× for 4× the segments", r)
	}
	for _, c := range []struct {
		what     string
		from, to int64
	}{{"DISTINCT keys", k10, k40}, {"group keys", g10, g40}} {
		if r := float64(c.to) / float64(c.from); r < 3 || r > 4.4 {
			t.Errorf("%s grow %.2f× for 4× the rows", c.what, r)
		}
	}
}

// TestRecomputeReadsPostings states in counters that the Aux recompute
// reads only the rows its touched keys name, not every cell of every
// FD-bearing pattern's pass over D. Stepped alone in a warm 8+8 update
// at 10 000, 40 000 and 160 000 rows, the cells stageRecomp's value sets
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
				if q == w.d.stmts.stageRecomp {
					set += after.SetRows - before.SetRows
					posted += after.PostingRows - before.PostingRows
				}
			})
			w.batch++
		}
		cleanup()
		set, posted = set/ops, posted/ops
		tested := set - posted
		t.Logf("%d rows: stageRecomp's value sets decide %d rows, %d from postings, and test %d cells (%.2f·|D|)",
			rows, set, posted, tested, float64(tested)/float64(rows))
		if posted == 0 {
			t.Fatalf("%d rows: no row decided from postings: the counter is not wired", rows)
		}
		if 2*tested > 3*int64(rows) {
			t.Errorf("%d rows: stageRecomp tested %d cells, more than 1.5·|D|", rows, tested)
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
// read about 700 B, and 248 B with the columns the only copy but RID, SV
// and MV still 40-byte values; with every non-TEXT cell an 8-byte word it
// reads about 137 B and must stay within 175 B.
func TestStoredRowBytes(t *testing.T) {
	const rows, limit = 40_000, 175
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
// as the segments' columns with 40-byte INTEGER cells it measured 7.8 MB.
// With the two INTEGER columns 8-byte words it measures 5.2 MB and must
// stay within 6 MB (5.6–5.7 MB beside the code translations the macro's
// plan instance keeps between executions).
//
// A group of one member pair — one (pattern, tuple) match — can never
// violate, and 37 657 of the 41 738 groups have one: a counted Aux of the
// others holds 4 302 macro rows, about 0.55–0.6 MB at the bytes a row
// measures here.
func TestCountedAuxBytes(t *testing.T) {
	const rows, limit = 40_000, 6 << 20
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
	outs := []string{"m.CID"}
	for _, c := range cols {
		outs = append(outs, "m."+strings.TrimSuffix(c, " TEXT"))
	}
	n, err := d.db.Exec("INSERT INTO aux_counted SELECT " + strings.Join(outs, ", ") + ", 1 FROM (" + d.macro() + ") m")
	if err != nil {
		t.Fatal(err)
	}
	grown := heap() - before
	got, _ := n.RowsAffected()
	t.Logf("%d macro rows in a 20-column table: %.2f MB of live heap, %d B a row", got, float64(grown)/(1<<20), grown/got)
	if got != 41_959 {
		t.Errorf("the macro yields %d distinct rows, want 41 959", got)
	}
	// The groups by their member pairs: the macro's (pattern, tuple)
	// matches, before DISTINCT.
	keyCols, on := []string{"CID"}, []string{"g.CID = a.CID"}
	for _, a := range d.schema.Attrs {
		keyCols, on = append(keyCols, a.Name+"_P"), append(on, fmt.Sprintf("g.%s_P = a.%s_P", a.Name, a.Name))
	}
	key := strings.Join(keyCols, ", ")
	pairs := "SELECT " + d.macroRows("")
	if _, err := d.db.Exec("CREATE TABLE pair_groups (CID INTEGER, " + strings.Join(cols[:len(d.schema.Attrs)], ", ") + ", N INTEGER)"); err != nil {
		t.Fatal(err)
	}
	if _, err := d.db.Exec("INSERT INTO pair_groups SELECT " + key + ", COUNT(*) FROM (" + pairs + ") m GROUP BY " + key); err != nil {
		t.Fatal(err)
	}
	var groups, singles, multi int64
	if err := d.db.QueryRow("SELECT COUNT(*) FROM pair_groups").Scan(&groups); err != nil {
		t.Fatal(err)
	}
	if err := d.db.QueryRow("SELECT COUNT(*) FROM pair_groups WHERE N = 1").Scan(&singles); err != nil {
		t.Fatal(err)
	}
	q := "SELECT COUNT(*) FROM aux_counted a WHERE EXISTS (SELECT 1 FROM pair_groups g WHERE g.N > 1 AND " + strings.Join(on, " AND ") + ")"
	if err := d.db.QueryRow(q).Scan(&multi); err != nil {
		t.Fatal(err)
	}
	t.Logf("%d groups, %d of one member pair: the %d macro rows of the others would hold about %.2f MB", groups, singles, multi, float64(multi*grown/got)/(1<<20))
	if groups != 41_738 || singles != 37_657 || multi != 4_302 {
		t.Errorf("%d groups, %d of one member pair, %d macro rows in the others; want 41 738, 37 657 and 4 302", groups, singles, multi)
	}
	if grown > limit {
		t.Errorf("the counted table holds %.2f MB, limit %.0f MB", float64(grown)/(1<<20), float64(limit)/(1<<20))
	}
}
