package detect

import (
	"database/sql"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ecfd/internal/relation"
	"ecfd/internal/sqldb"
)

// ParallelDetect computes the same violation flags as BatchDetect, but
// fans the read-only violation queries across a worker pool so the
// engine's concurrent read path (shared read lock, see internal/sqldb)
// can use every core:
//
//   - the Qsv scan partitions the data into contiguous RID slices, one
//     task per slice;
//   - the Qmv grouping fans over contiguous CID ranges of Σ — the CID
//     is part of the group key, so groups never span constraints and
//     the per-range results union losslessly; one worker gets the
//     whole range and does exactly the serial amount of work;
//   - after the merged Aux patterns are installed, the MV flagging
//     partitions over RID slices again.
//
// Workers collect RID sets and group keys; the merge sorts them, so
// the resulting flags, Aux contents and Violations() output are
// byte-identical to a serial run regardless of scheduling (the
// determinism test pins this). Flag writes happen in a short serial
// phase at the end — reads scale, writes stay exclusive.
//
// Each concurrent read phase runs against one pinned MVCC snapshot:
// with an engine bound (BindEngine) the phase takes a single epoch pin
// and every worker queries it directly; without one, each task is a
// single statement, which observes one snapshot by itself.
//
// workers <= 0 selects GOMAXPROCS.
//
// Deprecated: 1.03–1.22× over BatchDetect at nproc = 2, parked, and off
// every product surface. It compiles only for benchmark/layers.go's
// detect.parallel_* metrics and this package's tests; ROADMAP 1(a) drops
// the metrics, item 2 then deletes this file.
func (d *Detector) ParallelDetect(workers int) (BatchStats, error) {
	start := time.Now()
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	fail := func(err error) (BatchStats, error) {
		return BatchStats{}, fmt.Errorf("detect: parallel: %w", err)
	}
	if _, err := d.db.Exec(d.stmts.resetFlags); err != nil {
		return fail(err)
	}
	if _, err := d.db.Exec("TRUNCATE TABLE " + d.auxTable); err != nil {
		return fail(err)
	}

	// One ordered pass over the RID index sizes the partitioning
	// exactly: slices cut at real RIDs, so sparse RID spaces (heavily
	// deleted relations) never yield empty slice tasks.
	rids, err := d.RIDs()
	if err != nil {
		return fail(err)
	}
	if len(rids) == 0 {
		return BatchStats{Elapsed: time.Since(start)}, nil
	}
	slices := ridSlices(rids, workers)

	// Phase 1 (concurrent reads): SV per RID slice, Qmv groups per CID
	// range — all against one pinned snapshot.
	ranges := cidRanges(len(d.sigma), workers)
	svSets := make([][]int64, len(slices))
	groupSets := make([][][]any, len(ranges))
	rd := d.phaseReader()
	var tasks []func() error
	for si, sl := range slices {
		si, sl := si, sl
		tasks = append(tasks, func() error {
			out, err := rd.queryRIDs(d.stmts.qsvRIDsSlice, sl[0], sl[1])
			svSets[si] = out
			return err
		})
	}
	for ri, cr := range ranges {
		ri, cr := ri, cr
		tasks = append(tasks, func() error {
			rows, err := rd.queryGroups(d.stmts.qmvGroupsCIDRng, cr[0], cr[1])
			groupSets[ri] = rows
			return err
		})
	}
	err = runTasks(workers, tasks)
	rd.close()
	if err != nil {
		return fail(err)
	}

	// Serial write phase: install the merged Aux patterns and SV flags.
	if err := d.insertAuxGroups(groupSets); err != nil {
		return fail(err)
	}
	if err := d.setFlag(ColSV, mergeRIDs(svSets)); err != nil {
		return fail(err)
	}

	// Phase 2 (concurrent reads): MV candidates per slice against a
	// fresh pin (it must see the Aux install above), then one serial
	// flag write.
	mvSets := make([][]int64, len(slices))
	rd = d.phaseReader()
	tasks = tasks[:0]
	for si, sl := range slices {
		si, sl := si, sl
		tasks = append(tasks, func() error {
			out, err := rd.queryRIDs(d.stmts.mvRIDsSlice, sl[0], sl[1])
			mvSets[si] = out
			return err
		})
	}
	err = runTasks(workers, tasks)
	rd.close()
	if err != nil {
		return fail(err)
	}
	if err := d.setFlag(ColMV, mergeRIDs(mvSets)); err != nil {
		return fail(err)
	}

	sv, mv, total, err := d.Counts()
	if err != nil {
		return fail(err)
	}
	return BatchStats{SV: sv, MV: mv, Total: total, Elapsed: time.Since(start)}, nil
}

// runTasks drains tasks through a fixed pool of workers and returns
// the first error. A task that has started runs to completion — its
// result slot is never left half-written — but once any task fails the
// pool stops picking up queued work and the feeder stops queuing, so a
// failed phase returns promptly instead of burning the remaining
// slices on work whose results will be discarded.
func runTasks(workers int, tasks []func() error) error {
	if workers > len(tasks) {
		workers = len(tasks)
	}
	if workers <= 1 {
		for _, t := range tasks {
			if err := t(); err != nil {
				return err
			}
		}
		return nil
	}
	ch := make(chan func() error)
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	var failed atomic.Bool
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for t := range ch {
				if failed.Load() {
					continue // drain-and-skip after a failure
				}
				if err := t(); err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					failed.Store(true)
				}
			}
		}()
	}
	for _, t := range tasks {
		if failed.Load() {
			break
		}
		ch <- t
	}
	close(ch)
	wg.Wait()
	return firstErr
}

// phaseReader is the read surface of one concurrent phase. With an
// engine bound it pins one MVCC epoch at construction and every task
// queries that snapshot through the engine's prepared-plan cache — the
// per-task read-only-transaction pin (and its connection churn) that
// crept to ~20% at 8 workers (ROADMAP perf log, PR 9) is gone. Without an
// engine it falls back to plain handle queries: each task is a single
// statement, which pins its own snapshot for exactly its duration.
type phaseReader struct {
	d    *Detector
	snap *sqldb.Snap // non-nil iff an engine is bound
}

func (d *Detector) phaseReader() *phaseReader {
	r := &phaseReader{d: d}
	if d.eng != nil {
		r.snap = d.eng.PinSnapshot()
	}
	return r
}

func (r *phaseReader) close() {
	if r.snap != nil {
		r.snap.Close()
		r.snap = nil
	}
}

// queryRIDs runs a two-parameter RID-collecting query and returns the
// ids.
func (r *phaseReader) queryRIDs(q string, lo, hi int64) ([]int64, error) {
	if r.snap != nil {
		p, err := r.d.eng.Prepare(q)
		if err != nil {
			return nil, err
		}
		res, err := p.QueryAt(r.snap, relation.Int(lo), relation.Int(hi))
		if err != nil {
			return nil, err
		}
		out := make([]int64, len(res.Rows))
		for i, row := range res.Rows {
			out[i] = row[0].I
		}
		return out, nil
	}
	rows, err := r.d.db.Query(q, lo, hi)
	if err != nil {
		return nil, err
	}
	defer rows.Close()
	var out []int64
	for rows.Next() {
		var rid int64
		if err := rows.Scan(&rid); err != nil {
			return nil, err
		}
		out = append(out, rid)
	}
	return out, rows.Err()
}

// queryGroups computes the violating Qmv group keys of a CID range.
// Each returned row is insert-ready: the CID followed by the blanked
// pattern columns.
func (r *phaseReader) queryGroups(q string, loCID, hiCID int64) ([][]any, error) {
	width := 1 + len(r.d.schema.Attrs)
	if r.snap != nil {
		p, err := r.d.eng.Prepare(q)
		if err != nil {
			return nil, err
		}
		res, err := p.QueryAt(r.snap, relation.Int(loCID), relation.Int(hiCID))
		if err != nil {
			return nil, err
		}
		out := make([][]any, len(res.Rows))
		for i, t := range res.Rows {
			row := make([]any, width)
			row[0] = t[0].I
			for j := 1; j < width; j++ {
				row[j] = t[j].S // pattern columns are always TEXT
			}
			out[i] = row
		}
		return out, nil
	}
	rows, err := r.d.db.Query(q, loCID, hiCID)
	if err != nil {
		return nil, err
	}
	defer rows.Close()
	var cid int64
	cells := make([]string, width-1)
	ptrs := make([]any, width)
	ptrs[0] = &cid
	for i := range cells {
		ptrs[i+1] = &cells[i]
	}
	var out [][]any
	for rows.Next() {
		if err := rows.Scan(ptrs...); err != nil {
			return nil, err
		}
		row := make([]any, width)
		row[0] = cid
		for i, s := range cells {
			row[i+1] = s
		}
		out = append(out, row)
	}
	return out, rows.Err()
}

// minSliceRows keeps partitioning worthwhile: below this many rows per
// prospective slice the whole relation goes to one task (each slice
// task scans the full table and filters to its RID range, so
// over-slicing small relations only multiplies scans).
const minSliceRows = 1024

// ridSlices cuts the ordered RID list into up to `workers` contiguous
// inclusive ranges. Slice bounds are actual RIDs cut at equal row
// counts, so no slice is ever empty — a sparse RID space (after heavy
// deletion) costs extra rows per slice, never extra tasks — and the
// slice count is capped at the number of non-empty partitions.
func ridSlices(rids []int64, workers int) [][2]int64 {
	n := len(rids)
	if n == 0 {
		return nil
	}
	k := workers
	if max := n / minSliceRows; k > max {
		k = max
	}
	if k <= 1 {
		return [][2]int64{{rids[0], rids[n-1]}}
	}
	out := make([][2]int64, 0, k)
	for i := 0; i < k; i++ {
		a, b := i*n/k, (i+1)*n/k // b > a because k <= n
		out = append(out, [2]int64{rids[a], rids[b-1]})
	}
	return out
}

// ridBounds reports the data table's RID range and row count.
func (d *Detector) ridBounds() (lo, hi, n int64, err error) {
	q := fmt.Sprintf("SELECT MIN(%[1]s), MAX(%[1]s), COUNT(*) FROM %[2]s", ColRID, d.dataTable)
	var loN, hiN sql.NullInt64
	if err := d.db.QueryRow(q).Scan(&loN, &hiN, &n); err != nil {
		return 0, 0, 0, err
	}
	return loN.Int64, hiN.Int64, n, nil
}

// cidRanges splits the CID space [1, n] into up to `workers`
// contiguous inclusive ranges.
func cidRanges(n, workers int) [][2]int64 {
	k := workers
	if k > n {
		k = n
	}
	if k < 1 {
		k = 1
	}
	per := (n + k - 1) / k
	var out [][2]int64
	for a := 1; a <= n; a += per {
		b := a + per - 1
		if b > n {
			b = n
		}
		out = append(out, [2]int64{int64(a), int64(b)})
	}
	return out
}

// insertAuxGroups installs the merged group keys into Aux. The sets
// cover disjoint ascending CID ranges; rows within a set sort by
// (CID, pattern columns) so the Aux contents are identical across
// runs whatever the task scheduling was.
func (d *Detector) insertAuxGroups(groupSets [][][]any) error {
	var all [][]any
	for _, rows := range groupSets {
		sort.Slice(rows, func(a, b int) bool {
			ca, cb := rows[a][0].(int64), rows[b][0].(int64)
			if ca != cb {
				return ca < cb
			}
			for i := 1; i < len(rows[a]); i++ {
				sa, sb := rows[a][i].(string), rows[b][i].(string)
				if sa != sb {
					return sa < sb
				}
			}
			return false
		})
		all = append(all, rows...)
	}
	if len(all) == 0 {
		return nil
	}
	width := 1 + len(d.schema.Attrs)
	for start := 0; start < len(all); start += insertBatch {
		end := start + insertBatch
		if end > len(all) {
			end = len(all)
		}
		chunk := all[start:end]
		args := make([]any, 0, len(chunk)*width)
		for _, row := range chunk {
			args = append(args, row...)
		}
		q := fmt.Sprintf("INSERT INTO %s VALUES %s", d.auxTable, placeholderRows(len(chunk), width))
		if _, err := d.db.Exec(q, args...); err != nil {
			return fmt.Errorf("install aux groups: %w", err)
		}
	}
	return nil
}

// mergeRIDs unions the per-task RID sets into one sorted,
// duplicate-free list (slices are disjoint, but DISTINCT within a
// slice does not hold across merges of future callers — dedupe anyway).
func mergeRIDs(sets [][]int64) []int64 {
	var out []int64
	for _, s := range sets {
		out = append(out, s...)
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	dedup := out[:0]
	var last int64
	for i, rid := range out {
		if i > 0 && rid == last {
			continue
		}
		dedup = append(dedup, rid)
		last = rid
	}
	return dedup
}

// setFlag sets a violation flag on the given RIDs with batched
// parameterized updates (at most two distinct statement texts, so the
// plan cache absorbs them).
func (d *Detector) setFlag(col string, rids []int64) error {
	for start := 0; start < len(rids); start += insertBatch {
		end := start + insertBatch
		if end > len(rids) {
			end = len(rids)
		}
		chunk := rids[start:end]
		args := make([]any, len(chunk))
		for i, rid := range chunk {
			args[i] = rid
		}
		q := fmt.Sprintf("UPDATE %s SET %s = 1 WHERE %s IN (%s)",
			d.dataTable, col, ColRID, placeholders(len(chunk)))
		if _, err := d.db.Exec(q, args...); err != nil {
			return fmt.Errorf("set %s flags: %w", col, err)
		}
	}
	return nil
}

// placeholders renders "?, ?, …, ?" (n of them).
func placeholders(n int) string {
	return strings.TrimSuffix(strings.Repeat("?, ", n), ", ")
}
