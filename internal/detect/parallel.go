package detect

import (
	"errors"
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
// Each concurrent read phase takes a single epoch pin on the engine
// bound with BindEngine, and every worker queries that snapshot
// directly. Without a bound engine ParallelDetect returns an error
// before it writes anything.
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
	if d.eng == nil {
		return fail(errors.New("no engine bound"))
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
	snap := d.eng.PinSnapshot()
	var tasks []func() error
	for si, sl := range slices {
		tasks = append(tasks, func() error {
			out, err := d.queryRIDs(snap, d.stmts.qsvRIDsSlice, sl[0], sl[1])
			svSets[si] = out
			return err
		})
	}
	for ri, cr := range ranges {
		tasks = append(tasks, func() error {
			rows, err := d.queryGroups(snap, d.stmts.qmvGroupsCIDRng, cr[0], cr[1])
			groupSets[ri] = rows
			return err
		})
	}
	err = runTasks(workers, tasks)
	snap.Close()
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
	snap = d.eng.PinSnapshot()
	tasks = tasks[:0]
	for si, sl := range slices {
		tasks = append(tasks, func() error {
			out, err := d.queryRIDs(snap, d.stmts.mvRIDsSlice, sl[0], sl[1])
			mvSets[si] = out
			return err
		})
	}
	err = runTasks(workers, tasks)
	snap.Close()
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

// queryAt runs a two-parameter read-only statement against the pinned
// snapshot through the engine's prepared-plan cache: one pin per phase,
// where a read-only transaction per task cost ~20% at 8 workers
// (ROADMAP perf log, PR 9).
func (d *Detector) queryAt(snap *sqldb.Snap, q string, lo, hi int64) ([]relation.Tuple, error) {
	p, err := d.eng.Prepare(q)
	if err != nil {
		return nil, err
	}
	res, err := p.QueryAt(snap, relation.Int(lo), relation.Int(hi))
	if err != nil {
		return nil, err
	}
	return res.Rows, nil
}

// queryRIDs runs a two-parameter RID-collecting query and returns the
// ids.
func (d *Detector) queryRIDs(snap *sqldb.Snap, q string, lo, hi int64) ([]int64, error) {
	rows, err := d.queryAt(snap, q, lo, hi)
	if err != nil {
		return nil, err
	}
	out := make([]int64, len(rows))
	for i, row := range rows {
		out[i] = row[0].I
	}
	return out, nil
}

// queryGroups computes the violating Qmv group keys of a CID range.
// Each returned row is insert-ready: the CID followed by the blanked
// pattern columns.
func (d *Detector) queryGroups(snap *sqldb.Snap, q string, loCID, hiCID int64) ([][]any, error) {
	rows, err := d.queryAt(snap, q, loCID, hiCID)
	if err != nil {
		return nil, err
	}
	width := 1 + len(d.schema.Attrs)
	out := make([][]any, len(rows))
	for i, t := range rows {
		row := make([]any, width)
		row[0] = t[0].I
		for j := 1; j < width; j++ {
			row[j] = t[j].S // pattern columns are always TEXT
		}
		out[i] = row
	}
	return out, nil
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
