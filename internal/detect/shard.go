package detect

import (
	"database/sql"
	"fmt"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"ecfd/internal/core"
	"ecfd/internal/relation"
	"ecfd/internal/sqldriver"
)

// ShardedDetector partitions the data table by RID across K independent
// in-memory stores and runs the fixed batch detection statements on
// every shard in parallel — shard-per-core scaling where
// ParallelDetect's workers still contend on one store's epoch pointer,
// column caches and indexes.
//
// Layout:
//
//   - each shard is a full private sqldb engine (own epochs, indexes,
//     column caches, plan cache) holding only its RID partition of the
//     data, plus private replicas of the Σ encoding and of Aux;
//   - the coordinator store (the handle NewSharded was given) holds Σ
//     and the full data table: LoadData writes through it, so it
//     allocates the RIDs a serial Detector would;
//   - rows route by shardOf: blocks of 256 consecutive RIDs, dealt
//     round-robin across the K shards.
//
// Execution is scatter-gather. Qsv and the flag writes run entirely
// shard-local: a tuple violates by itself independently of where other
// tuples live. The Qmv grouping is the one operator whose groups span
// shards, and it distributes by partial aggregation: the macro of
// Fig. 4 is a DISTINCT projection, so each shard exports its DISTINCT
// macro rows, and after a global dedupe the surviving rows are exactly
// the global DISTINCT macro — the coordinator finishes the GROUP BY /
// HAVING COUNT(*) > 1 in Go and broadcasts the violating group keys into
// every shard's Aux replica, where the MV flagging proceeds shard-local
// again.
//
// Every gather sorts its merged rows, so flags, Aux contents and
// Violations() are byte-identical to a serial BatchDetect regardless of
// shard count or scheduling (the differential test pins this for
// K ∈ {1, 2, 4, 8}).
//
// Deprecated: 0.97–1.06× over BatchDetect at nproc = 2, parked, and off
// every product surface. It compiles only for benchmark/layers.go's
// detect.sharded_* metrics and this package's tests; ROADMAP 1(a) drops
// the metrics, item 2 then deletes this file.
type ShardedDetector struct {
	coord  *Detector
	shards []*shardStore
}

// shardStore is one partition: a private engine registered under a
// generated DSN, driven by a Detector compiled against it (same schema,
// same Σ, same statement texts — different store).
type shardStore struct {
	dsn string
	db  *sql.DB
	d   *Detector
}

// ShardOptions configures NewSharded.
//
// Deprecated: see ShardedDetector.
type ShardOptions struct {
	// Shards is the partition count K. <= 0 selects GOMAXPROCS
	// (capped at 64).
	Shards int
}

var shardSeq atomic.Int64

// shardOf maps a RID to its owning shard among k: blocks of 256
// consecutive RIDs, dealt round-robin. Total and deterministic, so a
// row never moves.
func shardOf(rid int64, k int) int {
	return int((uint64(rid) >> 8) % uint64(k))
}

// NewSharded prepares a sharded detector: a coordinator Detector over
// db plus opts.Shards private shard stores, each with the detection
// statements compiled against its own engine. Call Install, LoadData,
// then BatchDetect, as with a plain Detector.
//
// Deprecated: see ShardedDetector.
func NewSharded(db *sql.DB, schema *relation.Schema, sigma []*core.ECFD, opts ShardOptions) (*ShardedDetector, error) {
	coord, err := New(db, schema, sigma)
	if err != nil {
		return nil, err
	}
	k := opts.Shards
	if k <= 0 {
		k = min(runtime.GOMAXPROCS(0), 64)
	}
	s := &ShardedDetector{coord: coord}
	seq := shardSeq.Add(1)
	for i := 0; i < k; i++ {
		dsn := fmt.Sprintf("ecfd_shard_%d_%d", seq, i)
		sdb, err := sql.Open(sqldriver.DriverName, dsn)
		if err == nil {
			var sd *Detector
			if sd, err = New(sdb, schema, sigma); err == nil {
				sd.BindEngine(sqldriver.Engine(dsn))
				s.shards = append(s.shards, &shardStore{dsn: dsn, db: sdb, d: sd})
				continue
			}
			sdb.Close()
		}
		s.Close()
		return nil, fmt.Errorf("detect: shard %d: %w", i, err)
	}
	return s, nil
}

// Close releases the shard engines. The coordinator handle stays open —
// it belongs to the caller.
func (s *ShardedDetector) Close() {
	for _, sh := range s.shards {
		sh.db.Close()
		sqldriver.Unregister(sh.dsn)
	}
	s.shards = nil
}

// eachShard runs fn on every shard, one goroutine per shard.
func (s *ShardedDetector) eachShard(fn func(i int, sh *shardStore) error) error {
	tasks := make([]func() error, len(s.shards))
	for i, sh := range s.shards {
		tasks[i] = func() error { return fn(i, sh) }
	}
	return runTasks(len(tasks), tasks)
}

// Install creates the detector tables on the coordinator and every
// shard (shard DDL runs in parallel — each engine is private).
func (s *ShardedDetector) Install() error {
	if err := s.coord.Install(); err != nil {
		return err
	}
	return s.eachShard(func(_ int, sh *shardStore) error {
		return sh.d.Install()
	})
}

// LoadData write-throughs the instance into the coordinator store
// (which assigns the RIDs), routes the rows to their owning shards and
// inserts each shard's slice in parallel.
func (s *ShardedDetector) LoadData(inst *relation.Relation) ([]int64, error) {
	rids, err := s.coord.LoadData(inst)
	if err != nil {
		return nil, err
	}
	k := len(s.shards)
	perRows := make([][]relation.Tuple, k)
	perRids := make([][]int64, k)
	for i, rid := range rids {
		sh := shardOf(rid, k)
		perRows[sh] = append(perRows[sh], inst.Rows[i])
		perRids[sh] = append(perRids[sh], rid)
	}
	err = s.eachShard(func(i int, sh *shardStore) error {
		if len(perRids[i]) == 0 {
			return nil
		}
		return sh.d.insertAssigned(sh.d.dataTable, perRows[i], perRids[i])
	})
	if err != nil {
		return nil, err
	}
	return rids, nil
}

// insertAssigned bulk-inserts rows carrying caller-assigned RIDs (and
// clear flags) — the shard-side half of a routed insert, where the
// coordinator already allocated the ids.
func (d *Detector) insertAssigned(table string, rows []relation.Tuple, rids []int64) error {
	width := d.schema.Width() + 3 // RID + R + SV + MV
	for start := 0; start < len(rows); start += insertBatch {
		end := start + insertBatch
		if end > len(rows) {
			end = len(rows)
		}
		chunk := rows[start:end]
		args := make([]any, 0, len(chunk)*width)
		for j, row := range chunk {
			args = append(args, rids[start+j])
			for _, v := range row {
				args = append(args, valueArg(v))
			}
			args = append(args, 0, 0)
		}
		q := fmt.Sprintf("INSERT INTO %s VALUES %s", table, placeholderRows(len(chunk), width))
		if _, err := d.db.Exec(q, args...); err != nil {
			return fmt.Errorf("detect: shard insert: %w", err)
		}
	}
	return nil
}

// --- pattern-row gather/merge plumbing ---

// patRow is one gathered row of an Aux-shaped or macro-shaped result:
// the CID plus its text columns (W blanked pattern columns for Aux
// rows, 2W pattern+RHS columns for macro rows).
type patRow struct {
	cid  int64
	cols []string
}

func patLess(a, b patRow) bool {
	if a.cid != b.cid {
		return a.cid < b.cid
	}
	for i := range a.cols {
		if a.cols[i] != b.cols[i] {
			return a.cols[i] < b.cols[i]
		}
	}
	return false
}

func patEq(a, b patRow) bool {
	if a.cid != b.cid {
		return false
	}
	for i := range a.cols {
		if a.cols[i] != b.cols[i] {
			return false
		}
	}
	return true
}

// mergePatRows unions per-shard row sets into one sorted,
// duplicate-free list — the gather side of the macro export, and what
// makes the merged result independent of shard count and task
// scheduling.
func mergePatRows(sets [][]patRow) []patRow {
	var all []patRow
	for _, s := range sets {
		all = append(all, s...)
	}
	sort.Slice(all, func(i, j int) bool { return patLess(all[i], all[j]) })
	out := all[:0]
	for i, r := range all {
		if i > 0 && patEq(r, all[i-1]) {
			continue
		}
		out = append(out, r)
	}
	return out
}

// groupViolating finishes the Qmv aggregation over merged macro rows
// (already deduped: per-shard DISTINCT + global dedupe = global
// DISTINCT, since DISTINCT commutes with union). Rows group by
// (CID, first w columns); a group with more than one surviving row has
// more than one distinct blanked RHS combination — the HAVING
// COUNT(*) > 1 of Fig. 4 — and its key joins Aux.
func groupViolating(macro []patRow, w int) []patRow {
	var out []patRow
	for i := 0; i < len(macro); {
		j := i + 1
		for j < len(macro) && macro[j].cid == macro[i].cid &&
			eqPrefix(macro[j].cols, macro[i].cols, w) {
			j++
		}
		if j-i > 1 {
			out = append(out, patRow{cid: macro[i].cid, cols: macro[i].cols[:w]})
		}
		i = j
	}
	return out
}

func eqPrefix(a, b []string, w int) bool {
	for i := 0; i < w; i++ {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// queryPatRows reads rows of shape (CID, text...): the macro exports.
func (d *Detector) queryPatRows(q string, args ...any) ([]patRow, error) {
	rows, err := d.db.Query(q, args...)
	if err != nil {
		return nil, err
	}
	defer rows.Close()
	ctypes, err := rows.Columns()
	if err != nil {
		return nil, err
	}
	w := len(ctypes) - 1
	var out []patRow
	for rows.Next() {
		var cid int64
		cells := make([]string, w)
		ptrs := make([]any, w+1)
		ptrs[0] = &cid
		for i := range cells {
			ptrs[i+1] = &cells[i]
		}
		if err := rows.Scan(ptrs...); err != nil {
			return nil, err
		}
		out = append(out, patRow{cid: cid, cols: cells})
	}
	return out, rows.Err()
}

// insertPatRows installs pattern rows into an Aux-shaped table with
// batched parameterized inserts.
func (d *Detector) insertPatRows(table string, rows []patRow) error {
	if len(rows) == 0 {
		return nil
	}
	width := 1 + len(rows[0].cols)
	for start := 0; start < len(rows); start += insertBatch {
		end := start + insertBatch
		if end > len(rows) {
			end = len(rows)
		}
		chunk := rows[start:end]
		args := make([]any, 0, len(chunk)*width)
		for _, r := range chunk {
			args = append(args, r.cid)
			for _, c := range r.cols {
				args = append(args, c)
			}
		}
		q := fmt.Sprintf("INSERT INTO %s VALUES %s", table, placeholderRows(len(chunk), width))
		if _, err := d.db.Exec(q, args...); err != nil {
			return fmt.Errorf("detect: install pattern rows: %w", err)
		}
	}
	return nil
}

// --- detection ---

// BatchDetect runs the static detection scatter-gather:
//
//	A. every shard (parallel): reset flags, Qsv (shard-local — SV is a
//	   per-tuple property), clear the Aux replica;
//	B. one DISTINCT macro export per non-empty shard (parallel), then
//	   gather, dedupe, finish the Qmv grouping in Go;
//	C. broadcast the violating group keys into every shard's Aux
//	   replica, then flag MV shard-local.
//
// The result is byte-identical to Detector.BatchDetect.
func (s *ShardedDetector) BatchDetect() (BatchStats, error) {
	start := time.Now()
	fail := func(err error) (BatchStats, error) {
		return BatchStats{}, fmt.Errorf("detect: sharded: %w", err)
	}

	// Phase A: shard-local Qsv + reset; note row counts for pruning.
	counts := make([]int, len(s.shards))
	err := s.eachShard(func(i int, sh *shardStore) error {
		if _, err := sh.d.db.Exec(sh.d.stmts.shardBatchPre); err != nil {
			return err
		}
		var err error
		counts[i], err = sh.d.eng.TableLen(sh.d.dataTable)
		return err
	})
	if err != nil {
		return fail(err)
	}

	// Phase B: DISTINCT macro export from every non-empty shard, over
	// the whole CID range.
	var tasks []func() error
	macroSets := make([][]patRow, len(s.shards))
	for i, sh := range s.shards {
		if counts[i] == 0 {
			continue
		}
		tasks = append(tasks, func() error {
			rows, err := sh.d.queryPatRows(sh.d.stmts.qmvMacroCIDRng, 1, len(s.coord.sigma))
			macroSets[i] = rows
			return err
		})
	}
	if err := runTasks(len(tasks), tasks); err != nil {
		return fail(err)
	}
	groups := groupViolating(mergePatRows(macroSets), len(s.coord.schema.Attrs))

	// Phase C: broadcast Aux, flag MV shard-local.
	err = s.eachShard(func(i int, sh *shardStore) error {
		// Every shard's replica gets the full Aux (an empty shard can
		// receive rows later); the MV scan is skipped where no rows exist.
		if err := sh.d.insertPatRows(sh.d.auxTable, groups); err != nil {
			return err
		}
		if counts[i] == 0 || len(groups) == 0 {
			return nil
		}
		_, err := sh.d.db.Exec(sh.d.stmts.mvUpdate)
		return err
	})
	if err != nil {
		return fail(err)
	}

	sv, mv, total, err := s.Counts()
	if err != nil {
		return fail(err)
	}
	return BatchStats{SV: sv, MV: mv, Total: total, Elapsed: time.Since(start)}, nil
}

// --- reads ---

// gatherViolations merges per-shard violation relations by RID. RIDs
// are globally unique, so the sort-merge is total and deterministic.
func gatherViolations(rels []*relation.Relation) *relation.Relation {
	out := relation.New(rels[0].Schema)
	for _, r := range rels {
		out.Rows = append(out.Rows, r.Rows...)
	}
	sort.Slice(out.Rows, func(i, j int) bool { return out.Rows[i][0].I < out.Rows[j][0].I })
	return out
}

// Violations gathers the violation set of every shard, merged in RID
// order — byte-identical to Detector.Violations on an unsharded store.
func (s *ShardedDetector) Violations() (*relation.Relation, error) {
	rels := make([]*relation.Relation, len(s.shards))
	err := s.eachShard(func(i int, sh *shardStore) error {
		var err error
		rels[i], err = sh.d.Violations()
		return err
	})
	if err != nil {
		return nil, err
	}
	return gatherViolations(rels), nil
}

// Counts sums the per-shard (DSV, DMV, |vio|) counters.
func (s *ShardedDetector) Counts() (sv, mv, total int64, err error) {
	svs := make([]int64, len(s.shards))
	mvs := make([]int64, len(s.shards))
	tots := make([]int64, len(s.shards))
	err = s.eachShard(func(i int, sh *shardStore) error {
		var err error
		svs[i], mvs[i], tots[i], err = sh.d.Counts()
		return err
	})
	if err != nil {
		return 0, 0, 0, err
	}
	for i := range svs {
		sv += svs[i]
		mv += mvs[i]
		total += tots[i]
	}
	return sv, mv, total, nil
}
