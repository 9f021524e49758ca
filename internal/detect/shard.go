package detect

import (
	"database/sql"
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"ecfd/internal/core"
	"ecfd/internal/relation"
	"ecfd/internal/sqldriver"
)

// ShardedDetector partitions the data table by RID hash-range across K
// independent in-memory stores and runs the fixed detection statement
// set on every shard in parallel — shard-per-core scaling where
// ParallelDetect's workers still contend on one store's epoch pointer,
// column caches and indexes.
//
// Layout:
//
//   - each shard is a full private sqldb engine (own epochs, indexes,
//     column caches, plan cache) holding only its RID partition of the
//     data, plus private replicas of the Σ encoding and of the small
//     derived tables (Aux, keys, staging) that the per-shard statements
//     probe;
//   - the coordinator store (the handle NewSharded was given) keeps the
//     authoritative copies of Σ, Aux and the full data table — it is the
//     write-through durability anchor, the RID allocator, and the
//     restart source (Resume);
//   - rows route by the order-preserving RID key of shardkey.go, so
//     RID-range reads (ViolationsInRange) prune to the shards owning the
//     intersected blocks.
//
// Execution is scatter-gather. Per-tuple work (Qsv, flag maintenance)
// runs entirely shard-local: a tuple violates by itself independently
// of where other tuples live. The Qmv grouping is the one operator
// whose groups span shards, and it distributes by partial aggregation:
// the macro of Fig. 4 is a DISTINCT projection, so each shard exports
// its DISTINCT macro rows, and after a global dedupe the surviving rows
// are exactly the global DISTINCT macro — the coordinator finishes the
// GROUP BY / HAVING COUNT(*) > 1 in Go and broadcasts the violating
// group keys back into every shard's Aux replica, where the MV flagging
// proceeds shard-local again.
//
// Every gather sorts its merged rows, so flags, Aux contents and
// Violations() are byte-identical to a serial BatchDetect regardless of
// shard count or scheduling (the differential test pins this for
// K ∈ {1, 2, 4, 8}).
//
// Deprecated: 0.97–1.06× over BatchDetect at nproc = 2, parked, and off
// every product surface. It compiles only for benchmark/layers.go's
// detect.sharded_* metrics and this package's tests; ROADMAP 1(a) drops
// the metrics, item 2 then deletes shard.go and shardkey.go.
type ShardedDetector struct {
	coord   *Detector
	shards  []*shardStore
	workers int
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
	// Workers sizes the scatter pool. <= 0 selects
	// max(Shards, GOMAXPROCS).
	Workers int
}

var shardSeq atomic.Int64

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
		k = runtime.GOMAXPROCS(0)
		if k > 64 {
			k = 64
		}
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
		if workers < k {
			workers = k
		}
	}
	s := &ShardedDetector{coord: coord, workers: workers}
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

// eachShard runs fn on every shard through the worker pool.
func (s *ShardedDetector) eachShard(fn func(i int, sh *shardStore) error) error {
	tasks := make([]func() error, len(s.shards))
	for i, sh := range s.shards {
		i, sh := i, sh
		tasks[i] = func() error { return fn(i, sh) }
	}
	return runTasks(s.workers, tasks)
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
// (which assigns the RIDs) and scatters the rows to their owning
// shards, fanning the batched inserts shard-parallel.
func (s *ShardedDetector) LoadData(inst *relation.Relation) ([]int64, error) {
	rids, err := s.coord.LoadData(inst)
	if err != nil {
		return nil, err
	}
	if err := s.scatterRows(s.coord.dataTable, inst.Rows, rids); err != nil {
		return nil, err
	}
	return rids, nil
}

// scatterRows routes (row, rid) pairs per shard and inserts each
// shard's slice in parallel. table names the destination by its
// coordinator-side name (shard tables share names — same schema).
func (s *ShardedDetector) scatterRows(table string, rows []relation.Tuple, rids []int64) error {
	k := len(s.shards)
	perRows := make([][]relation.Tuple, k)
	perRids := make([][]int64, k)
	for i, rid := range rids {
		sh := shardOf(rid, k)
		perRows[sh] = append(perRows[sh], rows[i])
		perRids[sh] = append(perRids[sh], rid)
	}
	return s.eachShard(func(i int, sh *shardStore) error {
		if len(perRids[i]) == 0 {
			return nil
		}
		return sh.d.insertAssigned(table, perRows[i], perRids[i])
	})
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
// the CID plus its text columns (W blanked pattern columns for keys and
// Aux rows, 2W pattern+RHS columns for macro rows).
type patRow struct {
	cid  int64
	cols []string
}

// key renders a collision-free identity for set membership
// (length-prefixed so no column values can alias across boundaries).
func (p patRow) key() string {
	var b strings.Builder
	b.WriteString(strconv.FormatInt(p.cid, 10))
	for _, c := range p.cols {
		b.WriteByte('|')
		b.WriteString(strconv.Itoa(len(c)))
		b.WriteByte(':')
		b.WriteString(c)
	}
	return b.String()
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
// duplicate-free list — the gather side of every scatter phase, and
// what makes the merged result independent of shard count and task
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

// queryPatRows reads rows of shape (CID, text...) — macro exports and
// pattern-table reads share it.
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
//	B. scatter the macro export over non-empty shards × CID ranges,
//	   gather, dedupe, finish the Qmv grouping in Go;
//	C. broadcast the violating group keys into the coordinator Aux and
//	   every shard's replica, then flag MV shard-local.
//
// The result is byte-identical to Detector.BatchDetect.
func (s *ShardedDetector) BatchDetect() (BatchStats, error) {
	start := time.Now()
	fail := func(err error) (BatchStats, error) {
		return BatchStats{}, fmt.Errorf("detect: sharded: %w", err)
	}

	// Phase A: shard-local Qsv + reset; note row counts for pruning.
	counts := make([]int64, len(s.shards))
	err := s.eachShard(func(i int, sh *shardStore) error {
		if _, err := sh.d.db.Exec(sh.d.stmts.shardBatchPre); err != nil {
			return err
		}
		_, _, n, err := sh.d.ridBounds()
		counts[i] = n
		return err
	})
	if err != nil {
		return fail(err)
	}

	// Phase B: DISTINCT macro export from every non-empty shard, fanned
	// over CID ranges when workers outnumber shards.
	var nonEmpty []int
	for i, n := range counts {
		if n > 0 {
			nonEmpty = append(nonEmpty, i)
		}
	}
	var groups []patRow
	if len(nonEmpty) > 0 {
		per := s.workers / len(nonEmpty)
		if per < 1 {
			per = 1
		}
		ranges := cidRanges(len(s.coord.sigma), per)
		macroSets := make([][]patRow, len(nonEmpty)*len(ranges))
		var tasks []func() error
		for ti, si := range nonEmpty {
			for ri, cr := range ranges {
				slot := ti*len(ranges) + ri
				sh, cr := s.shards[si], cr
				tasks = append(tasks, func() error {
					rows, err := sh.d.queryPatRows(sh.d.stmts.qmvMacroCIDRng, cr[0], cr[1])
					macroSets[slot] = rows
					return err
				})
			}
		}
		if err := runTasks(s.workers, tasks); err != nil {
			return fail(err)
		}
		groups = groupViolating(mergePatRows(macroSets), len(s.coord.schema.Attrs))
	}

	// Phase C: broadcast Aux, flag MV shard-local.
	if _, err := s.coord.db.Exec("TRUNCATE TABLE " + s.coord.auxTable); err != nil {
		return fail(err)
	}
	if err := s.coord.insertPatRows(s.coord.auxTable, groups); err != nil {
		return fail(err)
	}
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

// ApplyUpdates applies a combined update ΔD = (ΔD⁻, ΔD⁺) across the
// shards, incrementally maintaining flags and the Aux replicas — the
// sharded form of Detector.ApplyUpdates, with the same four-stage
// shape split around the gather/broadcast points:
//
//  1. write-through to the coordinator (RID allocation + durable
//     copy); route the batch; every shard stages its slice, flags SV
//     on it, and exports the group keys its ΔD touches;
//  2. broadcast the merged keys; every shard trims its touched Aux
//     rows and applies ΔD to its partition;
//  3. scatter the keys-restricted macro export, gather, regroup — the
//     recomputed state of every touched group;
//  4. broadcast the recomputed groups (and the newly-violating subset)
//     to the coordinator Aux and every replica; flag MV shard-local.
//
// Requires current flags/Aux (run BatchDetect once after LoadData).
func (s *ShardedDetector) ApplyUpdates(insBatch *relation.Relation, delRids []int64) ([]int64, IncStats, error) {
	start := time.Now()
	fail := func(err error) ([]int64, IncStats, error) {
		return nil, IncStats{}, fmt.Errorf("detect: sharded update: %w", err)
	}
	k := len(s.shards)
	w := len(s.coord.schema.Attrs)

	// Stage 1a: coordinator write-through. The coordinator allocates the
	// RIDs the routing needs.
	firstRID := s.coord.nextRID + 1
	var rids []int64
	var insRows []relation.Tuple
	if insBatch != nil && insBatch.Len() > 0 {
		var err error
		if rids, err = s.coord.InsertRaw(insBatch); err != nil {
			return fail(err)
		}
		insRows = insBatch.Rows
	}
	removed, err := s.coord.deleteRaw(delRids)
	if err != nil {
		return fail(err)
	}
	applied := int64(len(rids)) + removed

	// Stage 1b: route, stage, flag SV, export touched keys. Every shard
	// participates — staging tables must be truncated everywhere, or a
	// shard that sat out this batch replays a stale one.
	insPerRows := make([][]relation.Tuple, k)
	insPerRids := make([][]int64, k)
	for i, rid := range rids {
		sh := shardOf(rid, k)
		insPerRows[sh] = append(insPerRows[sh], insRows[i])
		insPerRids[sh] = append(insPerRids[sh], rid)
	}
	delPer := make([][]int64, k)
	for _, rid := range delRids {
		sh := shardOf(rid, k)
		delPer[sh] = append(delPer[sh], rid)
	}
	keySets := make([][]patRow, k)
	err = s.eachShard(func(i int, sh *shardStore) error {
		if _, err := sh.d.db.Exec("TRUNCATE TABLE " + sh.d.insTable); err != nil {
			return err
		}
		if err := sh.d.insertAssigned(sh.d.insTable, insPerRows[i], insPerRids[i]); err != nil {
			return err
		}
		if err := sh.d.loadDelRids(sh.d.db, delPer[i]); err != nil {
			return err
		}
		if _, err := sh.d.db.Exec(sh.d.stmts.shardIncPre); err != nil {
			return err
		}
		rows, err := sh.d.queryPatRows(sh.d.stmts.keysSelect)
		keySets[i] = rows
		return err
	})
	if err != nil {
		return fail(err)
	}
	keys := mergePatRows(keySets)

	// The previously-violating touched groups, read from the
	// coordinator's authoritative Aux before anything is trimmed — the
	// auxSaveOld snapshot of the serial path.
	coordAux, err := s.coord.queryPatRows(s.coord.stmts.auxSelect)
	if err != nil {
		return fail(err)
	}
	keySet := make(map[string]bool, len(keys))
	for _, r := range keys {
		keySet[r.key()] = true
	}
	oldSet := make(map[string]bool)
	var auxOld []patRow
	for _, r := range coordAux {
		if keySet[r.key()] {
			oldSet[r.key()] = true
			auxOld = append(auxOld, r)
		}
	}

	// Stage 2: broadcast the merged keys, trim touched Aux rows, apply
	// ΔD to every partition.
	err = s.eachShard(func(i int, sh *shardStore) error {
		if _, err := sh.d.db.Exec("TRUNCATE TABLE " + sh.d.keysTable); err != nil {
			return err
		}
		if err := sh.d.insertPatRows(sh.d.keysTable, keys); err != nil {
			return err
		}
		_, err := sh.d.db.Exec(sh.d.stmts.shardIncMid)
		return err
	})
	if err != nil {
		return fail(err)
	}

	// Stage 3: recompute the touched groups — keys-restricted macro
	// export from every shard, regrouped globally.
	macroSets := make([][]patRow, k)
	err = s.eachShard(func(i int, sh *shardStore) error {
		rows, err := sh.d.queryPatRows(sh.d.stmts.qmvMacroKeys)
		macroSets[i] = rows
		return err
	})
	if err != nil {
		return fail(err)
	}
	recomputed := groupViolating(mergePatRows(macroSets), w)
	var auxNew []patRow
	for _, r := range recomputed {
		if !oldSet[r.key()] {
			auxNew = append(auxNew, r)
		}
	}

	// Stage 4a: coordinator Aux maintenance (trim touched, add
	// recomputed) so the authoritative copy tracks the replicas exactly.
	if _, err := s.coord.db.Exec("TRUNCATE TABLE " + s.coord.keysTable); err != nil {
		return fail(err)
	}
	if err := s.coord.insertPatRows(s.coord.keysTable, keys); err != nil {
		return fail(err)
	}
	if _, err := s.coord.db.Exec(s.coord.stmts.auxDeleteAff); err != nil {
		return fail(err)
	}
	if err := s.coord.insertPatRows(s.coord.auxTable, recomputed); err != nil {
		return fail(err)
	}

	// Stage 4b: broadcast the recomputed groups, the newly-violating ones
	// and the previously-violating touched ones, and flag MV shard-local
	// (mvSetNew on the merged batch rows, mvSetOld on pre-existing rows
	// of newly-violating groups, mvClear on no-longer-matching rows of
	// previously-violating groups).
	err = s.eachShard(func(i int, sh *shardStore) error {
		if err := sh.d.insertPatRows(sh.d.auxTable, recomputed); err != nil {
			return err
		}
		for _, st := range []struct {
			table string
			rows  []patRow
		}{{sh.d.auxNewTable, auxNew}, {sh.d.auxOldTable, auxOld}} {
			if _, err := sh.d.db.Exec("TRUNCATE TABLE " + st.table); err != nil {
				return err
			}
			if err := sh.d.insertPatRows(st.table, st.rows); err != nil {
				return err
			}
		}
		_, err := sh.d.db.Exec(sh.d.stmts.shardIncPost, firstRID, firstRID)
		return err
	})
	if err != nil {
		return fail(err)
	}
	return rids, IncStats{Applied: applied, Elapsed: time.Since(start)}, nil
}

// --- reads ---

// gatherViolations merges per-shard violation relations by RID. RIDs
// are globally unique, so the sort-merge is total and deterministic.
func gatherViolations(rels []*relation.Relation) *relation.Relation {
	var first *relation.Relation
	for _, r := range rels {
		if r != nil {
			first = r
			break
		}
	}
	if first == nil {
		return nil
	}
	out := relation.New(first.Schema)
	for _, r := range rels {
		if r != nil {
			out.Rows = append(out.Rows, r.Rows...)
		}
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

// ViolationsInRange returns the violations with lo <= RID <= hi. The
// order-preserving routing key prunes the scatter to the shards owning
// blocks the range intersects — a range within one routing block reads
// exactly one shard.
func (s *ShardedDetector) ViolationsInRange(lo, hi int64) (*relation.Relation, error) {
	prune := shardsForRIDRange(lo, hi, len(s.shards))
	rels := make([]*relation.Relation, len(prune))
	tasks := make([]func() error, len(prune))
	cond := fmt.Sprintf("%s >= ? AND %s <= ?", ColRID, ColRID)
	for ti, si := range prune {
		ti, sh := ti, s.shards[si]
		tasks[ti] = func() error {
			var err error
			rels[ti], err = sh.d.violationsVia(sh.d.db, cond, []any{lo, hi})
			return err
		}
	}
	if err := runTasks(s.workers, tasks); err != nil {
		return nil, err
	}
	out := gatherViolations(rels)
	if out == nil {
		// Empty prune set (k == 0 never happens, but hi < lo can): shape
		// the empty result like a normal read.
		return s.coord.violationsVia(s.coord.db, "1 = 0", nil)
	}
	return out, nil
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

// RIDs returns every row id across the shards, ordered.
func (s *ShardedDetector) RIDs() ([]int64, error) {
	sets := make([][]int64, len(s.shards))
	err := s.eachShard(func(i int, sh *shardStore) error {
		var err error
		sets[i], err = sh.d.RIDs()
		return err
	})
	if err != nil {
		return nil, err
	}
	return mergeRIDs(sets), nil
}

// Resume rebinds to a coordinator store recovered by a previous
// process (durable DSN + Resume semantics of Detector.Resume) and
// rebuilds the volatile shards from the recovered data: fresh shard
// Install, then a routed re-scatter of the coordinator's data table.
// Flags and Aux replicas are rebuilt by the next BatchDetect — the
// recovered coordinator copy carries rows, not detection state.
func (s *ShardedDetector) Resume() error {
	if err := s.coord.Resume(); err != nil {
		return err
	}
	if err := s.eachShard(func(_ int, sh *shardStore) error {
		return sh.d.Install()
	}); err != nil {
		return err
	}
	// Stream the recovered rows in RID order and re-scatter them.
	cols := []string{ColRID}
	for _, a := range s.coord.schema.Attrs {
		cols = append(cols, a.Name)
	}
	q := fmt.Sprintf("SELECT %s FROM %s ORDER BY %s",
		strings.Join(cols, ", "), s.coord.dataTable, ColRID)
	rows, err := s.coord.db.Query(q)
	if err != nil {
		return err
	}
	defer rows.Close()
	var rids []int64
	var tuples []relation.Tuple
	attrs := s.coord.schema.Attrs
	for rows.Next() {
		var rid int64
		cells := make([]sql.NullString, len(attrs))
		ptrs := make([]any, len(attrs)+1)
		ptrs[0] = &rid
		for i := range cells {
			ptrs[i+1] = &cells[i]
		}
		if err := rows.Scan(ptrs...); err != nil {
			return err
		}
		t := make(relation.Tuple, len(attrs))
		for i, c := range cells {
			if !c.Valid {
				t[i] = relation.Null()
				continue
			}
			v, err := relation.ParseLiteral(c.String, attrs[i].Kind)
			if err != nil {
				return err
			}
			t[i] = v
		}
		rids = append(rids, rid)
		tuples = append(tuples, t)
	}
	if err := rows.Err(); err != nil {
		return err
	}
	return s.scatterRows(s.coord.dataTable, tuples, rids)
}
