package sqldb

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"strings"

	"ecfd/internal/relation"
)

// This file is the query planner. Compilation (planWhere) decomposes a
// SELECT's WHERE clause into conjuncts, each conjunct into its OR
// alternatives, and annotates every piece with the set of FROM sources
// it reads. Execution (buildSchedule / runPlan) then replaces the
// all-pairs nested loop with a planned join:
//
//   - sources are visited smallest-first, so a 10-row pattern table
//     drives the loop over a 100k-row data table and not the reverse;
//     below reorderMinRows rows the source the most parts read alone
//     drives (leadOrder), so the pattern table drives an 8-row batch too;
//   - equality conjuncts between a source and already-bound values
//     become an index probe when they bind every column of a persistent
//     secondary index (the widest such, probeIndex); the ones it leaves
//     out, like every equality when none qualifies, stay filters of the
//     level like any other conjunct;
//   - every conjunct is evaluated at the outermost level where all of
//     its sources are bound (predicate pushdown), pruning the join
//     subtree as early as possible; one reading no source of the scope
//     is evaluated once before the loop;
//   - OR conjuncts run as OR-group kernels at their last level: the
//     parts of an alternative that never read that level's source bind
//     once per level entry, so the paper's Fig. 4 guards like
//     "c.A_L <> 1" resolve once per pattern tuple and the expensive set
//     probes only run for the few attributes a pattern constrains. A
//     conjunct no kernel takes is decided whole, per row, at its level.
//
// The planner never changes semantics: a row combination is emitted
// iff every conjunct has an alternative whose parts all hold, which is
// exactly Truth(WHERE) under SQL three-valued logic. Evaluation order
// of (side-effect-free) predicates is the only thing that shifts.

// Mode selects whether a DB compiles the optimizer into its plans. The
// differential suites and the ablation benchmark run the same statements
// under Reference; production code leaves a DB in Planned.
type Mode int32

const (
	// Planned is the default: planned joins, batch kernels over the
	// segments' columns, decorrelated subqueries.
	Planned Mode = iota
	// Reference is the ground truth Planned is compared with. It shares
	// no analysis with it: the all-pairs nested loop over the monolithic
	// WHERE closure, EXISTS re-executed per row, the per-row DML filter,
	// no streamed grouping, no projection cache.
	Reference
)

// SetMode switches the DB's execution mode. The mode is an input of
// compilation and of nothing else — a cached plan is valid for the mode
// it was compiled under (planFor), so the next execution of every
// statement recompiles, and no executor loop ever reads it. Call it
// between statements: one being compiled while the mode changes may
// mix the two.
func (db *DB) SetMode(m Mode) { db.mode.Store(int32(m)) }

func (db *DB) execMode() Mode { return Mode(db.mode.Load()) }

// reorderMinRows is the largest-source threshold below which sizes do
// not order the join: a tiny join takes its lead order (leadOrder). That
// still matters there: over an 8-row staged batch it puts the detector's
// pattern table outermost, so the OR-group kernels decide each guard once
// per pattern row rather than once per (tuple, pattern) pair.
const reorderMinRows = 64

// srcMask is a bitset over the FROM sources of one SELECT scope.
type srcMask uint64

// planTerm is one OR alternative of a conjunct. Its AND factors are
// kept separate so an OR-group kernel can bind the ones that never read
// its level's source once per entry: an alternative like "c.A_R = 1 AND
// <probe over t>" has its guard evaluated once per c row, and the probe
// only runs for the few alternatives the guard leaves alive.
type planTerm struct {
	parts []planPart
}

// planPart is one AND factor of an OR alternative. kp holds the
// generalized batch-kernel compilations of the part (one per source
// orientation that qualifies — simple kernels, probe kernels, nested
// disjunctions); buildSchedule consumes them for plain conjuncts and
// whole OR groups so the level filters a selection vector instead of
// dispatching ex per row.
type planPart struct {
	ex   compiledExpr
	srcs srcMask
	kp   []kpredCand
	// rowOnly: the part reads the rows of srcs and literals and nothing
	// else — no parameter, outer scope or subquery — so over one table
	// version a row of its one source decides it for good (bindMemo).
	rowOnly bool
}

// planConjunct is one AND conjunct of the WHERE clause.
type planConjunct struct {
	terms []planTerm
	srcs  srcMask
	eqs   []equiSide  // equality shapes usable as join/probe keys
	rngs  []rangeSide // inequality shapes usable as range-scan bounds
	// rngIncl marks a single inclusive bound (<= / >=): adopted by a
	// range scan, it makes the retained filter redundant. A strict bound
	// never does.
	rngIncl bool
}

// holds decides the conjunct whole for the bound rows: it passes when
// every part of some alternative is true.
func (pc *planConjunct) holds(en *env) (bool, error) {
	for _, t := range pc.terms {
		ok := true
		for _, p := range t.parts {
			v, err := p.ex(en)
			if err != nil {
				return false, err
			}
			if !v.Truth() {
				ok = false
				break
			}
		}
		if ok {
			return true, nil
		}
	}
	return false, nil
}

// equiSide describes sources[src].col = key, with key reading only the
// sources in otherSrcs (plus outer scopes, parameters and constants).
type equiSide struct {
	src, col  int
	otherSrcs srcMask
	key       compiledExpr
}

// rangeSide describes a single-term inequality bound on a column:
// sources[src].col >= key (lower true) or <= key (lower false), with
// key reading only otherSrcs. Bounds are recorded inclusively — range
// pruning is conservative: a strict bound (<, >) prunes inclusively and
// keeps its filter, while an inclusive bound adopted by the scan is
// *exactly* implied by the prune, so buildSchedule elides the redundant
// filter (planConjunct.rngIncl tells the two apart).
type rangeSide struct {
	src, col  int
	lower     bool
	otherSrcs srcMask
	key       compiledExpr
}

// planWhere decomposes the WHERE clause for cs. On any analysis
// failure, and always in Reference mode, it leaves cs.planOK false and
// the executor runs the nested loop over cs.where.
func (c *compiler) planWhere(where Expr, cs *compiledSelect) {
	cs.planOK = false
	if len(cs.sources) == 0 || len(cs.sources) > 64 || c.db.execMode() == Reference {
		return
	}
	depth := cs.depth
	var conjExprs []Expr
	splitConjuncts(where, &conjExprs)
	conjs := make([]*planConjunct, 0, len(conjExprs))
	for _, cj := range conjExprs {
		var termExprs []Expr
		flattenLogical("OR", cj, &termExprs)
		pc := &planConjunct{}
		for _, te := range termExprs {
			var partExprs []Expr
			splitConjuncts(te, &partExprs)
			var pt planTerm
			for _, pe := range partExprs {
				var mask srcMask
				err := c.walkBindings(pe, func(b binding) {
					if b.depth == depth {
						mask |= 1 << uint(b.src)
					}
				})
				if err != nil {
					return
				}
				ex, err := c.compileExpr(pe)
				if err != nil {
					return
				}
				part := planPart{ex: ex, srcs: mask, rowOnly: c.rowOnly(pe, depth)}
				if mask != 0 {
					// Every part that reads a current-scope source gets its
					// kernel candidates: plain conjuncts consume simple
					// kernels, and whole OR groups are consumed when every
					// source-reading part of every alternative kernelizes.
					part.kp = c.extractKPred(pe, depth)
				}
				pt.parts = append(pt.parts, part)
				pc.srcs |= mask
			}
			pc.terms = append(pc.terms, pt)
		}
		if len(pc.terms) == 1 {
			c.extractEqui(termExprs[0], depth, pc)
			c.extractRange(termExprs[0], depth, pc)
		}
		conjs = append(conjs, pc)
	}
	cs.conjs = conjs
	cs.lead = leadOrder(conjs, len(cs.sources))
	cs.planOK = true
}

// rowOnly reports whether e reads only literals and columns of the
// scope at depth: no parameter, no outer-scope column, no subquery. Its
// value is then fixed by one row of that scope, so a plan instance may
// keep what it derives from it across executions (bindMemo, and the
// filters of a kept hash build, decorrProbe.keep).
func (c *compiler) rowOnly(e Expr, depth int) bool {
	switch x := e.(type) {
	case nil, *Literal:
		return true
	case *ColumnRef:
		b, err := c.resolve(x)
		return err == nil && b.depth == depth
	case *Binary:
		return c.rowOnly(x.L, depth) && c.rowOnly(x.R, depth)
	case *IsNull:
		return c.rowOnly(x.X, depth)
	case *Case:
		return c.rowOnly(x.Cond, depth) && c.rowOnly(x.Then, depth) && c.rowOnly(x.Else, depth)
	case *FuncCall:
		for _, a := range x.Args {
			if !c.rowOnly(a, depth) {
				return false
			}
		}
		return true
	}
	return false // *Param, *Exists, *InSelect
}

// leadOrder ranks the sources for a tiny join: by how many parts read
// that source alone, most first, FROM order among equals. Such parts are
// an alternative's guards — the pattern row's "c.A_L <> 1", a per-CID
// EXISTS — and one-source filters: leading, their source decides them
// once per row of its own, and the OR-group kernels below bind them once
// per entry instead of per (row, pattern) pair.
func leadOrder(conjs []*planConjunct, n int) []int {
	alone := make([]int, n)
	for _, pc := range conjs {
		for _, t := range pc.terms {
			for _, p := range t.parts {
				if bits.OnesCount64(uint64(p.srcs)) == 1 {
					alone[bits.TrailingZeros64(uint64(p.srcs))]++
				}
			}
		}
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(alone[b], alone[a]) })
	return order
}

// extractEqui records the join-key shapes of a single-term equality
// conjunct, trying both orientations.
func (c *compiler) extractEqui(e Expr, depth int, pc *planConjunct) {
	b, ok := e.(*Binary)
	if !ok || b.Op != "=" {
		return
	}
	try := func(colSide, keySide Expr) {
		ref, ok := colSide.(*ColumnRef)
		if !ok {
			return
		}
		bd, err := c.resolve(ref)
		if err != nil || bd.depth != depth {
			return
		}
		var keyMask srcMask
		if err := c.walkBindings(keySide, func(kb binding) {
			if kb.depth == depth {
				keyMask |= 1 << uint(kb.src)
			}
		}); err != nil {
			return
		}
		if keyMask&(1<<uint(bd.src)) != 0 {
			return // key side reads the build source itself
		}
		kex, err := c.compileExpr(keySide)
		if err != nil {
			return
		}
		pc.eqs = append(pc.eqs, equiSide{src: bd.src, col: bd.col, otherSrcs: keyMask, key: kex})
	}
	try(b.L, b.R)
	try(b.R, b.L)
}

// extractRange records the range-bound shapes of a single-term
// inequality conjunct (<, <=, >, >=). The bound key must
// not read the bounded source itself; outer scopes, parameters and
// constants are fine. Strict bounds are never consumed — range pruning
// restricts the scan, the retained filter enforces exact semantics.
// An inclusive bound sets pc.rngIncl, and buildSchedule elides the
// filter when the index prune adopts it.
func (c *compiler) extractRange(e Expr, depth int, pc *planConjunct) {
	record := func(colSide, keySide Expr, lower bool) {
		ref, ok := colSide.(*ColumnRef)
		if !ok {
			return
		}
		bd, err := c.resolve(ref)
		if err != nil || bd.depth != depth {
			return
		}
		var keyMask srcMask
		if err := c.walkBindings(keySide, func(kb binding) {
			if kb.depth == depth {
				keyMask |= 1 << uint(kb.src)
			}
		}); err != nil {
			return
		}
		if keyMask&(1<<uint(bd.src)) != 0 {
			return
		}
		kex, err := c.compileExpr(keySide)
		if err != nil {
			return
		}
		pc.rngs = append(pc.rngs, rangeSide{src: bd.src, col: bd.col, lower: lower, otherSrcs: keyMask, key: kex})
	}
	x, ok := e.(*Binary)
	if !ok {
		return
	}
	switch x.Op {
	case "<", "<=":
		record(x.L, x.R, false) // col <= key: upper bound
		record(x.R, x.L, true)  // key <= col: lower bound
	case ">", ">=":
		record(x.L, x.R, true)
		record(x.R, x.L, false)
	default:
		return
	}
	pc.rngIncl = (x.Op == "<=" || x.Op == ">=") && len(pc.rngs) > 0
}

// planOrderBy records the index-served ORDER BY candidate on cs: all
// sort keys are columns of one base-table source. Whether an index actually
// covers the column prefix is decided per schedule (indexes can appear
// via CREATE INDEX, which recompiles plans) in buildSchedule. For
// multi-table joins the candidate is served only when that source is
// already the join order's first pick — the driving level then emits
// rows grouped by its sort keys, every deeper level fans out inside one
// key group, and the final sort disappears. The planner never *forces*
// the ordered source to drive: inverting the smallest-first join order
// would cost far more than the sort saves.
func (c *compiler) planOrderBy(sel *Select, cs *compiledSelect) {
	cs.ordSrc = -1
	if !cs.planOK || cs.grouped || len(sel.OrderBy) == 0 {
		return
	}
	src := -1
	var cols []int
	for _, ref := range sel.OrderBy {
		bd, err := c.resolve(ref)
		if err != nil || bd.depth != cs.depth {
			return
		}
		if src < 0 {
			src = bd.src
		} else if bd.src != src {
			return // keys spanning sources: no single index order serves
		}
		cols = append(cols, bd.col)
	}
	if src < 0 || cs.sources[src].table == nil {
		return
	}
	cs.ordSrc = src
	cs.ordCols = cols
}

// --- schedule ---

// schedule is one execution instance of a compiledSelect's join plan:
// the layout buildSchedule derives from the join order decide decides,
// plus all the kernel and level scratch an execution mutates. It serves
// one statement at a time, bound to that statement's env (scheduleFor) —
// so correlated re-executions share it — and returns to its select's free
// list, reset, when the statement ends (env.publish).
type schedule struct {
	order []int
	// pre are the conjuncts reading no current-scope source, decided once
	// before the loop: if one fails the WHERE is false for every row.
	pre    []int
	levels []schedLevel
	state  *planState
	// orderServed marks that the driving level iterates an ordered
	// index covering the ORDER BY prefix, so the executor can skip the
	// final sort entirely.
	orderServed bool
	// broken is set while a plan runs and stays set if an error or a
	// panic ends it, leaving scratch (the group filters' row masks)
	// half-written: release drops the instance.
	broken bool
}

type schedLevel struct {
	src   int
	probe *probePlan
	// seek is the level's last index seek in this execution, probe or
	// range, which an entry with the same key reuses.
	seek seekMemo
	// rng, when set (and probe is nil), prunes the level's scan to the
	// index-order subslice whose first column lies within the bound
	// keys. ord, when set, makes the level iterate in full index order.
	// Both yield in-order candidate lists.
	rng *rangePlan
	ord *Index
	// kerns are the batch kernels consumed at this level: plain (single-
	// alternative) conjuncts fully decided here whose predicate lowers
	// to a vector filter. The level then runs in batch mode — candidates
	// are cut into selection vectors, one per run inside a column-cache
	// segment, kernels tighten them over the segment's vectors, and only
	// survivors reach the per-row evals and the deeper levels.
	// Kernel-consumed conjuncts never appear in evals; the kernels
	// evaluate them exactly.
	kerns []*kernelPred
	// groups are the OR-group kernels consumed here: whole conjuncts
	// (all alternatives) owned by the batch path. Alternatives' parts
	// that never read this source bind once per entry; the rest run as
	// per-term selection-vector filters OR-merged into the level's
	// selection vector. Group-consumed conjuncts appear in no eval at
	// any level.
	groups []*orGroupK
	// elided counts range conjuncts whose retained filter was dropped
	// because the inclusive index prune implies them exactly.
	elided int
	// evals are the conjuncts no kernel, group, probe or range takes
	// whose last source is this level's: each row decides them whole.
	evals []int
}

// rangePlan restricts a scan level to an ordered-index range. Either
// bound may be nil (half-open). Bounds are evaluated per entry into
// the level — they may read outer levels or correlated frames — and a
// NULL bound empties the candidate set, since `col OP NULL` never
// holds.
type rangePlan struct {
	idx    *Index
	col    int // schema position of idx.Cols[0], for EXPLAIN
	lo, hi compiledExpr
	// Adoption bookkeeping for filter elision: which conjunct supplied
	// each bound (-1 none).
	loConj, hiConj int
	// skipNullLo: an upper-bound filter was elided with no lower bound
	// present, so the scan itself must exclude the NULL rows that sort
	// before every bounded value (the filter would have rejected them).
	skipNullLo bool
}

// seekMemo is a probe or range level's last seek in the current
// execution of its plan instance: the epoch's data it sought in, its key
// — a probe's values, a range's bounds, NULL for an absent one — and the
// positions found. An entry with an Identical key over the same data
// takes the positions instead of seeking again: keysFromDel's data level
// is entered once per (staged RID, pattern row), with the same RID for
// every pattern row. runPlan forgets the seek when an execution starts
// and reset when the instance goes idle, so it never outlives the
// statement that read the epoch.
//
// pos is a subslice of the index's own structures — a map bucket or the
// in-order positions — which every reader of the epoch shares. Nothing
// writes through it: the level drivers read candidates out of it into
// their own selection vectors, and the index itself only ever appends
// past a fence or replaces an array wholesale (indexData).
type seekMemo struct {
	td  *tableData
	key []relation.Value
	pos []int
}

// found reports whether the last seek was over td with an Identical key.
func (m *seekMemo) found(td *tableData, key ...relation.Value) bool {
	if m.td != td || len(m.key) != len(key) {
		return false
	}
	for i := range key {
		if !relation.Identical(m.key[i], key[i]) {
			return false
		}
	}
	return true
}

// keep records a seek and returns its positions.
func (m *seekMemo) keep(td *tableData, pos []int, key ...relation.Value) []int {
	m.td, m.key, m.pos = td, append(m.key[:0], key...), pos
	return pos
}

// forget drops the seek and what it points into.
func (m *seekMemo) forget() {
	clear(m.key) // a TEXT key's string may be the epoch's
	m.td, m.pos = nil, nil
}

// probePlan answers "which rows of this source match the bound key"
// from an index whose every column the key binds.
type probePlan struct {
	idx    *Index
	keys   []compiledExpr   // in index-column order
	vals   []relation.Value // scratch
	keyBuf []byte           // scratch
}

type planState struct {
	idx []int // current row index per source
	// Batch-mode scratch, per level: the selection vector, the per-entry
	// kernel bindings and the OR-group filter scratch. None of it grows
	// with the table: selection vectors and row masks span one segment.
	sel   [][]int
	binds [][]kernBind
	gsc   []*groupScratch
	// dedup is the id keys of the DISTINCT feed running the instance, nil
	// outside one (idKeys.dropRepeats). Its run filter (memo) and its
	// translations' array and index (xlats, xlatAt) are made on their
	// first use and kept, emptied; of its tables only their sizes are kept.
	dedup  *idKeys
	memo   *runSeen
	xlats  []uint32
	xlatAt map[xlatKey]int
	sizes  idSizes
	// memos keep bind outcomes between executions, one per site source.
	memos []*bindMemo
}

func isNaN(v relation.Value) bool {
	return v.K == relation.KindFloat && v.F != v.F
}

// decide takes from the sources' sizes the one thing a schedule depends
// on them for: the join order, appended to order — smallest source first,
// FROM order among equals, once any has reorderMinRows rows; the plan's
// lead order (leadOrder) below that. Every statement runs it: no
// allocation.
func decide(lead []int, srcRows []rowSet, order []int) []int {
	largest := 0
	for i := range srcRows {
		largest = max(largest, srcRows[i].n)
	}
	if largest < reorderMinRows {
		return append(order, lead...)
	}
	for i := range srcRows {
		order = append(order, i)
	}
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(srcRows[a].n, srcRows[b].n) })
	return order
}

// buildSchedule lays out an instance for the join order decide decided:
// it assigns every conjunct, OR alternative and equi key to a join level
// of that order. ep supplies the index inventory (index handles are
// shared by every epoch of the plan's ddlVersion, so the instance is
// valid as long as the plan). Only scheduleFor's miss and EXPLAIN call it.
func buildSchedule(cs *compiledSelect, order []int, ep *epoch) *schedule {
	n := len(cs.sources)
	sch := &schedule{order: order, state: &planState{
		idx:   make([]int, n),
		sel:   make([][]int, n),
		binds: make([][]kernBind, n),
		gsc:   make([]*groupScratch, n),
	}}
	consumed := make([]bool, len(cs.conjs))
	// OR-group claiming: a conjunct is owned wholly by a group kernel at
	// the last level of its source set when every alternative part that
	// reads that source kernelizes (simple / probe / nested-or). Claimed
	// conjuncts appear in no level's evals — their invariant parts bind
	// per level entry instead. Single-part plain conjuncts stay on the
	// simple kernel/probe/range paths, which already vectorize them.
	claim := make([]int, len(cs.conjs))
	for i := range claim {
		claim[i] = -1
	}
	for ci, pc := range cs.conjs {
		if pc.srcs == 0 {
			continue
		}
		last := -1
		for pos, s := range order {
			if pc.srcs&(srcMask(1)<<uint(s)) != 0 {
				last = pos
			}
		}
		s := order[last]
		if cs.sources[s].table == nil {
			continue // no column vectors to kernel over
		}
		bit := srcMask(1) << uint(s)
		interesting := len(pc.terms) > 1
		ok := true
		for _, t := range pc.terms {
			for _, p := range t.parts {
				if p.srcs&bit == 0 {
					continue
				}
				k := kpFor(p.kp, s)
				if k == nil {
					ok = false
					break
				}
				if k.simple == nil {
					interesting = true
				}
			}
			if !ok {
				break
			}
		}
		if ok && interesting {
			claim[ci] = last
		}
	}
	for ci, pc := range cs.conjs {
		if pc.srcs == 0 {
			sch.pre = append(sch.pre, ci)
		}
	}
	var bound srcMask
	for pos, s := range order {
		lv := schedLevel{src: s}
		bit := srcMask(1) << uint(s)
		// Equi-join probe: the equalities whose other side is bound when
		// the level is entered become an index lookup if they bind every
		// column of an index. The ones that index leaves out, and all of
		// them when none qualifies, stay filters of the level, decided by
		// its kernels or evals like any other conjunct.
		var probe *probePlan
		if t := cs.sources[s].table; t != nil {
			var keys []compiledExpr
			var cols, conjs []int
			for ci, pc := range cs.conjs {
				if consumed[ci] || claim[ci] >= 0 {
					continue
				}
				for _, eq := range pc.eqs {
					if eq.src == s && eq.otherSrcs&^bound == 0 {
						keys, cols, conjs = append(keys, eq.key), append(cols, eq.col), append(conjs, ci)
						break
					}
				}
			}
			if idx, perm := probeIndex(ep.tds[t], cols); idx != nil {
				probe = &probePlan{idx: idx, vals: make([]relation.Value, len(perm))}
				for _, pi := range perm {
					probe.keys = append(probe.keys, keys[pi])
					consumed[conjs[pi]] = true
				}
			}
		}
		lv.probe = probe
		// Probe-free levels over base tables can still narrow their scan
		// through an ordered index: a range conjunct whose bounds are
		// already bound prunes to an index-order subslice, and when the
		// ORDER BY prefix matches an index — on the driving level — the
		// level iterates in index order so the executor skips the final
		// sort. When both apply they must agree on the index; order
		// service wins the tie.
		if probe == nil {
			if t := cs.sources[s].table; t != nil {
				var ordIdx *Index
				if cs.ordSrc == s && pos == 0 {
					ordIdx = ep.tds[t].findPrefixIndex(cs.ordCols)
				}
				lv.rng = buildRangePlan(cs, ep.tds[t], s, bound, ordIdx)
				if ordIdx != nil {
					lv.ord = ordIdx
					sch.orderServed = true
				}
				// Filter elision: a conjunct whose inclusive bounds the
				// range prune adopted in full is exactly implied by the
				// binary-searched slice — its kernel/filter would re-check
				// every already-pruned row. Strict bounds never elide.
				if rp := lv.rng; rp != nil {
					elide := func(ci int) {
						if ci < 0 || consumed[ci] {
							return
						}
						if !cs.conjs[ci].rngIncl {
							return
						}
						consumed[ci] = true
						lv.elided++
						if rp.lo == nil {
							// The slice's low end is open: NULL rows sort
							// before every bounded value and the elided
							// filter would have rejected them.
							rp.skipNullLo = true
						}
					}
					elide(rp.loConj)
					elide(rp.hiConj)
				}
			}
		}
		boundAfter := bound | bit
		// Batch-kernel consumption: a plain conjunct (one OR alternative)
		// whose every part is ready exactly here and lowers to a kernel
		// for this source runs as a vector filter over the cached column
		// vectors instead of per-row closures. Derived sources have no
		// column vectors.
		if cs.sources[s].table != nil {
			for ci, pc := range cs.conjs {
				if consumed[ci] || claim[ci] >= 0 || len(pc.terms) != 1 {
					continue
				}
				ready := len(pc.terms[0].parts) > 0
				for _, p := range pc.terms[0].parts {
					if p.srcs == 0 || p.srcs&bit == 0 || p.srcs&^boundAfter != 0 || kpSimpleFor(p.kp, s) == nil {
						ready = false
						break
					}
				}
				if !ready {
					continue
				}
				for _, p := range pc.terms[0].parts {
					lv.kerns = append(lv.kerns, kpSimpleFor(p.kp, s))
				}
				consumed[ci] = true
			}
			// OR-group consumption: conjuncts claimed for this level.
			for ci, pc := range cs.conjs {
				if claim[ci] != pos || consumed[ci] {
					continue
				}
				lv.groups = append(lv.groups, newOrGroupK(cs, sch.state, pc, ci, s))
				consumed[ci] = true
			}
		}
		for ci, pc := range cs.conjs {
			if !consumed[ci] && claim[ci] < 0 && pc.srcs&bit != 0 && pc.srcs&^boundAfter == 0 {
				lv.evals = append(lv.evals, ci)
			}
		}
		bound = boundAfter
		sch.levels = append(sch.levels, lv)
	}
	for i := range sch.levels {
		lv := &sch.levels[i]
		if k := len(lv.kerns); k > 0 {
			sch.state.binds[i] = make([]kernBind, k)
		}
		if len(lv.groups) > 0 {
			sch.state.gsc[i] = &groupScratch{}
		}
	}
	return sch
}

// keepMaxRows bounds what an idle plan instance keeps of its executions
// beyond scratch: the bind outcomes of at most this many site rows
// (bindMemo), and a hash build over a table of at most this many rows
// (probeInst.hb). A data-sized table keeps neither: a kept memo is at
// most a kilobyte per alternative, a kept build at most 1024 keys. The
// detector's pattern table holds a few rows per constraint, its Aux table
// a few hundred rows at 160 000 data rows.
const keepMaxRows = segRows

// bindMemo keeps, from one execution of a plan instance to the next, the
// outcome of the binds of every OR-group alternative that reads one row
// of the base table t and nothing else (orTermK.memo): per (alternative,
// row position) whether they all hold. The pattern row's guards of the
// detection queries are such binds, and their table does not change after
// Install, so a warm statement evaluates none of them.
//
// The outcome is a function of the row's cells, and the memo is valid for
// the table version it was stamped with. One (table, version) never
// stands for two row sets: the version lives in tableData and every
// transition that changes a table's rows — INSERT, UPDATE, DELETE,
// TRUNCATE, LoadRelation, and Rollback or a failed Commit putting rows
// back (applyWholesale) — installs data one version above the data it
// replaces, on the writer head, which is the only epoch writers fork and
// only ever moves forward; so the versions of a table's lineage never
// repeat, a rollback included. The table handle is the plan's own: DROP
// and CREATE under the same name make a new handle and recompile the
// plan, whose instances go with it. The memo holds the handle and the
// stamp, never the epoch or anything of its data, so an idle instance
// pins nothing (TestPooledScheduleHoldsNoEpoch); and it keeps outcomes
// for at most keepMaxRows rows.
type bindMemo struct {
	src     int
	t       *Table
	idx     []int // the instance's current row per source (planState.idx)
	slots   int   // alternatives keeping their outcome here
	stamped bool
	version uint64
	rows    int
	// out holds slot·rows + position → memoUnknown / memoTrue / memoFalse;
	// empty while the stamped version has more than keepMaxRows rows.
	out []uint8
}

const (
	memoUnknown uint8 = iota
	memoTrue
	memoFalse
)

// memoFor returns the instance's memo for source src, making it on first
// use, with a slot of it taken for one more alternative.
func (st *planState) memoFor(cs *compiledSelect, src int) (*bindMemo, int) {
	i := slices.IndexFunc(st.memos, func(m *bindMemo) bool { return m.src == src })
	if i < 0 {
		i = len(st.memos)
		st.memos = append(st.memos, &bindMemo{src: src, t: cs.sources[src].table, idx: st.idx})
	}
	m := st.memos[i]
	m.slots++
	return m, m.slots - 1
}

// stamp makes the memo valid for td, the version of its table that the
// execution reads: a version other than the stamped one empties it.
func (m *bindMemo) stamp(td *tableData) {
	if m.stamped && m.version == td.version {
		return
	}
	m.stamped, m.version, m.rows = true, td.version, td.n
	m.out = m.out[:0]
	if td.n <= keepMaxRows {
		m.out = slices.Grow(m.out, m.slots*td.n)[:m.slots*td.n]
		clear(m.out)
	}
}

// buildRangePlan collects the usable range bounds for source s given
// the already-bound source set. Only one column can prune (the first
// with a covering index, or the ORDER BY index's leading column when
// the level must also serve ordering); further bounds on it tighten
// nothing here but remain as filters. Pruning itself is a pure
// access-path restriction; the adoption bookkeeping (loConj/hiConj)
// lets buildSchedule elide exactly the filters the inclusive prune
// implies.
func buildRangePlan(cs *compiledSelect, td *tableData, s int, bound srcMask, only *Index) *rangePlan {
	var rp *rangePlan
	for ci, pc := range cs.conjs {
		for _, rs := range pc.rngs {
			if rs.src != s || rs.otherSrcs&^bound != 0 {
				continue
			}
			if rp == nil {
				var idx *Index
				if only != nil {
					if only.Cols[0] == rs.col {
						idx = only
					}
				} else {
					idx = td.findRangeIndex(rs.col)
				}
				if idx == nil {
					continue
				}
				rp = &rangePlan{idx: idx, col: rs.col, loConj: -1, hiConj: -1}
			} else if rs.col != rp.col {
				continue
			}
			if rs.lower {
				if rp.lo == nil {
					rp.lo, rp.loConj = rs.key, ci
				}
			} else if rp.hi == nil {
				rp.hi, rp.hiConj = rs.key, ci
			}
		}
	}
	if rp != nil && rp.lo == nil && rp.hi == nil {
		return nil
	}
	return rp
}

// schedFreeSlots is how many idle instances a select keeps: one per
// concurrent reader of the plan and per set of decisions its executions
// alternate between (ApplyUpdates' staging tables change size each time).
const schedFreeSlots = 4

// boundSched is an instance checked out for the env's statement.
type boundSched struct {
	cs  *compiledSelect
	sch *schedule
}

// scheduleFor returns the statement's instance for cs: the one bound to
// the env already, else an idle one laid out for what decide says now —
// taken by CAS, so concurrent readers of a plan each get their own —
// else a new one.
func (en *env) scheduleFor(cs *compiledSelect, srcRows []rowSet) *schedule {
	for _, b := range en.schedules {
		if b.cs == cs {
			return b.sch
		}
	}
	order := decide(cs.lead, srcRows, make([]int, 0, 8)) // on the stack
	var sch *schedule
	for i := range cs.free {
		f := cs.free[i].Load()
		if f != nil && slices.Equal(f.order, order) && cs.free[i].CompareAndSwap(f, nil) {
			sch = f
			en.work[wSchedReuses]++
			break
		}
	}
	if sch == nil {
		sch = buildSchedule(cs, slices.Clone(order), en.ep)
		en.work[wSchedBuilds]++
	}
	en.schedules = append(en.schedules, boundSched{cs, sch})
	return sch
}

// release resets an instance its statement is done with and parks it on
// the free list — over another when the list is full, or instances laid
// out for sizes the tables have grown out of would hold it for good.
func (cs *compiledSelect) release(sch *schedule) {
	if sch.broken {
		return
	}
	sch.reset()
	for i := range cs.free {
		if cs.free[i].CompareAndSwap(nil, sch) {
			return
		}
	}
	cs.free[cs.victim.Add(1)%schedFreeSlots].Store(sch)
}

// reset drops the state that outlives a level entry: a reference into
// the epoch it read (a probe's segment vectors, index views, value sets)
// would keep that epoch's segments live while the instance idles.
// Scratch capacity, a few bound scalars, and what is stamped with a
// table version and bounded — the bind outcomes (bindMemo) and a small
// table's hash build (probeInst.hb), none of which points into an
// epoch — stay.
func (sch *schedule) reset() {
	st := sch.state
	for pos := range sch.levels {
		sch.levels[pos].seek.forget()
		for i := range st.binds[pos] {
			st.binds[pos][i].reset()
		}
		for _, g := range sch.levels[pos].groups {
			for ti := range g.terms {
				for pi := range g.terms[ti].preds {
					g.terms[ti].preds[pi].reset()
				}
			}
		}
	}
}

// scan enumerates the row combinations passing WHERE, planned when
// possible, by nested loop otherwise.
func (cs *compiledSelect) scan(en *env, srcRows []rowSet, yield func() error) error {
	if !cs.planOK {
		return cs.joinLoop(en, srcRows, 0, yield)
	}
	sch := en.scheduleFor(cs, srcRows)
	return cs.runPlan(en, sch, srcRows, func([]int) error { return yield() })
}

// runPlan executes the planned join. yield receives the current row
// index per source (indexed by source position, not loop order).
func (cs *compiledSelect) runPlan(en *env, sch *schedule, srcRows []rowSet, yield func(idx []int) error) error {
	for _, m := range sch.state.memos {
		m.stamp(en.td(m.t))
	}
	for i := range sch.levels {
		sch.levels[i].seek.forget()
	}
	for _, ci := range sch.pre {
		if ok, err := cs.conjs[ci].holds(en); !ok {
			return err // nil: a constant-false WHERE
		}
	}
	sch.broken = true
	err := cs.planLevel(en, sch, srcRows, 0, yield)
	sch.broken = err != nil && err != errFound // errFound is execExists' early exit
	return err
}

func (cs *compiledSelect) planLevel(en *env, sch *schedule, srcRows []rowSet, pos int, yield func([]int) error) error {
	st := sch.state
	if pos == len(sch.levels) {
		return yield(st.idx)
	}
	lv := &sch.levels[pos]
	rows := &srcRows[lv.src]
	bucket, scanAll, err := cs.probeRows(en, lv)
	if err != nil {
		return err
	}
	if len(lv.kerns) > 0 || len(lv.groups) > 0 {
		return cs.planLevelBatch(en, sch, srcRows, pos, lv, bucket, scanAll, yield)
	}
	n := rows.n
	if !scanAll {
		n = len(bucket)
	}
	en.work[wRowsScanned] += int64(n)
	for i, si := 0, 0; i < n; i++ {
		ri := i
		if !scanAll {
			ri = bucket[i]
		}
		if err := cs.stepRow(en, sch, srcRows, pos, lv, rows.ref(ri, &si), ri, yield); err != nil {
			return err
		}
	}
	return nil
}

// stepRow is the shared per-row body of both level drivers: bind the
// candidate row, decide the level's per-row conjuncts, and recurse into
// the deeper levels when they all hold.
func (cs *compiledSelect) stepRow(en *env, sch *schedule, srcRows []rowSet, pos int, lv *schedLevel, row rowRef, ri int, yield func([]int) error) error {
	en.frames[cs.depth].rows[lv.src] = row
	sch.state.idx[lv.src] = ri
	for _, ci := range lv.evals {
		en.work[wRowConjuncts]++
		if ok, err := cs.conjs[ci].holds(en); !ok {
			return err
		}
	}
	return cs.planLevel(en, sch, srcRows, pos+1, yield)
}

// planLevelBatch is the vectorized level driver: candidate positions
// are cut into runs — the candidates, in order, that fall in one
// column-cache segment: a whole segment of a full scan, what an index
// bucket holds of one before it moves to another — the level's kernels
// tighten each run's selection vector of segment offsets over the
// segment's vectors, OR-group kernels OR-merge their per-alternative
// filters into it, and only the surviving rows run the per-row machinery
// and the deeper levels, under their positions in the table. Kernel and
// group bindings (the loop-invariant inputs) evaluate once per level
// entry. Candidate order is preserved end to end — a bucket in index
// order may change segment with every candidate — so batch mode
// composes with range-pruned and order-served scans.
func (cs *compiledSelect) planLevelBatch(en *env, sch *schedule, srcRows []rowSet, pos int, lv *schedLevel, bucket []int, scanAll bool, yield func([]int) error) error {
	st := sch.state
	rows := &srcRows[lv.src]
	n := rows.n
	if !scanAll {
		n = len(bucket)
	}
	if n == 0 {
		return nil // empty candidate set: skip the kernel binds entirely
	}
	binds := st.binds[pos]
	for i, k := range lv.kerns {
		if err := k.bind(en, &binds[i]); err != nil {
			return err
		}
		if binds[i].empty {
			return nil // NULL bound: the predicate holds for no row
		}
	}
	for _, g := range lv.groups {
		g.enter(n) // state reset only; terms bind lazily at filter time
	}
	if len(lv.kerns) == 0 && len(lv.groups) > 0 { // every candidate meets the first group
		if err := lv.groups[0].bindLeading(en); err != nil || lv.groups[0].dead() {
			return err
		}
	}
	en.work[wRowsScanned] += int64(n)
	sel := st.sel[pos]
	keys := st.dedup // see idKeys.dropRepeats
	if keys != nil && (pos < len(sch.levels)-1 || len(lv.evals) > 0 || cs.proj != nil && cs.proj.site.depth == cs.depth && cs.proj.site.src == lv.src) {
		keys = nil
	}
	var err error
	for i, si := 0, 0; i < n && err == nil; {
		first := i // the run's first candidate: a full scan's i-th is position i
		if !scanAll {
			first = bucket[i]
		}
		si = rows.segAt(first, si)
		base, m := rows.span(si)
		run := segRun{cols: rows.segs[si].cols, n: m, whole: scanAll}
		sel = sel[:0]
		if scanAll { // the whole segment
			sel = append(sel, segOffsets[:m]...)
			i += m
		} else {
			for ; i < n; i++ {
				off := bucket[i] - base
				if uint(off) >= uint(m) {
					break
				}
				sel = append(sel, off)
			}
		}
		for ki, k := range lv.kerns {
			if len(sel) == 0 {
				break
			}
			sel = k.filterRun(en, &run, &binds[ki], sel)
		}
		for _, g := range lv.groups {
			if g.pass || len(sel) == 0 {
				continue
			}
			if sel, err = g.filter(en, cs, lv.src, st.gsc[pos], &run, sel); err != nil {
				break // with no row left in sel
			}
		}
		if len(lv.groups) > 0 && lv.groups[0].dead() {
			i = n // only kernels, which cannot fail, come before it: no later run yields
		}
		if keys != nil && len(sel) > 0 {
			sel, err = keys.dropRepeats(en, st, lv.src, &run, sel)
		}
		en.work[wRowsStepped] += int64(len(sel))
		for _, off := range sel {
			if err = cs.stepRow(en, sch, srcRows, pos, lv, rowRef{cols: run.cols, off: off}, base+off, yield); err != nil {
				break
			}
		}
	}
	st.sel[pos] = sel
	return err
}

// probeRows returns the candidate row indices at a level. scanAll is
// true when the level has no probe and no index-backed restriction
// (full scan). A NULL or NaN key can never satisfy an equality, so it
// yields an empty candidate set; likewise a NULL range bound.
func (cs *compiledSelect) probeRows(en *env, lv *schedLevel) (bucket []int, scanAll bool, err error) {
	p := lv.probe
	if p == nil {
		if lv.rng != nil {
			return cs.rangeRows(en, lv)
		}
		if lv.ord != nil {
			t := cs.sources[lv.src].table
			return en.td(t).orderedOf(t, lv.ord), false, nil
		}
		return nil, true, nil
	}
	for i, kex := range p.keys {
		v, err := kex(en)
		if err != nil {
			return nil, false, err
		}
		if v.IsNull() || isNaN(v) {
			return nil, false, nil
		}
		p.vals[i] = v
	}
	t := cs.sources[lv.src].table
	td := en.td(t)
	if lv.seek.found(td, p.vals...) {
		return lv.seek.pos, false, nil
	}
	en.work[wIndexSeeks]++
	eq := td.lookupEq(t, p.idx)
	return lv.seek.keep(td, eq.probe(p.vals, &p.keyBuf), p.vals...), false, nil
}

// rangeRows evaluates a level's range bounds and returns the ordered-
// index subslice they select. The bounds may read outer frames, so
// they re-evaluate every time the level is entered (two binary
// searches; the slice itself is shared with the index, zero-copy). A
// NULL bound empties the result — `col OP NULL` never holds, and the
// retained filter agrees.
func (cs *compiledSelect) rangeRows(en *env, lv *schedLevel) ([]int, bool, error) {
	rp := lv.rng
	var lo, hi relation.Value
	hasLo, hasHi := false, false
	if rp.lo != nil {
		v, err := rp.lo(en)
		if err != nil {
			return nil, false, err
		}
		if v.IsNull() {
			return nil, false, nil
		}
		lo, hasLo = v, true
	}
	if rp.hi != nil {
		v, err := rp.hi(en)
		if err != nil {
			return nil, false, err
		}
		if v.IsNull() {
			return nil, false, nil
		}
		hi, hasHi = v, true
	}
	t := cs.sources[lv.src].table
	td := en.td(t)
	if lv.seek.found(td, lo, hi) {
		return lv.seek.pos, false, nil
	}
	en.work[wIndexSeeks]++
	return lv.seek.keep(td, td.rangeOf(t, rp.idx, lo, hi, hasLo, hasHi, rp.skipNullLo), lo, hi), false, nil
}

// semiScan runs the planned join over base-table sources and yields
// per-source row indices for every combination passing WHERE, without
// materializing output rows. DML row selection (rowSelect) uses it to
// collect the target row set.
func (cs *compiledSelect) semiScan(en *env, yield func(idx []int) error) error {
	if !cs.planOK || cs.grouped || cs.limit != nil {
		return fmt.Errorf("sql: internal: semiScan on unplannable select")
	}
	if len(en.frames) != cs.depth {
		return fmt.Errorf("sql: internal: frame depth %d, want %d", len(en.frames), cs.depth)
	}
	srcRows := make([]rowSet, len(cs.sources))
	for i, src := range cs.sources {
		if src.table == nil {
			return fmt.Errorf("sql: internal: semiScan with derived source")
		}
		srcRows[i] = en.rows(src.table)
	}
	en.frames = append(en.frames, frame{rows: en.scratchFor(cs)})
	sch := en.scheduleFor(cs, srcRows)
	err := cs.runPlan(en, sch, srcRows, yield)
	en.frames = en.frames[:cs.depth]
	return err
}

// --- EXPLAIN ---

// describePlan renders the join strategy of a compiled select, one
// line per level, for EXPLAIN output and the plan tests. ep supplies
// the row counts and index inventory the schedule is sized against.
func (cs *compiledSelect) describePlan(ep *epoch) []string {
	if !cs.planOK {
		return []string{"nested loop over the WHERE closure (Reference mode, or WHERE not analyzable)"}
	}
	srcRows := make([]rowSet, len(cs.sources))
	for i, src := range cs.sources {
		if src.table != nil {
			srcRows[i] = ep.tds[src.table].rowSet
		}
	}
	return cs.describeSchedule(buildSchedule(cs, decide(cs.lead, srcRows, nil), ep), ep)
}

// describeSchedule renders one instance of the select's join plan.
func (cs *compiledSelect) describeSchedule(sch *schedule, ep *epoch) []string {
	var out []string
	if len(sch.pre) > 0 {
		out = append(out, fmt.Sprintf("pre-loop: %d constant conjunct(s)", len(sch.pre)))
	}
	for _, lv := range sch.levels {
		name := lv.src
		label := fmt.Sprintf("s%d", lv.src)
		if name < len(cs.srcNames) {
			label = cs.srcNames[lv.src]
		}
		size := ""
		if t := cs.sources[lv.src].table; t != nil {
			size = fmt.Sprintf(" (%d rows)", ep.tds[t].n)
		} else {
			size = " (derived)"
		}
		var line string
		switch {
		case lv.probe != nil:
			line = fmt.Sprintf("index probe %s via %s%s", label, lv.probe.idx.Name, size)
		case lv.rng != nil && lv.ord != nil:
			line = fmt.Sprintf("ordered range scan %s via %s on %s%s",
				label, lv.rng.idx.Name, cs.sources[lv.src].table.Schema.Attrs[lv.rng.col].Name, size)
		case lv.rng != nil:
			line = fmt.Sprintf("range scan %s via %s on %s%s",
				label, lv.rng.idx.Name, cs.sources[lv.src].table.Schema.Attrs[lv.rng.col].Name, size)
		case lv.ord != nil:
			line = fmt.Sprintf("ordered scan %s via %s%s", label, lv.ord.Name, size)
		default:
			line = fmt.Sprintf("scan %s%s", label, size)
		}
		// Predicate-evaluation mode. The marker describes how this level
		// evaluates its scheduled predicates: kernels and OR groups render
		// inside one [batch: ...] bracket, per-row closure evaluation
		// renders [row], and a level with no predicates at all — a pure
		// join driver — carries no marker.
		var batchBits []string
		if k := len(lv.kerns); k > 0 {
			batchBits = append(batchBits, fmt.Sprintf("%d kernel filter(s)", k))
		}
		if len(lv.groups) > 0 {
			// Aggregate groups that render alike, `3 × or-group(2 terms)`,
			// in order of arity.
			type groupBit struct {
				desc     string
				arity, n int
			}
			var bits []groupBit
			for _, g := range lv.groups {
				d := g.describe()
				i := slices.IndexFunc(bits, func(b groupBit) bool { return b.desc == d })
				if i < 0 {
					i = len(bits)
					bits = append(bits, groupBit{desc: d, arity: g.nTerms})
				}
				bits[i].n++
			}
			sort.SliceStable(bits, func(i, j int) bool { return bits[i].arity < bits[j].arity })
			for _, b := range bits {
				if b.n == 1 {
					batchBits = append(batchBits, b.desc)
				} else {
					batchBits = append(batchBits, fmt.Sprintf("%d × %s", b.n, b.desc))
				}
			}
		}
		switch {
		case len(batchBits) > 0:
			line += " [batch: " + strings.Join(batchBits, " + ") + "]"
		case len(lv.evals) > 0:
			line += " [row]"
		}
		if lv.elided > 0 {
			line += fmt.Sprintf(" — %d filter(s) elided: implied by range", lv.elided)
		}
		if len(lv.evals) > 0 {
			line += fmt.Sprintf(" — %d conjunct(s) decided here", len(lv.evals))
		}
		out = append(out, line)
		// Descend into derived sources so EXPLAIN shows the access paths
		// of the select that materializes them (the detector's Qmv macro
		// lives behind one).
		if sub := cs.sources[lv.src].sub; sub != nil {
			for _, l := range sub.describePlan(ep) {
				out = append(out, "  "+l)
			}
		}
	}
	if cs.grouped {
		if cs.streamCols > 0 {
			feed := "distinct"
			if cs.sources[0].sub.counted {
				feed = "counted"
			}
			line := fmt.Sprintf("group/aggregate [streamed: %s source feeds %d-col groups, no rows materialised", feed, cs.streamCols)
			if cs.sources[0].sub.singles > 0 {
				line += ", groups of one row never keyed"
			}
			out = append(out, line+"]")
		} else {
			out = append(out, "group/aggregate")
		}
	}
	if cs.distinct {
		out = append(out, "distinct")
	}
	if len(cs.orderBy) > 0 {
		switch {
		case sch.orderServed && len(cs.sources) > 1:
			out = append(out, "order by: served by index (join driver)")
		case sch.orderServed:
			out = append(out, "order by: served by index (no sort)")
		default:
			out = append(out, "sort")
		}
	}
	return out
}

// Explain reports the plan the engine would run for a single statement:
// join order, per-level access paths (scan, range, index probe),
// predicate placement, and for UPDATE and DELETE the row selection that
// would execute right now (rowSelect.describe mirrors the runtime
// choice, reading the same table sizes). It describes the statement's
// cached plan — the one an execution would pick up, compiled under the
// DB's current Mode — not a compilation of its own.
func (db *DB) Explain(sqlText string) (string, error) {
	p, err := db.Prepare(sqlText)
	if err != nil {
		return "", err
	}
	if len(p.stmts) != 1 {
		return "", fmt.Errorf("sql: EXPLAIN wants exactly one statement, got %d", len(p.stmts))
	}
	switch p.stmts[0].(type) {
	case *Select, *Insert, *Update, *Delete:
	default:
		return fmt.Sprintf("%T: no plan\n", p.stmts[0]), nil
	}
	// Explain is a reader: it pins the current epoch (no lock) and
	// describes against that frozen state.
	ep := db.pin()
	defer db.unpin(ep)
	plan, err := db.planFor(p, 0, ep)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	describe := func(head string, cs *compiledSelect) {
		b.WriteString(head)
		for _, line := range cs.describePlan(ep) {
			b.WriteString("  " + line + "\n")
		}
	}
	switch pl := plan.(type) {
	case *compiledSelect:
		describe("SELECT\n", pl)
	case *updatePlan:
		b.WriteString("UPDATE " + pl.sel.t.Name + "\n")
		pl.sel.describe(ep, &b)
	case *deletePlan:
		b.WriteString("DELETE " + pl.sel.t.Name + "\n")
		pl.sel.describe(ep, &b)
	case *insertPlan:
		if pl.query != nil {
			describe("INSERT from SELECT\n", pl.query)
		} else {
			fmt.Fprintf(&b, "INSERT %d literal row(s)\n", len(pl.rows))
		}
	}
	return b.String(), nil
}
