package sqldb

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync/atomic"

	"ecfd/internal/relation"
)

// Result is the output of a query: column names plus materialized rows.
type Result struct {
	Cols []string
	Rows []relation.Tuple
}

// Query runs a SELECT through the plan cache: the statement text is
// parsed and compiled at most once per catalog version.
func (db *DB) Query(sqlText string, params ...relation.Value) (*Result, error) {
	p, err := db.Prepare(sqlText)
	if err != nil {
		return nil, err
	}
	return p.Query(params...)
}

// Exec runs one or more statements separated by semicolons through the
// plan cache, returning the total number of affected rows.
func (db *DB) Exec(sqlText string, params ...relation.Value) (int64, error) {
	p, err := db.Prepare(sqlText)
	if err != nil {
		return 0, err
	}
	return p.Exec(params...)
}

// execDDLLocked runs one of the four statement kinds that execute
// directly rather than through a compiled plan. Callers hold db.mu.
func (db *DB) execDDLLocked(stmt Statement) (int64, error) {
	switch s := stmt.(type) {
	case *CreateTable:
		return 0, db.createTable(s.Name, s.Cols, s.IfNotExists)
	case *CreateIndex:
		return 0, db.createIndex(s.Name, s.Table, s.Cols)
	case *DropTable:
		return 0, db.dropTable(s.Name, s.IfExists)
	case *TruncateTable:
		if err := db.writable(); err != nil {
			return 0, err
		}
		t, err := db.table(s.Name)
		if err != nil {
			return 0, err
		}
		n := int64(db.curW.tds[t].n)
		if n == 0 {
			return 0, nil // already empty: no WAL record, no epoch
		}
		if err := db.logTruncate(t.Name); err != nil {
			return 0, err
		}
		db.applyTruncate(t)
		return n, nil
	default:
		return 0, fmt.Errorf("sql: unhandled statement %T", stmt)
	}
}

// --- SELECT ---

type compiledSelect struct {
	depth    int
	sources  []compiledSource
	srcNames []string
	where    compiledExpr
	// planner decomposition of WHERE; planOK false falls back to the
	// nested loop evaluating the monolithic where closure.
	conjs    []*planConjunct
	planOK   bool
	grouped  bool
	groupBy  []compiledExpr
	having   compiledExpr
	aggs     []*aggSpec
	cols     []string
	outs     []compiledExpr
	distinct bool
	orderBy  []compiledOrder
	limit    compiledExpr
	offset   compiledExpr
	// Index-served ORDER BY candidate: when ordSrc >= 0, the ORDER BY
	// keys are plain ascending columns ordCols of that (single,
	// base-table) source. buildSchedule checks for an index with that
	// column prefix and, if the level takes no equality probe, iterates
	// it in order so exec skips the sort.
	ordSrc  int
	ordCols []int
	// proj, when non-nil, is the batch-aware projection plan: output
	// parts invariant in one source's row (the detection queries'
	// pattern site) replay from a per-site-row cache instead of
	// re-evaluating per emitted row. Built for ungrouped selects only.
	proj *projSpec
	// Streamed grouping: when streamCols > 0, this grouped select has no
	// WHERE, its GROUP BY is exactly the first streamCols output columns
	// (in order) of its single derived DISTINCT source, and outside
	// aggregate arguments it reads no other column of that source (see
	// streamableGroup). The source then materializes nothing: execStreamed
	// consumes its matches one scratch row at a time, and the group key of
	// a row is the leading part of the dedup key it encodes anyway. The
	// detector's Qmv grouping keeps 150 of 42 000 distinct macro rows;
	// this is what stops it building the other 41 850.
	streamCols int
	// free holds the join plan's idle instances (scheduleFor / release);
	// victim picks the slot a release overwrites when all are taken.
	free   [schedFreeSlots]atomic.Pointer[schedule]
	victim atomic.Uint32
}

// errFound is the sentinel execExists uses to abort the join loop at
// the first produced row.
var errFound = fmt.Errorf("sqldb: row found")

// execExists reports whether the select yields at least one row,
// without materializing output rows. Grouped or derived-table shapes
// fall back to full execution.
func (cs *compiledSelect) execExists(en *env) (bool, error) {
	if cs.grouped || cs.limit != nil || cs.offset != nil {
		rows, err := cs.exec(en)
		return len(rows) > 0, err
	}
	for _, src := range cs.sources {
		if src.sub != nil {
			rows, err := cs.exec(en)
			return len(rows) > 0, err
		}
	}
	if len(en.frames) != cs.depth {
		return false, fmt.Errorf("sql: internal: frame depth %d, want %d", len(en.frames), cs.depth)
	}
	srcRows := make([]rowSet, len(cs.sources))
	for i, src := range cs.sources {
		srcRows[i] = en.rows(src.table)
	}
	en.frames = append(en.frames, frame{rows: en.scratchFor(cs)})
	err := cs.scan(en, srcRows, func() error { return errFound })
	en.frames = en.frames[:cs.depth]
	if err == errFound {
		return true, nil
	}
	return false, err
}

type compiledOrder struct {
	ex      compiledExpr
	ordinal int // 1-based output column when > 0
	desc    bool
}

type compiledSource struct {
	table *Table
	sub   *compiledSelect
	width int
}

func newEnv(db *DB, ep *epoch, params []relation.Value) *env {
	return &env{
		db:     db,
		ep:     ep,
		params: params,
		aggs:   make(map[*compiledSelect][]relation.Value),
		hash:   make(map[*Exists]*hashBuild),
		inSets: make(map[*InSelect]*inBuild),
	}
}

// compileSubSelect compiles sel in a child scope of the compiler's
// current scope stack.
func (c *compiler) compileSubSelect(sel *Select) (*compiledSelect, error) {
	scope, err := c.scopeFor(sel)
	if err != nil {
		return nil, err
	}
	inner := &compiler{
		db:     c.db,
		ep:     c.ep,
		scopes: append(append([]*scopeInfo{}, c.scopes...), scope),
	}
	cs := &compiledSelect{depth: len(c.scopes)}

	for _, tr := range sel.From {
		var src compiledSource
		if tr.Sub != nil {
			// Derived tables see only outer scopes, not siblings.
			sub, err := c.compileSubSelect(tr.Sub)
			if err != nil {
				return nil, err
			}
			src = compiledSource{sub: sub, width: len(sub.cols)}
		} else {
			t, err := c.ep.table(tr.Table)
			if err != nil {
				return nil, err
			}
			src = compiledSource{table: t, width: t.Schema.Width()}
		}
		cs.sources = append(cs.sources, src)
	}

	for _, src := range scope.sources {
		cs.srcNames = append(cs.srcNames, src.name)
	}

	if sel.Where != nil {
		if cs.where, err = inner.compileExpr(sel.Where); err != nil {
			return nil, err
		}
	}
	// Plan the WHERE decomposition while the compiler still rejects
	// aggregates (WHERE is row-context; aggSink is not yet installed).
	inner.planWhere(sel.Where, cs)

	// Decide grouping: explicit GROUP BY, or aggregates anywhere in the
	// select list / HAVING.
	cs.grouped = len(sel.GroupBy) > 0 || sel.Having != nil || selectHasAggregate(sel)
	if cs.grouped {
		inner.aggSink = &aggCollector{cs: cs}
	}

	for _, g := range sel.GroupBy {
		// Group keys are row-context expressions: no aggregates.
		sink := inner.aggSink
		inner.aggSink = nil
		ge, err := inner.compileExpr(g)
		inner.aggSink = sink
		if err != nil {
			return nil, err
		}
		cs.groupBy = append(cs.groupBy, ge)
	}
	// Reference mode groups and projects the plain way, as it joins
	// (planWhere): streaming and the projection cache are under test.
	ref := c.db.execMode() == Reference
	if !ref {
		cs.streamCols = inner.streamableGroup(sel, cs)
	}

	// Output expressions. astOuts keeps the AST per output slot (nil
	// for star-expanded columns) so the batch-aware projection can
	// classify them after compilation.
	if cs.cols, err = outputColumns(c, sel); err != nil {
		return nil, err
	}
	var astOuts []Expr
	for _, se := range sel.Exprs {
		if se.Star {
			for si, src := range scope.sources {
				if se.StarTable != "" && !strings.EqualFold(src.name, se.StarTable) {
					continue
				}
				for ci := range src.cols {
					b := binding{depth: cs.depth, src: si, col: ci}
					cs.outs = append(cs.outs, func(en *env) (relation.Value, error) {
						return en.frames[b.depth].rows[b.src].at(b.col), nil
					})
					astOuts = append(astOuts, nil)
				}
			}
			continue
		}
		oe, err := inner.compileExpr(se.Expr)
		if err != nil {
			return nil, err
		}
		cs.outs = append(cs.outs, oe)
		astOuts = append(astOuts, se.Expr)
	}
	if len(cs.outs) != len(cs.cols) {
		return nil, fmt.Errorf("sql: internal: %d output exprs for %d columns", len(cs.outs), len(cs.cols))
	}
	if !cs.grouped && !ref {
		// Grouped emission stays row-at-a-time: aggregate outputs read
		// per-group state that the invariance analysis cannot see.
		cs.proj = inner.buildProjSpec(astOuts)
	}

	if sel.Having != nil {
		if cs.having, err = inner.compileExpr(sel.Having); err != nil {
			return nil, err
		}
	}
	cs.distinct = sel.Distinct
	for _, o := range sel.OrderBy {
		co := compiledOrder{desc: o.Desc}
		if lit, ok := o.Expr.(*Literal); ok && lit.Val.K == relation.KindInt {
			co.ordinal = int(lit.Val.I)
			if co.ordinal < 1 || co.ordinal > len(cs.cols) {
				return nil, fmt.Errorf("sql: ORDER BY ordinal %d out of range", co.ordinal)
			}
		} else if co.ex, err = inner.compileExpr(o.Expr); err != nil {
			return nil, err
		}
		cs.orderBy = append(cs.orderBy, co)
	}
	inner.planOrderBy(sel, cs)
	if sel.Limit != nil {
		if cs.limit, err = inner.compileExpr(sel.Limit); err != nil {
			return nil, err
		}
	}
	if sel.Offset != nil {
		if cs.offset, err = inner.compileExpr(sel.Offset); err != nil {
			return nil, err
		}
	}
	if len(cs.aggs) == 0 && inner.aggSink != nil {
		cs.aggs = inner.aggSink.specs
	}
	return cs, nil
}

// streamableGroup returns the GROUP BY width k when sel (compiled so
// far into cs, with c holding its scope) takes the streamed grouping —
// see compiledSelect.streamCols — and 0 otherwise. The shape: no WHERE,
// one derived source that is DISTINCT and emits its dedup set unsliced
// (ungrouped, no ORDER BY, LIMIT or OFFSET), GROUP BY naming that
// source's first k columns in order. And because a streamed group keeps
// only those k columns of its representative, nothing outside an
// aggregate argument — select list, HAVING, ORDER BY, correlated
// subqueries included — may read any other column of the source.
func (c *compiler) streamableGroup(sel *Select, cs *compiledSelect) int {
	k := len(sel.GroupBy)
	if k == 0 || sel.Where != nil || len(cs.sources) != 1 {
		return 0
	}
	sub := cs.sources[0].sub
	if sub == nil || !sub.dedupsInline() || sub.limit != nil || sub.offset != nil || k > len(sub.cols) {
		return 0
	}
	for i, g := range sel.GroupBy {
		ref, ok := g.(*ColumnRef)
		if !ok {
			return 0
		}
		if b, err := c.resolve(ref); err != nil || b != (binding{depth: cs.depth, src: 0, col: i}) {
			return 0
		}
	}
	bare := &compiler{db: c.db, ep: c.ep, scopes: c.scopes, skipAggArgs: true}
	keyOnly := true
	check := func(e Expr) {
		err := bare.walkBindings(e, func(b binding) {
			if b.depth == cs.depth && b.col >= k {
				keyOnly = false
			}
		})
		if err != nil {
			keyOnly = false
		}
	}
	for _, se := range sel.Exprs {
		if se.Star {
			keyOnly = keyOnly && k == len(sub.cols)
			continue
		}
		check(se.Expr)
	}
	check(sel.Having)
	for _, o := range sel.OrderBy {
		check(o.Expr)
	}
	if !keyOnly {
		return 0
	}
	return k
}

func selectHasAggregate(sel *Select) bool {
	found := false
	var walk func(Expr)
	walk = func(e Expr) {
		if found || e == nil {
			return
		}
		switch x := e.(type) {
		case *FuncCall:
			if aggNames[x.Name] {
				found = true
				return
			}
			for _, a := range x.Args {
				walk(a)
			}
		case *Unary:
			walk(x.X)
		case *Binary:
			walk(x.L)
			walk(x.R)
		case *IsNull:
			walk(x.X)
		case *InList:
			walk(x.X)
			for _, it := range x.List {
				walk(it)
			}
		case *Like:
			walk(x.X)
			walk(x.Pattern)
		case *Between:
			walk(x.X)
			walk(x.Lo)
			walk(x.Hi)
		case *Case:
			walk(x.Operand)
			for _, w := range x.Whens {
				walk(w.Cond)
				walk(w.Result)
			}
			walk(x.Else)
		}
		// Subqueries keep their own aggregate scope.
	}
	for _, se := range sel.Exprs {
		walk(se.Expr)
	}
	walk(sel.Having)
	return found
}

// exec runs the compiled select and materializes its output rows. The
// env's frame stack must hold exactly cs.depth frames.
func (cs *compiledSelect) exec(en *env) ([]relation.Tuple, error) {
	if len(en.frames) != cs.depth {
		return nil, fmt.Errorf("sql: internal: frame depth %d, want %d", len(en.frames), cs.depth)
	}
	var out []relation.Tuple
	var err error
	if cs.dedupsInline() {
		out, err = cs.execDistinct(en)
	} else {
		out, err = cs.execRows(en)
	}
	if err != nil {
		return nil, err
	}

	// OFFSET / LIMIT.
	if cs.offset != nil {
		v, err := cs.offset(en)
		if err != nil {
			return nil, err
		}
		n := int(v.I)
		if n > len(out) {
			n = len(out)
		}
		if n > 0 {
			out = out[n:]
		}
	}
	if cs.limit != nil {
		v, err := cs.limit(en)
		if err != nil {
			return nil, err
		}
		if n := int(v.I); n >= 0 && n < len(out) {
			out = out[:n]
		}
	}
	return out, nil
}

// slab cuts runs of T from shared chunks: high-cardinality
// materializations (distinct projections, per-group state) otherwise pay
// one allocator round trip per run, which the profile shows as pure GC
// overhead. Chunks start at two runs and quadruple up to 512, so a
// three-row result does not zero 512 rows.
type slab[T any] struct {
	chunk int // elements in the latest chunk
	free  []T
}

func (s *slab[T]) alloc(n int) []T {
	if len(s.free) < n {
		s.chunk = min(max(4*s.chunk, 2*n), 512*n)
		s.free = make([]T, s.chunk)
	}
	run := s.free[:n:n]
	s.free = s.free[n:]
	return run
}

// materialize returns the rows of every FROM source, running the
// derived ones.
func (cs *compiledSelect) materialize(en *env) ([]rowSet, error) {
	srcRows := make([]rowSet, len(cs.sources))
	for i, src := range cs.sources {
		if src.table != nil {
			srcRows[i] = en.rows(src.table)
			continue
		}
		rows, err := src.sub.exec(en)
		if err != nil {
			return nil, err
		}
		srcRows[i] = derivedRows(rows)
	}
	return srcRows, nil
}

// projScratchFor returns the env's cache for the batch-aware projection,
// which replays site-invariant output parts per pattern row; nil when
// the select has none.
func (cs *compiledSelect) projScratchFor(en *env) *projScratch {
	if cs.proj == nil {
		return nil
	}
	return cs.proj.scratch(en, cs)
}

// evalOuts evaluates the output row of the current frame into dst.
func (cs *compiledSelect) evalOuts(en *env, ps *projScratch, dst relation.Tuple) error {
	if ps != nil {
		return cs.proj.evalOuts(en, cs, ps, dst)
	}
	for i, oe := range cs.outs {
		v, err := oe(en)
		if err != nil {
			return err
		}
		dst[i] = v
	}
	return nil
}

// dedupsInline: DISTINCT without ORDER BY dedupes while it scans. The
// Fig. 4 macro emits one row per (tuple, pattern) match but only
// |Aux|-many distinct ones, so this skips almost all of the row
// allocation.
func (cs *compiledSelect) dedupsInline() bool {
	return cs.distinct && len(cs.orderBy) == 0 && !cs.grouped
}

// feedDistinct scans a select that dedupes inline and hands sink the
// output row of every match, in a scratch row the next match
// overwrites; the sink decides new-vs-duplicate on the exact key.
// Matches the raw pre-dedup proves to be repeats never reach it: when
// the projection plan shows the output row is a pure function of (site
// row, a known set of scan columns), a repeated raw combination skips
// output evaluation and key encoding entirely — the Qmv macro's matches
// are overwhelmingly repeats of a few distinct pattern projections.
func (cs *compiledSelect) feedDistinct(en *env, sink func(row relation.Tuple) error) error {
	srcRows, err := cs.materialize(en)
	if err != nil {
		return err
	}
	en.frames = append(en.frames, frame{rows: make([]rowRef, len(cs.sources))})
	defer func() { en.frames = en.frames[:cs.depth] }()

	ps := cs.projScratchFor(en)
	var rawSeen map[string]bool // per-execution: see projSpec.preDedup
	var st *planState           // the instance scan runs: see projSpec.dropRepeats
	if ps != nil && cs.proj.preKeyOK {
		rawSeen = make(map[string]bool)
		if cs.planOK {
			st = en.scheduleFor(cs, srcRows).state // the instance scan runs
			st.dedup = ps
			defer func() { st.dedup = nil }()
		}
	}
	row := make(relation.Tuple, len(cs.outs))
	return cs.scan(en, srcRows, func() error {
		if rawSeen != nil {
			skip, err := cs.proj.preDedup(en, cs, ps, rawSeen)
			if err != nil || skip {
				return err
			}
		}
		if err := cs.evalOuts(en, ps, row); err != nil {
			return err
		}
		return sink(row)
	})
}

// execDistinct materializes the first occurrence of each distinct row.
func (cs *compiledSelect) execDistinct(en *env) ([]relation.Tuple, error) {
	var out []relation.Tuple
	seen := make(map[string]bool)
	var rows slab[relation.Value]
	var keyBuf []byte
	err := cs.feedDistinct(en, func(row relation.Tuple) error {
		keyBuf = relation.AppendKeyOf(keyBuf[:0], row)
		en.work[wDistinctKeys]++
		if seen[string(keyBuf)] {
			return nil
		}
		seen[string(keyBuf)] = true
		kept := rows.alloc(len(row))
		copy(kept, row)
		out = append(out, kept)
		return nil
	})
	return out, err
}

// execRows runs every select that does not dedupe inline: joins,
// grouping, DISTINCT before ORDER BY, sorting.
func (cs *compiledSelect) execRows(en *env) ([]relation.Tuple, error) {
	var srcRows []rowSet
	var err error
	if cs.streamCols == 0 { // execStreamed consumes its one source unmaterialized
		if srcRows, err = cs.materialize(en); err != nil {
			return nil, err
		}
	}
	en.frames = append(en.frames, frame{rows: make([]rowRef, len(cs.sources))})
	defer func() { en.frames = en.frames[:cs.depth] }()

	var out []relation.Tuple
	var sortKeys [][]relation.Value
	var rows slab[relation.Value]

	// When the planner serves ORDER BY through in-order index iteration
	// (schedule.orderServed), rows are emitted already sorted: skip key
	// collection and the final sort entirely. Tie order among rows with
	// equal sort keys may differ from the stable sort's emission order —
	// SQL leaves it unspecified either way.
	orderServed := false
	if len(cs.orderBy) > 0 && !cs.grouped && cs.planOK {
		orderServed = en.scheduleFor(cs, srcRows).orderServed
	}

	ps := cs.projScratchFor(en)
	emit := func() error {
		row := relation.Tuple(rows.alloc(len(cs.outs)))
		if err := cs.evalOuts(en, ps, row); err != nil {
			return err
		}
		if len(cs.orderBy) > 0 && !orderServed {
			keys := make([]relation.Value, len(cs.orderBy))
			for i, o := range cs.orderBy {
				if o.ordinal > 0 {
					keys[i] = row[o.ordinal-1]
					continue
				}
				v, err := o.ex(en)
				if err != nil {
					return err
				}
				keys[i] = v
			}
			sortKeys = append(sortKeys, keys)
		}
		out = append(out, row)
		return nil
	}

	switch {
	case cs.streamCols > 0:
		err = cs.execStreamed(en, emit)
	case cs.grouped:
		err = cs.execGrouped(en, srcRows, emit)
	default:
		err = cs.scan(en, srcRows, emit)
	}
	if err != nil {
		return nil, err
	}

	// DISTINCT before ORDER BY.
	if cs.distinct {
		seen := make(map[string]bool, len(out))
		dedup := out[:0]
		var dedupKeys [][]relation.Value
		en.work[wDistinctKeys] += int64(len(out))
		for i, row := range out {
			k := row.Key()
			if seen[k] {
				continue
			}
			seen[k] = true
			dedup = append(dedup, row)
			if len(sortKeys) > 0 {
				dedupKeys = append(dedupKeys, sortKeys[i])
			}
		}
		out = dedup
		sortKeys = dedupKeys
	}

	if len(cs.orderBy) > 0 && !orderServed {
		idx := make([]int, len(out))
		for i := range idx {
			idx[i] = i
		}
		sort.SliceStable(idx, func(a, b int) bool {
			ka, kb := sortKeys[idx[a]], sortKeys[idx[b]]
			for i, o := range cs.orderBy {
				cmp := relation.Compare(ka[i], kb[i])
				if o.desc {
					cmp = -cmp
				}
				if cmp != 0 {
					return cmp < 0
				}
			}
			return false
		})
		sorted := make([]relation.Tuple, len(out))
		for i, j := range idx {
			sorted[i] = out[j]
		}
		out = sorted
	}
	return out, nil
}

// joinLoop nested-loops over the FROM sources, calling yield for every
// combination passing WHERE.
func (cs *compiledSelect) joinLoop(en *env, src []rowSet, i int, yield func() error) error {
	if i == len(src) {
		if cs.where != nil {
			v, err := cs.where(en)
			if err != nil {
				return err
			}
			if !v.Truth() {
				return nil
			}
		}
		return yield()
	}
	fr := &en.frames[cs.depth]
	en.work[wRowsScanned] += int64(src[i].n)
	for p, si := 0, 0; p < src[i].n; p++ {
		fr.rows[i] = src[i].ref(p, &si)
		if err := cs.joinLoop(en, src, i+1, yield); err != nil {
			return err
		}
	}
	return nil
}

// execGrouped evaluates GROUP BY / aggregate semantics: one output row
// per group passing HAVING, non-aggregate expressions evaluated on a
// representative row of the group: the rows its first match bound, which
// the pinned epoch keeps where they are.
func (cs *compiledSelect) execGrouped(en *env, src []rowSet, emit func() error) error {
	type group struct {
		rep  []rowRef
		accs []aggAcc
	}
	index := make(map[string]int)
	var groups []group // first-seen order

	fr := &en.frames[cs.depth]
	var keyBuf []byte
	err := cs.scan(en, src, func() error {
		keyBuf = keyBuf[:0]
		for _, ge := range cs.groupBy {
			v, err := ge(en)
			if err != nil {
				return err
			}
			keyBuf = relation.AppendKey(keyBuf, v)
		}
		gi, ok := index[string(keyBuf)]
		if !ok {
			en.work[wGroups]++
			gi = len(groups)
			index[string(keyBuf)] = gi
			groups = append(groups, group{rep: slices.Clone(fr.rows), accs: make([]aggAcc, len(cs.aggs))})
		}
		return cs.accumulate(en, groups[gi].accs)
	})
	if err != nil {
		return err
	}

	// A global aggregate over an empty input still yields one row.
	if len(groups) == 0 && len(cs.groupBy) == 0 {
		rep := make([]rowRef, len(cs.sources))
		for i, s := range cs.sources {
			rep[i] = rowRef{tup: make(relation.Tuple, s.width)} // all NULLs
		}
		groups = append(groups, group{rep: rep, accs: make([]aggAcc, len(cs.aggs))})
	}

	fin := cs.beginGroups(en)
	defer delete(en.aggs, cs)
	for _, g := range groups {
		copy(fr.rows, g.rep)
		if err := cs.finishGroup(en, fin, g.accs, emit); err != nil {
			return err
		}
	}
	return nil
}

// execStreamed is execGrouped for the streamed shape (streamCols): the
// derived DISTINCT source feeds its matches through feedDistinct instead
// of returning rows, and one map lookup per match both dedupes it and
// finds its group. A match's dedup key is encoded once, as the group
// key (the first streamCols columns) followed by the remainder; the
// group's state remembers the remainders seen — the first inline, a set
// allocated only if a second distinct one arrives — so a
// repeat is recognised without a set of full keys, and a new row is
// accumulated at once from the scratch row. A group keeps its
// accumulators and, as representative, only its key columns: the shape
// guarantees nothing else of the representative is ever read. Groups
// finalise in first-seen order, like execGrouped's.
func (cs *compiledSelect) execStreamed(en *env, emit func() error) error {
	type group struct {
		rep      relation.Tuple // key columns only
		accs     []aggAcc
		rem      string // remainder of the group's first row
		moreRems map[string]struct{}
		next     *group // first-seen order
	}
	k := cs.streamCols
	index := make(map[string]*group)
	var first, last *group
	var groups slab[group]
	var reps slab[relation.Value]
	var accs slab[aggAcc]
	readsRow := false
	for _, spec := range cs.aggs {
		readsRow = readsRow || !spec.star
	}

	// The source is compiled at this select's depth: it runs in place of
	// the frame exec pushed, which comes back for the aggregate arguments
	// (bound to the scratch row) and for finalisation.
	outer := en.frames[cs.depth]
	en.frames = en.frames[:cs.depth]
	var keyBuf []byte
	err := cs.sources[0].sub.feedDistinct(en, func(row relation.Tuple) error {
		keyBuf = relation.AppendKeyOf(keyBuf[:0], row[:k])
		cut := len(keyBuf)
		keyBuf = relation.AppendKeyOf(keyBuf, row[k:])
		rem := keyBuf[cut:]
		g := index[string(keyBuf[:cut])]
		en.work[wDistinctKeys]++
		switch {
		case g == nil:
			en.work[wGroups]++
			g = &groups.alloc(1)[0]
			g.rep, g.accs = reps.alloc(k), accs.alloc(len(cs.aggs))
			copy(g.rep, row)
			key := string(keyBuf) // one string per group: map key and first remainder
			index[key[:cut]], g.rem = g, key[cut:]
			if last == nil {
				first = g
			} else {
				last.next = g
			}
			last = g
		case g.rem == string(rem):
			return nil
		default:
			if _, dup := g.moreRems[string(rem)]; dup {
				return nil
			}
			if g.moreRems == nil {
				g.moreRems = make(map[string]struct{})
			}
			g.moreRems[string(rem)] = struct{}{}
		}
		if !readsRow {
			return cs.accumulate(en, g.accs)
		}
		inner := en.frames[cs.depth]
		outer.rows[0] = rowRef{tup: row}
		en.frames[cs.depth] = outer
		err := cs.accumulate(en, g.accs)
		en.frames[cs.depth] = inner
		return err
	})
	en.frames = append(en.frames, outer)
	if err != nil {
		return err
	}

	fin := cs.beginGroups(en)
	defer delete(en.aggs, cs)
	for g := first; g != nil; g = g.next {
		outer.rows[0] = rowRef{tup: g.rep}
		if err := cs.finishGroup(en, fin, g.accs, emit); err != nil {
			return err
		}
	}
	return nil
}

// accumulate feeds the current frame's row to one group's accumulators.
func (cs *compiledSelect) accumulate(en *env, accs []aggAcc) error {
	for i, spec := range cs.aggs {
		if err := accs[i].add(en, spec); err != nil {
			return err
		}
	}
	return nil
}

// beginGroups installs the slot the aggregate closures read their
// group's final values from; finishGroup refills it per group, and the
// caller deletes en.aggs[cs] when the last group is out.
func (cs *compiledSelect) beginGroups(en *env) []relation.Value {
	fin := make([]relation.Value, len(cs.aggs))
	en.aggs[cs] = fin
	return fin
}

// finishGroup finalises one group whose representative the caller has
// bound in the frame: aggregate values, HAVING, emit.
func (cs *compiledSelect) finishGroup(en *env, fin []relation.Value, accs []aggAcc, emit func() error) error {
	for i, spec := range cs.aggs {
		fin[i] = accs[i].final(spec)
	}
	if cs.having != nil {
		hv, err := cs.having(en)
		if err != nil || !hv.Truth() {
			return err
		}
	}
	return emit()
}

// aggAcc accumulates one aggregate over one group; the zero value is
// ready to use.
type aggAcc struct {
	rows     int64
	nonNull  int64
	sumI     int64
	sumF     float64
	isFloat  bool
	extreme  relation.Value  // MIN or MAX so far, by spec.name
	distinct map[string]bool // COUNT(DISTINCT x) etc.: made on first use
}

func (a *aggAcc) add(en *env, spec *aggSpec) error {
	a.rows++
	if spec.star {
		return nil
	}
	v, err := spec.arg(en)
	if err != nil {
		return err
	}
	if v.IsNull() {
		return nil
	}
	if spec.distinct {
		k := v.Key()
		en.work[wDistinctKeys]++
		if a.distinct[k] {
			return nil
		}
		if a.distinct == nil {
			a.distinct = make(map[string]bool)
		}
		a.distinct[k] = true
	}
	a.nonNull++
	switch v.K {
	case relation.KindFloat:
		a.isFloat = true
		a.sumF += v.F
	case relation.KindInt, relation.KindBool:
		a.sumI += v.I
		a.sumF += float64(v.I)
	}
	switch spec.name {
	case "MIN":
		if a.extreme.IsNull() || relation.Compare(v, a.extreme) < 0 {
			a.extreme = v
		}
	case "MAX":
		if a.extreme.IsNull() || relation.Compare(v, a.extreme) > 0 {
			a.extreme = v
		}
	}
	return nil
}

func (a *aggAcc) final(spec *aggSpec) relation.Value {
	switch spec.name {
	case "COUNT":
		if spec.star {
			return relation.Int(a.rows)
		}
		return relation.Int(a.nonNull)
	case "SUM":
		if a.nonNull == 0 {
			return relation.Null()
		}
		if a.isFloat {
			return relation.Float(a.sumF)
		}
		return relation.Int(a.sumI)
	case "AVG":
		if a.nonNull == 0 {
			return relation.Null()
		}
		return relation.Float(a.sumF / float64(a.nonNull))
	case "MIN", "MAX":
		return a.extreme
	default:
		return relation.Null()
	}
}
