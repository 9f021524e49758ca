package sqldb

import (
	"fmt"
	"slices"
	"sort"
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
		return 0, db.createTable(s.Name, s.Cols)
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
	conjs  []*planConjunct
	planOK bool
	// lead is the join order of a tiny join (decide): the sources by how
	// many parts read them alone, most first (leadOrder).
	lead     []int
	grouped  bool
	groupBy  []compiledExpr
	having   compiledExpr
	aggs     []*aggSpec
	cols     []string
	outs     []compiledExpr
	distinct bool
	inline   bool           // see dedupsInline
	orderBy  []compiledExpr // ascending keys
	limit    compiledExpr
	// Index-served ORDER BY candidate: when ordSrc >= 0, the ORDER BY
	// keys are plain ascending columns ordCols of that (single,
	// base-table) source. buildSchedule checks for an index with that
	// column prefix and, if the level takes no equality probe, iterates
	// it in order so exec skips the sort.
	ordSrc  int
	ordCols []int
	// proj, when non-nil, is the batch-aware projection plan of an
	// inline DISTINCT: output parts invariant in one source's row (the
	// detection queries' pattern site) are keyed once per site row
	// (idKeys) instead of per emitted row.
	proj *projSpec
	// Streamed grouping: when streamCols > 0, this grouped select has no
	// WHERE, its GROUP BY is exactly the first streamCols output columns
	// (in order) of its single derived DISTINCT source, its only
	// aggregate is COUNT(*), and it reads no other column of that source
	// (see streamableGroup). The source then materializes nothing:
	// execStreamed counts its distinct rows into groups found by the
	// leading ids of their dedup keys. The detector's Qmv grouping keeps
	// 150 of 42 000 distinct macro rows; this is what stops it building
	// the other 41 850.
	streamCols int
	// keyedHaving: the streamed grouping's HAVING reads a column of the
	// group outside an aggregate, so a group's key is decoded before it.
	keyedHaving bool
	// countable: this select is not DISTINCT but could feed its parent's
	// streamed grouping as if it were (compileSelect). counted: the parent
	// does, grouping by every column, so a group is one distinct row and
	// its COUNT(*) the matches that yield it (idKeys.counts).
	countable, counted bool
	// singles > 0: this DISTINCT feeds a streamed grouping by its first
	// singles columns whose HAVING fails every group of one row
	// (dropsSingles), and its site row and one other row decide its
	// outputs: a row is keyed once a second shows its group key (idKeys).
	singles int
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
	if cs.grouped || cs.limit != nil {
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
		inSets: make(map[*InSelect]*inBuild),
	}
}

// compileSubSelect compiles sel in a child scope of the compiler's
// current scope stack.
func (c *compiler) compileSubSelect(sel *Select) (*compiledSelect, error) {
	return c.compileSelect(sel, false)
}

// compileSelect is compileSubSelect; countable says that sel is the one
// derived source of a select that groups it with no WHERE, so it may be
// fed by id keys although it is not DISTINCT (streamableGroup decides).
func (c *compiler) compileSelect(sel *Select, countable bool) (*compiledSelect, error) {
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
			sub, err := c.compileSelect(tr.Sub, len(sel.From) == 1 && sel.Where == nil && len(sel.GroupBy) > 0)
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

	if sel.Having != nil {
		if cs.having, err = inner.compileExpr(sel.Having); err != nil {
			return nil, err
		}
	}
	cs.distinct = sel.Distinct
	for _, o := range sel.OrderBy {
		oe, err := inner.compileExpr(o)
		if err != nil {
			return nil, err
		}
		cs.orderBy = append(cs.orderBy, oe)
	}
	inner.planOrderBy(sel, cs)
	keyable := len(cs.orderBy) == 0 && !cs.grouped && !ref
	cs.inline = cs.distinct && keyable
	if cs.countable = !cs.distinct && keyable && countable && sel.Limit == nil; cs.inline || cs.countable {
		cs.proj = inner.buildProjSpec(astOuts)
	}
	if sel.Limit != nil {
		if cs.limit, err = inner.compileExpr(sel.Limit); err != nil {
			return nil, err
		}
	}
	if len(cs.aggs) == 0 && inner.aggSink != nil {
		cs.aggs = inner.aggSink.specs
	}
	if !ref {
		if cs.streamCols = inner.streamableGroup(sel, cs); cs.streamCols > 0 {
			sub := cs.sources[0].sub
			sub.counted = !sub.distinct
			if sp := sub.proj; sp != nil && !sub.counted && dropsSingles(sel.Having) &&
				(len(sub.sources) == 1 || len(sub.sources) == 2 && sp.site.depth == sub.depth) {
				sub.singles = cs.streamCols
			}
		}
	}
	return cs, nil
}

// streamableGroup returns the GROUP BY width k when sel (compiled into
// cs, with c holding its scope) takes the streamed grouping — see
// compiledSelect.streamCols — and 0 otherwise. The shape: no WHERE, one
// derived source that is DISTINCT and emits its dedup set unsliced
// (ungrouped, no ORDER BY or LIMIT), GROUP BY naming that
// source's first k columns in order, and no aggregate but COUNT(*) — a
// group is a count, never a row's values. And because a streamed group
// keeps only those k columns of its representative, nothing — select
// list, HAVING, ORDER BY, correlated subqueries included — may read any
// other column of the source. A source that is not DISTINCT takes it
// when GROUP BY names every one of its columns: its groups are its
// distinct rows, each counted (compiledSelect.counted).
func (c *compiler) streamableGroup(sel *Select, cs *compiledSelect) int {
	k := len(sel.GroupBy)
	if k == 0 || sel.Where != nil || len(cs.sources) != 1 {
		return 0
	}
	for _, a := range cs.aggs {
		if a.name != "COUNT" || !a.star {
			return 0
		}
	}
	sub := cs.sources[0].sub
	if sub == nil || sub.limit != nil || k > len(sub.cols) || !sub.dedupsInline() && !(sub.countable && k == len(sub.cols)) {
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
	check := func(e Expr) (reads bool) { // any column of the source
		err := bare.walkBindings(e, func(b binding) {
			reads = reads || b.depth == cs.depth
			keyOnly = keyOnly && (b.depth != cs.depth || b.col < k)
		})
		keyOnly = keyOnly && err == nil
		return reads || err != nil
	}
	for _, se := range sel.Exprs {
		if se.Star {
			keyOnly = keyOnly && k == len(sub.cols)
			continue
		}
		check(se.Expr)
	}
	cs.keyedHaving = check(sel.Having)
	for _, o := range sel.OrderBy {
		check(o)
	}
	if !keyOnly {
		return 0
	}
	return k
}

// dropsSingles reports whether HAVING e fails every group of one row:
// COUNT(*) > c with c ≥ 1, or COUNT(*) >= c with c > 1, alone or ANDed
// with anything.
func dropsSingles(e Expr) bool {
	b, ok := e.(*Binary)
	if !ok {
		return false
	}
	if b.Op == "AND" {
		return dropsSingles(b.L) || dropsSingles(b.R)
	}
	fc, _ := b.L.(*FuncCall)
	lit, _ := b.R.(*Literal)
	if fc == nil || lit == nil || fc.Name != "COUNT" || !fc.Star || lit.Val.K != relation.KindInt && lit.Val.K != relation.KindFloat {
		return false
	}
	c := lit.Val.AsFloat()
	return b.Op == ">" && c >= 1 || b.Op == ">=" && c > 1
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
		case *Binary:
			walk(x.L)
			walk(x.R)
		case *IsNull:
			walk(x.X)
		case *Case:
			walk(x.Cond)
			walk(x.Then)
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
// materializations (distinct and emitted output rows) otherwise pay
// one allocator round trip per run, which the profile shows as pure GC
// overhead. Chunks start at two runs and quadruple up to 512, so a
// three-row result does not zero 512 rows.
type slab[T any] struct {
	chunk int // elements in the latest chunk
	free  []T
	used  int // elements handed out
}

func (s *slab[T]) alloc(n int) []T {
	if len(s.free) < n {
		s.chunk = min(max(4*s.chunk, 2*n), 512*n)
		s.free = make([]T, s.chunk)
	}
	run := s.free[:n:n]
	s.free = s.free[n:]
	s.used += n
	return run
}

// outSlab returns the slab a select cuts its output rows from: the
// statement's (env.out) if it has one, else one of the select's own.
func (en *env) outSlab() *slab[relation.Value] {
	if en.out != nil {
		return en.out
	}
	return new(slab[relation.Value])
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

// dedupsInline: a Planned DISTINCT without ORDER BY dedupes while it
// scans, on id keys (feedDistinct). The Fig. 4 macro emits one row per
// (tuple, pattern) match but only |Aux|-many distinct ones, so this skips
// almost all of the row building. Reference materializes every row and
// dedupes them on their encoded keys (execRows).
func (cs *compiledSelect) dedupsInline() bool { return cs.inline }

// feedDistinct scans a select that dedupes inline, or is counted, and
// hands sink each distinct output row once, on the match that first
// yields it, as its entry in the execution's id keys; sink decodes what it
// needs of the row. The innermost batch level drops repeats before they
// are stepped (idKeys.dropRepeats); a match no batch level decided is
// keyed here.
func (cs *compiledSelect) feedDistinct(en *env, sink func(k *idKeys, e int) error) (*idKeys, error) {
	srcRows, err := cs.materialize(en)
	if err != nil {
		return nil, err
	}
	en.frames = append(en.frames, frame{rows: make([]rowRef, len(cs.sources))})
	defer func() { en.frames = en.frames[:cs.depth] }()

	var st *planState
	if cs.planOK {
		st = en.scheduleFor(cs, srcRows).state // the instance scan runs
	} else {
		st = new(planState) // the nested loop keeps nothing between executions
	}
	k := newIDKeys(cs, st)
	k.hmask = ^en.db.narrowKeyHash
	st.dedup = k
	defer k.release(st)
	return k, cs.scan(en, srcRows, func() error {
		e, added, err := k.add(en)
		if err != nil || !added {
			return err
		}
		return sink(k, e)
	})
}

// execDistinct materializes the first occurrence of each distinct row.
func (cs *compiledSelect) execDistinct(en *env) ([]relation.Tuple, error) {
	var out []relation.Tuple
	rows := en.outSlab()
	_, err := cs.feedDistinct(en, func(k *idKeys, e int) error {
		row := rows.alloc(len(cs.outs))
		out = append(out, row)
		return cs.evalOuts(en, row)
	})
	return out, err
}

// evalOuts writes the bound row's first len(dst) output columns into dst.
func (cs *compiledSelect) evalOuts(en *env, dst relation.Tuple) (err error) {
	for i := range dst {
		if dst[i], err = cs.outs[i](en); err != nil {
			return err
		}
	}
	return nil
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
	rows := en.outSlab()

	// When the planner serves ORDER BY through in-order index iteration
	// (schedule.orderServed), rows are emitted already sorted: skip key
	// collection and the final sort entirely. Tie order among rows with
	// equal sort keys may differ from the stable sort's emission order —
	// SQL leaves it unspecified either way.
	orderServed := false
	if len(cs.orderBy) > 0 && !cs.grouped && cs.planOK {
		orderServed = en.scheduleFor(cs, srcRows).orderServed
	}

	emit := func() error {
		row := relation.Tuple(rows.alloc(len(cs.outs)))
		if err := cs.evalOuts(en, row); err != nil {
			return err
		}
		if len(cs.orderBy) > 0 && !orderServed {
			keys := make([]relation.Value, len(cs.orderBy))
			for i, o := range cs.orderBy {
				v, err := o(en)
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
			for i := range cs.orderBy {
				if cmp := relation.Compare(ka[i], kb[i]); cmp != 0 {
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
		for i, spec := range cs.aggs {
			if err := groups[gi].accs[i].add(en, spec); err != nil {
				return err
			}
		}
		return nil
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
		for i, spec := range cs.aggs {
			fin[i] = g.accs[i].final(spec)
		}
		if ok, err := cs.passes(en); !ok {
			if err != nil {
				return err
			}
			continue
		}
		if err := emit(); err != nil {
			return err
		}
	}
	return nil
}

// execStreamed is execGrouped for the streamed shape (streamCols): the
// derived DISTINCT source feeds its distinct rows through feedDistinct
// instead of returning them, and the id table that dedupes a row finds
// its group too, by the row's first streamCols ids. Every aggregate is
// COUNT(*), so a group is its key's entry and its count
// (idKeys.group), and its key columns — its representative: the shape
// guarantees nothing else of it is read — are decoded only when the group
// is finalised, after a HAVING that reads none of them passed. Groups
// finalise in the order they open: at their first row, like execGrouped's,
// or, when the source holds rows (compiledSelect.singles), at their
// second, and a group of one row never opens. A counted source
// (compiledSelect.counted) feeds the same way, its rows being its groups
// and their counts its matches.
func (cs *compiledSelect) execStreamed(en *env, emit func() error) error {
	n := cs.streamCols
	// The source is compiled at this select's depth: it runs in place of
	// the frame exec pushed, which comes back for finalisation.
	outer := en.frames[cs.depth]
	en.frames = en.frames[:cs.depth]
	keys, err := cs.sources[0].sub.feedDistinct(en, func(k *idKeys, e int) error { return k.open(en, e, n) })
	en.frames = append(en.frames, outer)
	if err != nil {
		return err
	}

	rep := make(relation.Tuple, n)
	bind := func(g int) {
		if m := keys.mixed; m >= 0 && g >= m {
			outer.rows[0] = rowRef{tup: keys.reps[(g-m)*n : (g-m+1)*n]}
			return
		}
		keys.decode(int(keys.groups[g]), rep)
		outer.rows[0] = rowRef{tup: rep}
	}
	fin := cs.beginGroups(en)
	defer delete(en.aggs, cs)
	for g, ge := range keys.groups {
		for i := range fin {
			fin[i] = relation.Int(int64(keys.tab.aux[ge]))
		}
		if cs.keyedHaving {
			bind(g)
		}
		if ok, err := cs.passes(en); !ok {
			if err != nil {
				return err
			}
			continue
		}
		if !cs.keyedHaving {
			bind(g)
		}
		if err := emit(); err != nil {
			return err
		}
	}
	return nil
}

// beginGroups installs the slot the aggregate closures read their
// group's final values from; the caller refills it per group, and the
// caller deletes en.aggs[cs] when the last group is out.
func (cs *compiledSelect) beginGroups(en *env) []relation.Value {
	fin := make([]relation.Value, len(cs.aggs))
	en.aggs[cs] = fin
	return fin
}

// passes reports whether the group whose aggregate values fin holds passes
// HAVING, which reads the representative the caller has bound.
func (cs *compiledSelect) passes(en *env) (bool, error) {
	if cs.having == nil {
		return true, nil
	}
	hv, err := cs.having(en)
	return err == nil && hv.Truth(), err
}

// aggAcc accumulates one aggregate over one group; the zero value is
// ready to use.
type aggAcc struct {
	rows    int64
	nonNull int64
	sumI    int64
	sumF    float64
	isFloat bool
	max     relation.Value // MAX so far
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
	a.nonNull++
	switch v.K {
	case relation.KindFloat:
		a.isFloat = true
		a.sumF += v.F
	case relation.KindInt, relation.KindBool:
		a.sumI += v.I
		a.sumF += float64(v.I)
	}
	if spec.name == "MAX" && (a.max.IsNull() || relation.Compare(v, a.max) > 0) {
		a.max = v
	}
	return nil
}

func (a *aggAcc) final(spec *aggSpec) relation.Value {
	switch spec.name {
	case "COUNT":
		return relation.Int(a.rows)
	case "SUM":
		if a.nonNull == 0 {
			return relation.Null()
		}
		if a.isFloat {
			return relation.Float(a.sumF)
		}
		return relation.Int(a.sumI)
	default: // MAX
		return a.max
	}
}
