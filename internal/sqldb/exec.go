package sqldb

import (
	"fmt"
	"sort"
	"strings"

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

// QueryStmt runs a parsed SELECT. Like Prepared.Query it pins the
// current epoch and takes no lock, so queries execute concurrently
// with each other and with writers.
func (db *DB) QueryStmt(sel *Select, params ...relation.Value) (*Result, error) {
	ep := db.pin()
	defer db.unpin(ep)
	return db.execSelect(sel, params, ep)
}

// ExecStmt runs one parsed statement. If the statement's WAL unit
// joined a group commit, the statement waits for the group fsync
// (outside db.mu) before acknowledging.
func (db *DB) ExecStmt(stmt Statement, params ...relation.Value) (int64, error) {
	db.mu.Lock()
	n, err := db.execStmtLocked(stmt, params)
	p := db.takePending()
	db.mu.Unlock()
	if p != nil {
		if werr := db.awaitDurable(p); werr != nil && err == nil {
			return 0, werr
		}
	}
	return n, err
}

func (db *DB) execStmtLocked(stmt Statement, params []relation.Value) (int64, error) {
	switch s := stmt.(type) {
	case *CreateTable:
		db.mu.Unlock()
		err := db.CreateTable(s.Name, s.Cols, s.IfNotExists)
		db.mu.Lock()
		return 0, err
	case *CreateIndex:
		db.mu.Unlock()
		err := db.CreateIndex(s.Name, s.Table, s.Cols)
		db.mu.Lock()
		return 0, err
	case *DropTable:
		db.mu.Unlock()
		err := db.DropTable(s.Name, s.IfExists)
		db.mu.Lock()
		return 0, err
	case *TruncateTable:
		if err := db.writable(); err != nil {
			return 0, err
		}
		t, err := db.table(s.Name)
		if err != nil {
			return 0, err
		}
		n := int64(len(db.curW.tds[t].rows))
		if n == 0 {
			return 0, nil // already empty: no WAL record, no epoch
		}
		if err := db.logTruncate(t.Name); err != nil {
			return 0, err
		}
		db.backupForTx(t)
		db.applyTruncate(t)
		return n, nil
	case *Insert:
		return db.execInsert(s, params)
	case *Update:
		return db.execUpdate(s, params)
	case *Delete:
		return db.execDelete(s, params)
	case *Select:
		res, err := db.execSelect(s, params, db.curW)
		if err != nil {
			return 0, err
		}
		return int64(len(res.Rows)), nil
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
	nTerms   int
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
	// keys are plain columns ordCols of that (single, base-table)
	// source in one uniform direction. buildSchedule checks for an
	// index with that column prefix and, if the level takes no equality
	// probe, iterates it in order so exec skips the sort.
	ordSrc  int
	ordCols []int
	ordDesc bool
	// proj, when non-nil, is the batch-aware projection plan: output
	// parts invariant in one source's row (the detection queries'
	// pattern site) replay from a per-site-row cache instead of
	// re-evaluating per emitted row. Built for ungrouped selects only.
	proj *projSpec
	// Group-key spine sharing: when spineSub is non-nil, this grouped
	// select's GROUP BY is exactly the first spineCols output columns
	// (in order) of its single derived DISTINCT source, it has no WHERE
	// of its own, and the source dedupes inline — so the group key of
	// every input row is a byte prefix of the dedup key the source
	// already encoded. exec asks the source to record those prefixes
	// (env.spineWant/spine) and execGrouped groups on them directly.
	// The Qmv grouping re-hashes a 10-column subset of the macro's
	// 19-column DISTINCT key; this elides that second encoding pass.
	spineSub  *compiledSelect
	spineCols int
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
	srcRows := make([][]relation.Tuple, len(cs.sources))
	for i, src := range cs.sources {
		srcRows[i] = en.rows(src.table)
	}
	en.frames = append(en.frames, frame{rows: en.scratchFor(cs)})
	var err error
	if DisablePlanner || !cs.planOK {
		err = cs.joinLoop(en, srcRows, 0, func() error { return errFound })
	} else {
		sch := en.scheduleFor(cs, srcRows)
		err = cs.runPlan(en, sch, srcRows, yieldFound)
	}
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

// execSelect compiles and runs a select at the top level against one
// epoch (a reader's pinned snapshot, or the writer head for selects
// inside mutating scripts).
func (db *DB) execSelect(sel *Select, params []relation.Value, ep *epoch) (*Result, error) {
	c := &compiler{db: db, ep: ep}
	cs, err := c.compileSubSelect(sel)
	if err != nil {
		return nil, err
	}
	en := newEnv(db, ep, params)
	rows, err := cs.exec(en)
	if err != nil {
		return nil, err
	}
	return &Result{Cols: cs.cols, Rows: rows}, nil
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
	// Detect the spine-sharing shape (see the compiledSelect fields):
	// GROUP BY over a lone derived DISTINCT source, keyed by that
	// source's leading output columns in order, with no outer WHERE.
	// The source must emit its dedup set unsliced (no ORDER BY, LIMIT
	// or OFFSET) so recorded key prefixes stay row-aligned.
	if len(sel.GroupBy) > 0 && sel.Where == nil && len(cs.sources) == 1 {
		if sub := cs.sources[0].sub; sub != nil && sub.distinct && !sub.grouped &&
			len(sub.orderBy) == 0 && sub.limit == nil && sub.offset == nil &&
			len(sel.GroupBy) <= len(sub.cols) {
			eligible := true
			for i, g := range sel.GroupBy {
				ref, ok := g.(*ColumnRef)
				if !ok {
					eligible = false
					break
				}
				b, err := inner.resolve(ref)
				if err != nil || b != (binding{depth: cs.depth, src: 0, col: i}) {
					eligible = false
					break
				}
			}
			if eligible {
				cs.spineSub = sub
				cs.spineCols = len(sel.GroupBy)
			}
		}
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
						return en.frames[b.depth].rows[b.src][b.col], nil
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
	if !cs.grouped {
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

	// Materialize sources. When this select shares its group-key spine
	// with a derived DISTINCT source, ask the source (via env.spineWant)
	// to record the key prefixes while it dedupes, and collect them for
	// execGrouped. A length mismatch (defensive; the shape should
	// guarantee alignment) silently falls back to re-encoding.
	srcRows := make([][]relation.Tuple, len(cs.sources))
	var spine []string
	for i, src := range cs.sources {
		if src.table != nil {
			srcRows[i] = en.rows(src.table)
			continue
		}
		wantSpine := cs.spineSub != nil && src.sub == cs.spineSub && !DisablePlanner
		if wantSpine {
			if en.spineWant == nil {
				en.spineWant = make(map[*compiledSelect]int)
			}
			en.spineWant[src.sub] = cs.spineCols
		}
		rows, err := src.sub.exec(en)
		if wantSpine {
			delete(en.spineWant, src.sub)
			spine = en.spine[src.sub]
			delete(en.spine, src.sub)
			if len(spine) != len(rows) {
				spine = nil
			}
		}
		if err != nil {
			return nil, err
		}
		srcRows[i] = rows
	}

	fr := frame{rows: make([]relation.Tuple, len(cs.sources))}
	en.frames = append(en.frames, fr)
	defer func() { en.frames = en.frames[:cs.depth] }()

	var out []relation.Tuple
	var sortKeys [][]relation.Value
	// Output rows allocate from slabs: high-cardinality materializations
	// (the Qmv macro's distinct projections) otherwise pay one allocator
	// round trip per row, which the profile shows as pure GC overhead.
	var slab []relation.Value
	allocRow := func() relation.Tuple {
		n := len(cs.outs)
		if len(slab) < n {
			size := 512 * n
			if size < n {
				size = n
			}
			slab = make([]relation.Value, size)
		}
		row := relation.Tuple(slab[:n:n])
		slab = slab[n:]
		return row
	}

	// When the planner serves ORDER BY through in-order index iteration
	// (schedule.orderServed), rows are emitted already sorted: skip key
	// collection and the final sort entirely. Tie order among rows with
	// equal sort keys may differ from the stable sort's emission order —
	// SQL leaves it unspecified either way.
	orderServed := false
	if len(cs.orderBy) > 0 && !cs.grouped && cs.planOK && !DisablePlanner {
		orderServed = en.scheduleFor(cs, srcRows).orderServed
	}

	// The batch-aware projection replays site-invariant output parts
	// from a per-pattern cache. It stays off under DisablePlanner so
	// the forced nested-loop differential leg evaluates the plain outs
	// closures as an independent reference.
	var projPS *projScratch
	if cs.proj != nil && !DisablePlanner {
		projPS = cs.proj.scratch(en, cs)
	}
	evalOuts := func(dst relation.Tuple) error {
		if projPS != nil {
			return cs.proj.evalOuts(en, cs, projPS, dst)
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

	emit := func() error {
		row := allocRow()
		if err := evalOuts(row); err != nil {
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

	// DISTINCT without ORDER BY dedupes inline: output values land in a
	// reused scratch row and only the first occurrence of each key is
	// materialized. The Fig. 4 macro emits one row per (tuple, pattern)
	// match but only |Aux|-many distinct ones, so this skips almost all
	// of the row allocation.
	dedupInline := cs.distinct && len(cs.orderBy) == 0 && !cs.grouped
	// spineCols > 0 when a grouped caller asked this select to record
	// the leading-column prefix of each emitted row's dedup key (one
	// recorded string per output row, in emission order).
	spineCols := 0
	var spineKeys []string
	if dedupInline && en.spineWant != nil {
		spineCols = en.spineWant[cs]
	}
	if dedupInline {
		seen := make(map[string]bool)
		scratchRow := make(relation.Tuple, len(cs.outs))
		var keyBuf []byte
		// Raw pre-dedup: when the projection plan proves the output row
		// is a pure function of (site row, a known set of scan columns),
		// a repeated raw combination skips output evaluation and the
		// 2|R|+1-value key hash entirely — the Qmv macro's matches are
		// overwhelmingly repeats of a few distinct pattern projections.
		var rawSeen map[string]bool // per-execution: see projSpec.preDedup
		if projPS != nil && cs.proj.preKeyOK {
			rawSeen = make(map[string]bool)
		}
		emit = func() error {
			if rawSeen != nil {
				skip, err := cs.proj.preDedup(en, cs, projPS, rawSeen)
				if err != nil {
					return err
				}
				if skip {
					return nil
				}
			}
			if err := evalOuts(scratchRow); err != nil {
				return err
			}
			if spineCols > 0 {
				// Same bytes AppendKeyOf would produce, built value by
				// value so the offset after the spineCols-th separator
				// is known: that prefix IS the caller's group key.
				keyBuf = keyBuf[:0]
				cut := 0
				for i, v := range scratchRow {
					keyBuf = relation.AppendKey(keyBuf, v)
					keyBuf = append(keyBuf, 0x1f)
					if i+1 == spineCols {
						cut = len(keyBuf)
					}
				}
				if seen[string(keyBuf)] {
					return nil
				}
				seen[string(keyBuf)] = true
				spineKeys = append(spineKeys, string(keyBuf[:cut]))
			} else {
				keyBuf = relation.AppendKeyOf(keyBuf[:0], scratchRow)
				if seen[string(keyBuf)] {
					return nil
				}
				seen[string(keyBuf)] = true
			}
			row := allocRow()
			copy(row, scratchRow)
			out = append(out, row)
			return nil
		}
	}

	if cs.grouped {
		if err := cs.execGrouped(en, srcRows, spine, emit); err != nil {
			return nil, err
		}
	} else {
		if err := cs.scan(en, srcRows, emit); err != nil {
			return nil, err
		}
	}
	if spineCols > 0 {
		if en.spine == nil {
			en.spine = make(map[*compiledSelect][]string)
		}
		en.spine[cs] = spineKeys
	}

	// DISTINCT before ORDER BY.
	if cs.distinct && !dedupInline {
		seen := make(map[string]bool, len(out))
		dedup := out[:0]
		var dedupKeys [][]relation.Value
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

// joinLoop nested-loops over the FROM sources, calling yield for every
// combination passing WHERE.
func (cs *compiledSelect) joinLoop(en *env, src [][]relation.Tuple, i int, yield func() error) error {
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
	for _, row := range src[i] {
		fr.rows[i] = row
		if err := cs.joinLoop(en, src, i+1, yield); err != nil {
			return err
		}
	}
	return nil
}

// execGrouped evaluates GROUP BY / aggregate semantics: one output row
// per group passing HAVING, non-aggregate expressions evaluated on a
// representative row of the group. spine, when non-nil, holds one
// precomputed group key per row of the single source (the prefix of
// the derived DISTINCT source's dedup key — see spineSub): grouping
// then consumes those keys directly instead of re-evaluating and
// re-encoding the GROUP BY columns per row.
func (cs *compiledSelect) execGrouped(en *env, src [][]relation.Tuple, spine []string, emit func() error) error {
	type group struct {
		rep  []relation.Tuple
		accs []*aggAcc
	}
	groups := make(map[string]*group)
	var order []string

	fr := &en.frames[cs.depth]
	if spine != nil && len(cs.sources) == 1 && cs.where == nil {
		// The spine shape has one source and no WHERE, so the scan is
		// a plain in-order iteration; drive it directly with the
		// recorded keys (spine[ri] aligns with src[0][ri]).
		for ri, row := range src[0] {
			fr.rows[0] = row
			key := spine[ri]
			g := groups[key]
			if g == nil {
				g = &group{rep: append([]relation.Tuple(nil), fr.rows...), accs: newAccs(cs.aggs)}
				groups[key] = g
				order = append(order, key)
			}
			for i, spec := range cs.aggs {
				if err := g.accs[i].add(en, spec); err != nil {
					return err
				}
			}
		}
	} else {
		var keyBuf []byte
		err := cs.scan(en, src, func() error {
			keyBuf = keyBuf[:0]
			for _, ge := range cs.groupBy {
				v, err := ge(en)
				if err != nil {
					return err
				}
				keyBuf = relation.AppendKey(keyBuf, v)
				keyBuf = append(keyBuf, 0x1f)
			}
			g := groups[string(keyBuf)]
			if g == nil {
				key := string(keyBuf)
				g = &group{rep: append([]relation.Tuple(nil), fr.rows...), accs: newAccs(cs.aggs)}
				groups[key] = g
				order = append(order, key)
			}
			for i, spec := range cs.aggs {
				if err := g.accs[i].add(en, spec); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
	}

	// A global aggregate over an empty input still yields one row.
	if len(groups) == 0 && len(cs.groupBy) == 0 {
		rep := make([]relation.Tuple, len(cs.sources))
		for i, s := range cs.sources {
			rep[i] = make(relation.Tuple, s.width) // all NULLs
		}
		groups[""] = &group{rep: rep, accs: newAccs(cs.aggs)}
		order = append(order, "")
	}

	for _, key := range order {
		g := groups[key]
		copy(fr.rows, g.rep)
		vals := make([]relation.Value, len(cs.aggs))
		for i, spec := range cs.aggs {
			vals[i] = g.accs[i].final(spec)
		}
		en.aggs[cs] = vals
		if cs.having != nil {
			hv, err := cs.having(en)
			if err != nil {
				return err
			}
			if !hv.Truth() {
				continue
			}
		}
		if err := emit(); err != nil {
			return err
		}
	}
	delete(en.aggs, cs)
	return nil
}

// aggAcc accumulates one aggregate over one group.
type aggAcc struct {
	rows     int64
	nonNull  int64
	sumI     int64
	sumF     float64
	isFloat  bool
	min, max relation.Value
	distinct map[string]bool
}

func newAccs(specs []*aggSpec) []*aggAcc {
	out := make([]*aggAcc, len(specs))
	for i, s := range specs {
		out[i] = &aggAcc{}
		if s.distinct {
			out[i].distinct = make(map[string]bool)
		}
	}
	return out
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
		if a.distinct[k] {
			return nil
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
	if a.min.IsNull() || relation.Compare(v, a.min) < 0 {
		a.min = v
	}
	if a.max.IsNull() || relation.Compare(v, a.max) > 0 {
		a.max = v
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
	case "MIN":
		return a.min
	case "MAX":
		return a.max
	default:
		return relation.Null()
	}
}
