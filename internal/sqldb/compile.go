package sqldb

import (
	"fmt"
	"math"
	"strings"

	"ecfd/internal/relation"
)

// env is the per-execution evaluation environment: a stack of frames
// (one per nesting level of SELECT scopes), the statement parameters,
// per-group aggregate values, and caches for decorrelated subqueries.
//
// Every piece of state a statement mutates while executing lives here
// (or in the per-env schedule), never on the compiled plan: plans are
// shared by all goroutines running the same prepared statement
// concurrently under the catalog read lock.
type env struct {
	db *DB
	// ep is the epoch this execution reads: the pinned snapshot for
	// lock-free queries, or the writer's in-progress epoch (db.curW)
	// for DML statements running under db.mu. All table data — the
	// segments holding the rows, index structures — is reached through it.
	ep     *epoch
	params []relation.Value
	frames []frame
	aggs   map[*compiledSelect][]relation.Value
	hash   map[*Exists]*hashBuild
	inSets map[*InSelect]*inBuild
	probes map[*Exists]*probeScratch
	// schedules holds the join-plan instance of each select the statement
	// has run — correlated re-executions share it — until
	// publish hands them back. A statement runs few selects: no map.
	schedules []boundSched
	// scratch holds the reusable frame row slots for execExists and
	// semiScan, one per select (a select cannot contain itself, so reuse
	// across its sequential invocations within one statement is safe).
	scratch map[*compiledSelect][]rowRef
	// out, when set, is the slab every select of the statement cuts its
	// output rows from: an INSERT … SELECT's rows die with the statement,
	// so it lends the writer's scratch (runInsert).
	out *slab[relation.Value]
	// work holds the statement's work counters, plain integers that
	// publish adds to the DB's once: concurrent readers must not share a
	// cache line per selection vector.
	work [nWork]int64
}

// The work counters, by their field of Stats.
const (
	wProbeRows = iota
	wSetBinds
	wExactBinds
	wRowsScanned
	wRowsStepped
	wRowConjuncts
	wBindEvals
	wHashBuilds
	wSchedBuilds
	wSchedReuses
	wCellsCopied // this and the next three: added to by DML (DB.copied, DB.wrote), once per statement
	wSegCellsCopied
	wRowsMatched
	wRowsWritten
	wSetRows
	wPostingRows
	wTextLookups
	wDistinctKeys
	wCodeRepeats
	wCodeTranslations
	wGroups
	wSingletonRows
	wIndexSeeks
	wEpochsPublished // added to by publish, not by statements
	nWork
)

// publish ends the statement: the work counters go to the DB's, the
// join-plan instances back to their selects. Whoever makes an env defers it.
func (en *env) publish() {
	for i, n := range en.work {
		if n != 0 {
			en.db.work[i].Add(n)
		}
	}
	for _, b := range en.schedules {
		b.cs.release(b.sch)
	}
	en.schedules = nil
}

// td returns the epoch's data for a table handle.
func (en *env) td(t *Table) *tableData { return en.ep.tds[t] }

// rows returns the epoch's rows of a table handle.
func (en *env) rows(t *Table) rowSet { return en.ep.tds[t].rowSet }

// scratchFor returns the env's frame row slot for cs.
func (en *env) scratchFor(cs *compiledSelect) []rowRef {
	if s, ok := en.scratch[cs]; ok {
		return s
	}
	if en.scratch == nil {
		en.scratch = make(map[*compiledSelect][]rowRef)
	}
	s := make([]rowRef, len(cs.sources))
	en.scratch[cs] = s
	return s
}

type frame struct {
	rows []rowRef // current row per FROM source
}

type compiledExpr func(*env) (relation.Value, error)

// compiler carries the static scope stack during compilation. scope i
// corresponds to env.frames[i] at run time.
type compiler struct {
	db *DB
	// ep is the epoch compilation resolves names against. Plans are
	// cached per ddlVersion, and any epoch with the same ddlVersion has
	// the same tables/schemas/indexes, so a plan compiled against one
	// epoch is valid for every other epoch of that version.
	ep     *epoch
	scopes []*scopeInfo
	// agg routing: when non-nil, aggregate FuncCalls compile into reads
	// of env.aggs[aggSink.cs] and register their specs in aggSink.
	aggSink *aggCollector
	// decorr memoizes the EXISTS decorrelation analysis per node: the
	// closure compiler (compileExists) and the batch probe-kernel
	// extractor (extractProbeKernels) both need it, and the analysis
	// compiles filters and probe keys — running it once per node keeps
	// plan compilation linear in the statement size. Scoped to one
	// compiler, so a shared AST node is never reused across statements
	// or catalog versions.
	decorr map[*Exists]*decorrProbe
	// skipAggArgs makes walkBindings pass over the arguments of this
	// scope's aggregate calls, leaving the bindings a grouped select
	// reads from a group's representative row (streamableGroup).
	skipAggArgs bool
}

type scopeInfo struct {
	sources []sourceInfo
}

type sourceInfo struct {
	name string
	cols []string
}

func (si *sourceInfo) colIndex(name string) int {
	for i, c := range si.cols {
		if strings.EqualFold(c, name) {
			return i
		}
	}
	return -1
}

type aggCollector struct {
	cs    *compiledSelect
	specs []*aggSpec
}

type aggSpec struct {
	name string       // COUNT, SUM, MAX
	star bool         // COUNT(*)
	arg  compiledExpr // nil when star
}

// binding locates a column: frame depth, source index, column index.
type binding struct {
	depth, src, col int
}

// resolve finds ref in the scope stack, innermost scope first.
func (c *compiler) resolve(ref *ColumnRef) (binding, error) {
	for d := len(c.scopes) - 1; d >= 0; d-- {
		s := c.scopes[d]
		if ref.Table != "" {
			for si, src := range s.sources {
				if strings.EqualFold(src.name, ref.Table) {
					ci := src.colIndex(ref.Column)
					if ci < 0 {
						return binding{}, fmt.Errorf("sql: no column %s in %s", ref.Column, ref.Table)
					}
					return binding{depth: d, src: si, col: ci}, nil
				}
			}
			continue
		}
		found := binding{depth: -1}
		matches := 0
		for si, src := range s.sources {
			if ci := src.colIndex(ref.Column); ci >= 0 {
				found = binding{depth: d, src: si, col: ci}
				matches++
			}
		}
		if matches > 1 {
			return binding{}, fmt.Errorf("sql: ambiguous column %s", ref.Column)
		}
		if matches == 1 {
			return found, nil
		}
	}
	if ref.Table != "" {
		return binding{}, fmt.Errorf("sql: unknown table %s", ref.Table)
	}
	return binding{}, fmt.Errorf("sql: unknown column %s", ref.Column)
}

// depsOf walks an expression and reports which scope depths its column
// references touch. Subqueries are entered (their own scope pushed as a
// placeholder so inner-only refs do not count as current-level refs).
func (c *compiler) depsOf(e Expr, deps map[int]bool) error {
	return c.walkBindings(e, func(b binding) { deps[b.depth] = true })
}

func (c *compiler) depsOfSelect(sel *Select, deps map[int]bool) error {
	return c.walkSelectBindings(sel, func(b binding) { deps[b.depth] = true })
}

// walkBindings resolves every column reference in an expression and
// reports its binding. Subqueries are entered with their own scope
// pushed, and only references escaping back into c's scopes (depth <
// len(c.scopes)) are reported — the planner and the subquery
// decorrelator both depend on this walk being complete: a missed
// binding would let a predicate run before its source row is bound.
func (c *compiler) walkBindings(e Expr, report func(binding)) error {
	switch x := e.(type) {
	case nil:
		return nil
	case *Literal, *Param:
		return nil
	case *ColumnRef:
		b, err := c.resolve(x)
		if err != nil {
			return err
		}
		report(b)
		return nil
	case *Binary:
		if err := c.walkBindings(x.L, report); err != nil {
			return err
		}
		return c.walkBindings(x.R, report)
	case *IsNull:
		return c.walkBindings(x.X, report)
	case *Case:
		for _, e := range []Expr{x.Cond, x.Then, x.Else} {
			if err := c.walkBindings(e, report); err != nil {
				return err
			}
		}
		return nil
	case *FuncCall:
		if c.skipAggArgs && aggNames[x.Name] {
			return nil
		}
		for _, a := range x.Args {
			if err := c.walkBindings(a, report); err != nil {
				return err
			}
		}
		return nil
	case *Exists:
		return c.walkSelectBindings(x.Sub, report)
	case *InSelect:
		if err := c.walkBindings(x.X, report); err != nil {
			return err
		}
		return c.walkSelectBindings(x.Sub, report)
	default:
		return fmt.Errorf("sql: walkBindings: unhandled %T", e)
	}
}

// walkSelectBindings reports the bindings of a subquery's expressions
// that escape into c's scopes.
func (c *compiler) walkSelectBindings(sel *Select, report func(binding)) error {
	sub := &compiler{db: c.db, ep: c.ep, scopes: c.scopes}
	scope, err := sub.scopeFor(sel)
	if err != nil {
		return err
	}
	sub.scopes = append(append([]*scopeInfo{}, c.scopes...), scope)
	outerLen := len(c.scopes)
	escape := func(b binding) {
		if b.depth < outerLen {
			report(b)
		}
	}
	collect := func(e Expr) error { return sub.walkBindings(e, escape) }
	for _, se := range sel.Exprs {
		if !se.Star {
			if err := collect(se.Expr); err != nil {
				return err
			}
		}
	}
	for _, e := range []Expr{sel.Where, sel.Having, sel.Limit} {
		if err := collect(e); err != nil {
			return err
		}
	}
	for _, g := range sel.GroupBy {
		if err := collect(g); err != nil {
			return err
		}
	}
	for _, o := range sel.OrderBy {
		if err := collect(o); err != nil {
			return err
		}
	}
	for _, tr := range sel.From {
		if tr.Sub != nil {
			// Derived tables see only outer scopes, not sel's own scope
			// (mirroring compileSubSelect), so they walk with c directly.
			if err := c.walkSelectBindings(tr.Sub, report); err != nil {
				return err
			}
		}
	}
	return nil
}

// scopeFor builds the scopeInfo a select's FROM list binds.
func (c *compiler) scopeFor(sel *Select) (*scopeInfo, error) {
	scope := &scopeInfo{}
	for _, tr := range sel.From {
		if tr.Sub != nil {
			cols, err := outputColumns(c, tr.Sub)
			if err != nil {
				return nil, err
			}
			scope.sources = append(scope.sources, sourceInfo{name: tr.Name(), cols: cols})
			continue
		}
		t, err := c.ep.table(tr.Table)
		if err != nil {
			return nil, err
		}
		scope.sources = append(scope.sources, sourceInfo{name: tr.Name(), cols: t.Schema.Names()})
	}
	return scope, nil
}

// outputColumns computes the column names a select produces.
func outputColumns(c *compiler, sel *Select) ([]string, error) {
	inner := &compiler{db: c.db, ep: c.ep, scopes: c.scopes}
	scope, err := inner.scopeFor(sel)
	if err != nil {
		return nil, err
	}
	var out []string
	n := 0
	for _, se := range sel.Exprs {
		switch {
		case se.Star:
			for _, src := range scope.sources {
				out = append(out, src.cols...)
			}
		case se.Alias != "":
			out = append(out, se.Alias)
		default:
			if ref, ok := se.Expr.(*ColumnRef); ok {
				out = append(out, ref.Column)
			} else {
				out = append(out, fmt.Sprintf("col%d", n))
			}
		}
		n++
	}
	return out, nil
}

// compileExpr lowers an expression to a closure.
func (c *compiler) compileExpr(e Expr) (compiledExpr, error) {
	switch x := e.(type) {
	case *Literal:
		v := x.Val
		return func(*env) (relation.Value, error) { return v, nil }, nil

	case *Param:
		i := x.Index
		return func(en *env) (relation.Value, error) {
			if i >= len(en.params) {
				return relation.Null(), fmt.Errorf("sql: missing parameter %d", i+1)
			}
			return en.params[i], nil
		}, nil

	case *ColumnRef:
		b, err := c.resolve(x)
		if err != nil {
			return nil, err
		}
		// rowRef.at written out: it is over the inliner's budget once
		// colVec.at is inlined into it, and this closure reads every
		// column a plan reads.
		return func(en *env) (relation.Value, error) {
			r := &en.frames[b.depth].rows[b.src]
			if r.tup != nil {
				return r.tup[b.col], nil
			}
			return r.cols[b.col].at(r.off), nil
		}, nil

	case *Binary:
		return c.compileBinary(x)

	case *IsNull:
		inner, err := c.compileExpr(x.X)
		if err != nil {
			return nil, err
		}
		neg := x.Neg
		return func(en *env) (relation.Value, error) {
			v, err := inner(en)
			if err != nil {
				return relation.Null(), err
			}
			return relation.Bool(v.IsNull() != neg), nil
		}, nil

	case *Case:
		return c.compileCase(x)

	case *FuncCall:
		return c.compileFunc(x)

	case *Exists:
		return c.compileExists(x)

	case *InSelect:
		return c.compileInSelect(x)

	default:
		return nil, fmt.Errorf("sql: cannot compile %T", e)
	}
}

func (c *compiler) compileBinary(x *Binary) (compiledExpr, error) {
	// AND/OR chains flatten into one n-ary closure: detection queries
	// conjoin dozens of terms, and a balanced tree of two-input
	// closures would cost a call frame per node instead of one loop.
	if x.Op == "AND" || x.Op == "OR" {
		var terms []Expr
		flattenLogical(x.Op, x, &terms)
		compiled := make([]compiledExpr, len(terms))
		for i, t := range terms {
			var err error
			if compiled[i], err = c.compileExpr(t); err != nil {
				return nil, err
			}
		}
		if x.Op == "AND" {
			return func(en *env) (relation.Value, error) {
				sawNull := false
				for _, t := range compiled {
					v, err := t(en)
					if err != nil {
						return relation.Null(), err
					}
					if v.IsNull() {
						sawNull = true
					} else if !v.Truth() {
						return relation.Bool(false), nil
					}
				}
				if sawNull {
					return relation.Null(), nil
				}
				return relation.Bool(true), nil
			}, nil
		}
		return func(en *env) (relation.Value, error) {
			sawNull := false
			for _, t := range compiled {
				v, err := t(en)
				if err != nil {
					return relation.Null(), err
				}
				if v.Truth() {
					return relation.Bool(true), nil
				}
				if v.IsNull() {
					sawNull = true
				}
			}
			if sawNull {
				return relation.Null(), nil
			}
			return relation.Bool(false), nil
		}, nil
	}

	if fast, err := c.fastCompare(x); err != nil {
		return nil, err
	} else if fast != nil {
		return fast, nil
	}
	l, err := c.compileExpr(x.L)
	if err != nil {
		return nil, err
	}
	r, err := c.compileExpr(x.R)
	if err != nil {
		return nil, err
	}
	switch x.Op {
	case "=", "<>", "<", "<=", ">", ">=":
		op := x.Op
		return func(en *env) (relation.Value, error) {
			lv, err := l(en)
			if err != nil {
				return relation.Null(), err
			}
			rv, err := r(en)
			if err != nil {
				return relation.Null(), err
			}
			if lv.IsNull() || rv.IsNull() {
				return relation.Null(), nil
			}
			var res bool
			switch op {
			case "=":
				res = relation.Equal(lv, rv)
			case "<>":
				res = !relation.Equal(lv, rv)
			default:
				cmp := relation.Compare(lv, rv)
				switch op {
				case "<":
					res = cmp < 0
				case "<=":
					res = cmp <= 0
				case ">":
					res = cmp > 0
				case ">=":
					res = cmp >= 0
				}
			}
			return relation.Bool(res), nil
		}, nil
	default:
		return nil, fmt.Errorf("sql: unknown binary op %s", x.Op)
	}
}

// flattenLogical collects the maximal same-operator chain under e.
func flattenLogical(op string, e Expr, out *[]Expr) {
	if b, ok := e.(*Binary); ok && b.Op == op {
		flattenLogical(op, b.L, out)
		flattenLogical(op, b.R, out)
		return
	}
	*out = append(*out, e)
}

// fastCompare emits a specialized closure for the ubiquitous
// column-vs-integer-literal comparison (`c.A_L <> 1`, `c.CID = 3`,
// `c.A_R > 0`, …), skipping the generic literal closure, Equal kind
// dispatch and Compare ranking. These dominate the eCFD detection
// scans, where every (tuple, pattern) pair evaluates a few dozen of
// them.
func (c *compiler) fastCompare(x *Binary) (compiledExpr, error) {
	switch x.Op {
	case "=", "<>", "<", "<=", ">", ">=":
	default:
		return nil, nil
	}
	flip := func(op string) string {
		switch op {
		case "<":
			return ">"
		case "<=":
			return ">="
		case ">":
			return "<"
		case ">=":
			return "<="
		}
		return op
	}
	ref, okL := x.L.(*ColumnRef)
	lit, okR := x.R.(*Literal)
	op := x.Op
	if !okL || !okR {
		// literal OP column: flip the operands and the comparison.
		if lit2, ok := x.L.(*Literal); ok {
			if ref2, ok := x.R.(*ColumnRef); ok {
				ref, lit, okL, okR = ref2, lit2, true, true
				op = flip(op)
			}
		}
		if !okL || !okR {
			return nil, nil
		}
	}
	if lit.Val.K != relation.KindInt {
		return nil, nil
	}
	b, err := c.resolve(ref)
	if err != nil {
		return nil, err
	}
	want := lit.Val.I
	switch op {
	case "=":
		return func(en *env) (relation.Value, error) {
			v := en.frames[b.depth].rows[b.src].at(b.col)
			if v.K == relation.KindInt || v.K == relation.KindBool {
				return relation.Bool(v.I == want), nil
			}
			if v.K == relation.KindNull {
				return relation.Null(), nil
			}
			return relation.Bool(relation.Equal(v, relation.Int(want))), nil
		}, nil
	case "<>":
		return func(en *env) (relation.Value, error) {
			v := en.frames[b.depth].rows[b.src].at(b.col)
			if v.K == relation.KindInt || v.K == relation.KindBool {
				return relation.Bool(v.I != want), nil
			}
			if v.K == relation.KindNull {
				return relation.Null(), nil
			}
			return relation.Bool(!relation.Equal(v, relation.Int(want))), nil
		}, nil
	default:
		opc := op
		return func(en *env) (relation.Value, error) {
			v := en.frames[b.depth].rows[b.src].at(b.col)
			if v.K == relation.KindInt || v.K == relation.KindBool {
				var res bool
				switch opc {
				case "<":
					res = v.I < want
				case "<=":
					res = v.I <= want
				case ">":
					res = v.I > want
				case ">=":
					res = v.I >= want
				}
				return relation.Bool(res), nil
			}
			if v.K == relation.KindNull {
				return relation.Null(), nil
			}
			c := relation.Compare(v, relation.Int(want))
			var res bool
			switch opc {
			case "<":
				res = c < 0
			case "<=":
				res = c <= 0
			case ">":
				res = c > 0
			case ">=":
				res = c >= 0
			}
			return relation.Bool(res), nil
		}, nil
	}
}

// compileCase lowers CASE WHEN c THEN a ELSE b END, the shape of the
// paper's '@'-blanking projections.
func (c *compiler) compileCase(x *Case) (compiledExpr, error) {
	cond, err := c.compileExpr(x.Cond)
	if err != nil {
		return nil, err
	}
	res, err := c.compileExpr(x.Then)
	if err != nil {
		return nil, err
	}
	alt, err := c.compileExpr(x.Else)
	if err != nil {
		return nil, err
	}
	return func(en *env) (relation.Value, error) {
		cv, err := cond(en)
		if err != nil {
			return relation.Null(), err
		}
		if cv.Truth() {
			return res(en)
		}
		return alt(en)
	}, nil
}

var aggNames = map[string]bool{"COUNT": true, "SUM": true, "MAX": true}

func (c *compiler) compileFunc(x *FuncCall) (compiledExpr, error) {
	if aggNames[x.Name] {
		if c.aggSink == nil {
			return nil, fmt.Errorf("sql: aggregate %s not allowed here", x.Name)
		}
		spec := &aggSpec{name: x.Name, star: x.Star}
		if !x.Star {
			// The aggregate's argument is evaluated in row context — no
			// nested aggregates.
			sink := c.aggSink
			c.aggSink = nil
			arg, err := c.compileExpr(x.Args[0])
			c.aggSink = sink
			if err != nil {
				return nil, err
			}
			spec.arg = arg
		}
		sink := c.aggSink
		idx := len(sink.specs)
		sink.specs = append(sink.specs, spec)
		cs := sink.cs
		return func(en *env) (relation.Value, error) {
			vals := en.aggs[cs]
			if idx >= len(vals) {
				return relation.Null(), fmt.Errorf("sql: aggregate evaluated outside grouping")
			}
			return vals[idx], nil
		}, nil
	}

	args := make([]compiledExpr, len(x.Args))
	for i, a := range x.Args {
		var err error
		if args[i], err = c.compileExpr(a); err != nil {
			return nil, err
		}
	}
	switch x.Name {
	case "ABS":
		return func(en *env) (relation.Value, error) {
			v, err := args[0](en)
			if err != nil || v.IsNull() {
				return relation.Null(), err
			}
			if v.K == relation.KindFloat {
				return relation.Float(math.Abs(v.F)), nil
			}
			if v.I < 0 {
				return relation.Int(-v.I), nil
			}
			return relation.Int(v.I), nil
		}, nil
	case "COALESCE":
		// COALESCE(TOTEXT(e), 'lit') is the paper's NULL-marking idiom,
		// evaluated once per (tuple, pattern) pair in the Fig. 4 macro;
		// fuse it into a single closure.
		if tt, ok := x.Args[0].(*FuncCall); ok && tt.Name == "TOTEXT" {
			if lit, ok := x.Args[1].(*Literal); ok {
				inner, err := c.compileExpr(tt.Args[0])
				if err != nil {
					return nil, err
				}
				alt := lit.Val
				return func(en *env) (relation.Value, error) {
					v, err := inner(en)
					if err != nil {
						return relation.Null(), err
					}
					if v.K == relation.KindNull {
						return alt, nil
					}
					if v.K == relation.KindText {
						return v, nil
					}
					return relation.Text(v.String()), nil
				}, nil
			}
		}
		a, b := args[0], args[1]
		return func(en *env) (relation.Value, error) {
			v, err := a(en)
			if err != nil || !v.IsNull() {
				return v, err
			}
			return b(en)
		}, nil
	case "TOTEXT":
		// TOTEXT renders any value as TEXT (NULL stays NULL). The eCFD
		// detection queries use it so the '@'-blanking CASE trick of the
		// paper works over non-text attributes.
		return func(en *env) (relation.Value, error) {
			v, err := args[0](en)
			if err != nil || v.IsNull() {
				return relation.Null(), err
			}
			return relation.Text(v.String()), nil
		}, nil
	default:
		return nil, fmt.Errorf("sql: unknown function %s", x.Name)
	}
}
