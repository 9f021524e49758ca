package sqldb

import (
	"fmt"
	"slices"

	"ecfd/internal/relation"
)

// hashBuild is the build side of a decorrelated EXISTS: the set of key
// tuples present in the probe's inner table (after inner-only filters) at
// one version of its rows, n of them. An execution keeps its builds on its
// env (one per statement execution), so concurrent executions of the same
// compiled plan never share one; a probe kernel's plan instance also keeps
// its last, when it is small and its filters read nothing but the row
// (decorrProbe.keep), for the next execution over the same version
// (probeInst.hb). The set is its own strings: it holds nothing of the
// epoch it was built from.
type hashBuild struct {
	version uint64
	n       int
	set     map[string]bool
}

// probeScratch is the per-env scratch of one decorrelated probe site:
// the evaluated key values, by key position and in index column order,
// and the reusable key buffer. Keyed by the *Exists node on the env, so
// concurrent executions of the same plan never share it.
type probeScratch struct {
	vals, idxVals []relation.Value
	keyBuf        []byte
}

// inBuild caches the value set of an uncorrelated IN (SELECT ...).
type inBuild struct {
	set     map[string]bool
	hasNull bool
}

// compileExists lowers [NOT] EXISTS (SELECT ...). Two strategies:
//
//  1. Decorrelated probe — the subquery is a single-table select whose
//     WHERE is a conjunction of (a) inner-column = outer-expr equalities
//     and (b) inner-only filters. A persistent index or one hash build
//     over the inner table per statement answers, O(1) per outer row.
//     The eCFD detection queries' EXISTS (t.A = TA.A AND c.CID = TA.CID)
//     all run as probe kernels over the same analysis (kprobe); this
//     closure decides the parts no kernel takes, and it spares every
//     EXISTS part the sub-select compilation strategy 2 would build.
//  2. Naive — re-execute per outer row (any other shape, an
//     uncorrelated subquery among them; every EXISTS in Reference mode).
func (c *compiler) compileExists(x *Exists) (compiledExpr, error) {
	if probe, err := c.tryDecorrelate(x); err != nil {
		return nil, err
	} else if probe != nil {
		return probe, nil
	}

	cs, err := c.compileSubSelect(x.Sub)
	if err != nil {
		return nil, err
	}
	neg := x.Neg
	return func(en *env) (relation.Value, error) {
		found, err := cs.execExists(en)
		if err != nil {
			return relation.Null(), err
		}
		return relation.Bool(found != neg), nil
	}, nil
}

// decorrProbe is the analyzed form of a decorrelatable EXISTS: the
// inner table, the key columns and the matching outer key expressions,
// the inner-only build filters, and — when no filters apply and the key
// binds every column of a secondary index (probeIndex) — the persistent
// index answering the probe. It is the single source of truth for the
// decorrelated semantics, shared by the per-row closure (tryDecorrelate)
// and the batch probe kernel (kprobe): both resolve the same env hash
// build (keyed by x) or the same index, and encode keys identically.
type decorrProbe struct {
	x       *Exists
	neg     bool
	t       *Table
	keyCols []int
	outer   []Expr // outer key expressions, aligned with keyCols
	filters []compiledExpr
	// keep: every filter reads only the inner row and literals
	// (compiler.rowOnly), so a build is fixed by the version of t alone
	// and a plan instance may keep it across executions. A filter that
	// reads a parameter, or a subquery over another table, differs
	// between executions over the same version of t.
	keep bool
	idx  *Index // the index answering the probe (filters empty), or nil
	perm []int  // index column order → outer key position
	// rest are the key positions the index does not cover: a row the
	// index finds must also hold them (matchRest).
	rest []int
}

// ensureHash returns the build-side key set of the probe for the version
// of its table the execution reads: kept, when a plan instance of this
// probe kept one of that version (nil if none; only a d.keep probe's
// instance keeps one), else the env's, else a new one, which the env
// keeps for the rest of the statement. Shared by the hash-probe closure
// and the probe kernel so the two can never drift. The table is d.t, fixed
// when the plan compiles, and a version of it never stands for two row
// sets (bindMemo says why), so with filters that read only the row, a
// build of the same version is the build this one would make.
func (d *decorrProbe) ensureHash(en *env, kept *hashBuild) (*hashBuild, error) {
	td := en.td(d.t)
	if kept != nil && kept.version == td.version {
		return kept, nil
	}
	b := en.hash[d.x]
	if b != nil && b.version == td.version {
		return b, nil
	}
	en.work[wHashBuilds]++
	en.work[wRowsScanned] += int64(td.n)
	set := make(map[string]bool, td.n)
	key := make([]relation.Value, len(d.keyCols))
	en.frames = append(en.frames, frame{rows: make([]rowRef, 1)})
	fr := &en.frames[len(en.frames)-1]
build:
	for p, si := 0, 0; p < td.n; p++ {
		fr.rows[0] = td.ref(p, &si)
		for _, f := range d.filters {
			v, err := f(en)
			if err != nil {
				en.frames = en.frames[:len(en.frames)-1]
				return nil, err
			}
			if !v.Truth() {
				continue build
			}
		}
		for i, col := range d.keyCols {
			if key[i] = fr.rows[0].at(col); key[i].IsNull() {
				continue build // NULL keys can never match an equality
			}
		}
		set[relation.KeyOf(key)] = true
	}
	en.frames = en.frames[:len(en.frames)-1]
	b = &hashBuild{version: td.version, n: td.n, set: set}
	if en.hash == nil {
		en.hash = make(map[*Exists]*hashBuild)
	}
	en.hash[d.x] = b
	return b, nil
}

// analyzeDecorrelate performs the shape analysis of tryDecorrelate and
// returns the shared probe description, or nil when the subquery does
// not qualify — none does in Reference mode, which re-executes every
// correlated EXISTS per row. Compile errors in qualifying shapes
// propagate. Results are memoized per compiler (closure and kernel
// extraction both ask).
func (c *compiler) analyzeDecorrelate(x *Exists) (*decorrProbe, error) {
	if c.db.execMode() == Reference {
		return nil, nil
	}
	if d, ok := c.decorr[x]; ok {
		return d, nil
	}
	d, err := c.analyzeDecorrelateUncached(x)
	if err != nil {
		return nil, err
	}
	if c.decorr == nil {
		c.decorr = make(map[*Exists]*decorrProbe)
	}
	c.decorr[x] = d
	return d, nil
}

func (c *compiler) analyzeDecorrelateUncached(x *Exists) (*decorrProbe, error) {
	sub := x.Sub
	if len(sub.From) != 1 || sub.From[0].Sub != nil ||
		len(sub.GroupBy) > 0 || sub.Having != nil || sub.Limit != nil ||
		selectHasAggregate(sub) {
		return nil, nil
	}
	t, err := c.ep.table(sub.From[0].Table)
	if err != nil {
		return nil, nil // unknown table: let the naive path report it
	}

	innerScope := &scopeInfo{sources: []sourceInfo{{name: sub.From[0].Name(), cols: t.Schema.Names()}}}
	innerDepth := len(c.scopes)
	ic := &compiler{db: c.db, ep: c.ep, scopes: append(append([]*scopeInfo{}, c.scopes...), innerScope)}

	var conjuncts []Expr
	splitConjuncts(sub.Where, &conjuncts)

	type probe struct {
		col   int
		outer Expr
	}
	var probes []probe
	var filters []compiledExpr
	keep := true

	for _, cj := range conjuncts {
		deps := map[int]bool{}
		if err := ic.depsOf(cj, deps); err != nil {
			return nil, err
		}
		outerDeps, innerDeps := false, deps[innerDepth]
		for d := range deps {
			if d < innerDepth {
				outerDeps = true
			}
		}
		switch {
		case !outerDeps:
			// Inner-only (or constant) filter: applied at build time. It
			// must be compiled against the inner scope.
			f, err := ic.compileExpr(cj)
			if err != nil {
				return nil, err
			}
			filters = append(filters, f)
			keep = keep && ic.rowOnly(cj, innerDepth)
		case outerDeps && innerDeps:
			eq, ok := cj.(*Binary)
			if !ok || eq.Op != "=" {
				return nil, nil
			}
			col, outerExpr, ok := ic.probeSides(eq, innerDepth)
			if !ok {
				return nil, nil
			}
			probes = append(probes, probe{col: col, outer: outerExpr})
		default:
			// References outer scopes only: row-independent w.r.t. the
			// inner table but varies per outer row — cannot fold into the
			// build. Bail to the naive path.
			return nil, nil
		}
	}
	if len(probes) == 0 {
		return nil, nil
	}

	d := &decorrProbe{x: x, neg: x.Neg, t: t, keep: keep}
	d.keyCols = make([]int, len(probes))
	d.outer = make([]Expr, len(probes))
	for i, p := range probes {
		d.keyCols[i] = p.col
		d.outer[i] = p.outer
	}
	d.filters = filters
	// With no build-time filters, a secondary index whose columns the key
	// binds replaces the per-statement hash build: the index persists
	// across statements and only rebuilds after table mutations. The
	// probe key must follow the index's column order; the key columns it
	// leaves out are checked on the rows it finds.
	if len(filters) == 0 {
		d.idx, d.perm = probeIndex(c.ep.tds[t], d.keyCols)
		for i := range d.keyCols {
			if !slices.Contains(d.perm, i) {
				d.rest = append(d.rest, i)
			}
		}
	}
	return d, nil
}

// matchRest reports whether a row at one of pos holds vals — the probe's
// key by key position, none NULL or NaN — in every key column the index
// leaves out (d.rest): Identical, the equality the index answers its own
// columns with, so a NULL or NaN cell matches nothing.
func (d *decorrProbe) matchRest(rs *rowSet, pos []int, vals []relation.Value) bool {
	if len(d.rest) == 0 {
		return len(pos) > 0
	}
	si := 0
rows:
	for _, p := range pos {
		r := rs.ref(p, &si)
		for _, i := range d.rest {
			if !relation.Identical(r.at(d.keyCols[i]), vals[i]) {
				continue rows
			}
		}
		return true
	}
	return false
}

// tryDecorrelate returns the probe closure for x, or nil when the
// subquery shape does not qualify. Per row it evaluates the outer key
// expressions and looks the key up once — through the index, in its
// column order, when one answers; a NULL or NaN key part never matches.
func (c *compiler) tryDecorrelate(x *Exists) (compiledExpr, error) {
	d, err := c.analyzeDecorrelate(x)
	if err != nil || d == nil {
		return nil, err
	}
	keys := make([]compiledExpr, len(d.outer))
	for i := range keys {
		if keys[i], err = c.compileExpr(d.outer[i]); err != nil {
			return nil, err
		}
	}
	neg := d.neg
	return func(en *env) (relation.Value, error) {
		// The index view or the hash build resolves first, under its own
		// lock: none is held across key evaluation.
		var eq eqView
		var set map[string]bool
		if d.idx != nil {
			eq = en.td(d.t).lookupEq(d.t, d.idx)
		} else {
			b, err := d.ensureHash(en, nil)
			if err != nil {
				return relation.Null(), err
			}
			set = b.set
		}
		ps := en.probes[x]
		if ps == nil {
			if en.probes == nil {
				en.probes = make(map[*Exists]*probeScratch)
			}
			ps = &probeScratch{vals: make([]relation.Value, len(keys)), idxVals: make([]relation.Value, len(d.perm))}
			en.probes[x] = ps
		}
		for j, key := range keys {
			v, err := key(en)
			if err != nil {
				return relation.Null(), err
			}
			if v.IsNull() || isNaN(v) {
				return relation.Bool(neg), nil
			}
			ps.vals[j] = v
		}
		if d.idx != nil {
			for j, i := range d.perm {
				ps.idxVals[j] = ps.vals[i]
			}
			en.work[wIndexSeeks]++
			return relation.Bool(d.matchRest(&eq.td.rowSet, eq.probe(ps.idxVals, &ps.keyBuf), ps.vals) != neg), nil
		}
		ps.keyBuf = relation.AppendKeyOf(ps.keyBuf[:0], ps.vals)
		return relation.Bool(set[string(ps.keyBuf)] != neg), nil
	}, nil
}

// probeIndex picks the index answering an equality probe on keyCols: of
// the indexes whose every column keyCols binds, the one with the most
// columns, the first such in catalog order on a tie; nil if none. perm
// maps its columns, in order, to positions of keyCols; the positions it
// leaves out are the caller's to check on the rows found.
func probeIndex(td *tableData, keyCols []int) (*Index, []int) {
	var best *Index
	var perm []int
next:
	for _, sl := range td.indexes {
		idx := sl.idx
		if best != nil && len(idx.Cols) <= len(best.Cols) {
			continue
		}
		p := make([]int, len(idx.Cols))
		for j, col := range idx.Cols {
			if p[j] = slices.Index(keyCols, col); p[j] < 0 {
				continue next
			}
		}
		best, perm = idx, p
	}
	return best, perm
}

// probeSides identifies which side of an equality is the inner column
// and verifies the other side never touches the inner scope.
func (c *compiler) probeSides(eq *Binary, innerDepth int) (col int, outer Expr, ok bool) {
	try := func(colSide, outerSide Expr) (int, Expr, bool) {
		ref, isRef := colSide.(*ColumnRef)
		if !isRef {
			return 0, nil, false
		}
		b, err := c.resolve(ref)
		if err != nil || b.depth != innerDepth {
			return 0, nil, false
		}
		deps := map[int]bool{}
		if err := c.depsOf(outerSide, deps); err != nil || deps[innerDepth] {
			return 0, nil, false
		}
		return b.col, outerSide, true
	}
	if col, outer, ok := try(eq.L, eq.R); ok {
		return col, outer, true
	}
	return try(eq.R, eq.L)
}

// siteClassifier fixes one invariance site across a sequence of
// expressions and recognizes the two cacheable shapes — whole-
// expression site-invariance, and the one-armed searched CASE whose
// condition is site-only with a literal ELSE — for the batch-aware
// projection (buildProjSpec). The first qualifying expression fixes the
// site; expressions reading other sites stay on the general path.
type siteClassifier struct {
	c          *compiler
	innerDepth int
	site       binding
	hasSite    bool
}

// adopt fixes the site on first use and reports whether e reads
// exactly that site (and nothing deeper or elsewhere).
func (sc *siteClassifier) adopt(e Expr) bool {
	site, ok := sc.c.singleSite(e, sc.innerDepth)
	if !ok {
		return false
	}
	if !sc.hasSite {
		sc.site, sc.hasSite = site, true
	}
	return site == sc.site
}

// cacheableCase reports a CASE with a literal ELSE — the only CASE
// shape splitCase can split — without compiling
// or adopting anything. Shared by splitCase and buildProjSpec's
// site-fixing pre-pass so the two can never drift apart.
func cacheableCase(e Expr) (*Case, bool) {
	cse, ok := e.(*Case)
	if !ok {
		return nil, false
	}
	if _, ok := cse.Else.(*Literal); !ok {
		return nil, false
	}
	return cse, true
}

// splitCase recognizes `CASE WHEN cond THEN res ELSE lit END` with a
// site-only condition, compiling both halves. The shape check comes
// first so adopt's site-fixing side effect only fires for qualifying
// shapes.
func (sc *siteClassifier) splitCase(e Expr) (cond, res compiledExpr, alt relation.Value, ok bool, err error) {
	cse, isCase := cacheableCase(e)
	if !isCase || !sc.adopt(cse.Cond) {
		return
	}
	lit := cse.Else.(*Literal)
	if cond, err = sc.c.compileExpr(cse.Cond); err != nil {
		return nil, nil, relation.Value{}, false, err
	}
	if res, err = sc.c.compileExpr(cse.Then); err != nil {
		return nil, nil, relation.Value{}, false, err
	}
	return cond, res, lit.Val, true, nil
}

// singleSite reports the unique outer (depth, src) binding site an
// expression reads, when it has exactly one and contains no subquery.
func (c *compiler) singleSite(e Expr, innerDepth int) (binding, bool) {
	if exprHasSubquery(e) {
		return binding{}, false
	}
	site := binding{depth: -1}
	ok := true
	if err := c.walkBindings(e, func(b binding) {
		b.col = 0 // site identity is (depth, src)
		if b.depth >= innerDepth {
			ok = false
			return
		}
		if site.depth < 0 {
			site = b
		} else if site != b {
			ok = false
		}
	}); err != nil {
		return binding{}, false
	}
	return site, ok && site.depth >= 0
}

// exprHasSubquery reports whether e contains EXISTS or IN (SELECT)
// anywhere.
func exprHasSubquery(e Expr) bool {
	found := false
	walkExprTree(e, func(x Expr) {
		switch x.(type) {
		case *Exists, *InSelect:
			found = true
		}
	})
	return found
}

// splitConjuncts flattens an AND tree into its conjuncts.
func splitConjuncts(e Expr, out *[]Expr) {
	if e == nil {
		return
	}
	if b, ok := e.(*Binary); ok && b.Op == "AND" {
		splitConjuncts(b.L, out)
		splitConjuncts(b.R, out)
		return
	}
	*out = append(*out, e)
}

// compileInSelect lowers x IN (SELECT ...). Uncorrelated
// subqueries are executed once per statement and cached as a value set;
// correlated ones are re-executed per row.
func (c *compiler) compileInSelect(x *InSelect) (compiledExpr, error) {
	lhs, err := c.compileExpr(x.X)
	if err != nil {
		return nil, err
	}
	cs, err := c.compileSubSelect(x.Sub)
	if err != nil {
		return nil, err
	}
	if len(cs.cols) != 1 {
		return nil, fmt.Errorf("sql: IN subquery must return one column, got %d", len(cs.cols))
	}
	deps := map[int]bool{}
	if err := c.depsOfSelect(x.Sub, deps); err != nil {
		return nil, err
	}
	uncorrelated := len(deps) == 0

	evalSet := func(en *env) (*inBuild, error) {
		saved := en.frames
		if uncorrelated {
			en.frames = en.frames[:cs.depth]
		}
		rows, err := cs.exec(en)
		if uncorrelated {
			en.frames = saved
		}
		if err != nil {
			return nil, err
		}
		b := &inBuild{set: make(map[string]bool, len(rows))}
		for _, r := range rows {
			if r[0].IsNull() {
				b.hasNull = true
				continue
			}
			if isNaN(r[0]) {
				continue // NaN = x never holds, though NaN keys would collide
			}
			b.set[r[0].Key()] = true
		}
		return b, nil
	}

	return func(en *env) (relation.Value, error) {
		var b *inBuild
		if uncorrelated {
			b = en.inSets[x]
		}
		if b == nil {
			var err error
			if b, err = evalSet(en); err != nil {
				return relation.Null(), err
			}
			if uncorrelated {
				en.inSets[x] = b
			}
		}
		v, err := lhs(en)
		if err != nil {
			return relation.Null(), err
		}
		if v.IsNull() {
			return relation.Null(), nil
		}
		if b.set[v.Key()] {
			return relation.Bool(true), nil
		}
		if b.hasNull {
			return relation.Null(), nil
		}
		return relation.Bool(false), nil
	}, nil
}
