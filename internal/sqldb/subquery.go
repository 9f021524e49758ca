package sqldb

import (
	"fmt"

	"ecfd/internal/relation"
)

// hashBuild is the cached build side of a decorrelated EXISTS: the set
// of key tuples present in the inner table (after inner-only filters).
// It lives on the env (one per statement execution), so concurrent
// executions of the same compiled plan never share it.
type hashBuild struct {
	version uint64
	set     map[string]bool
}

// probeScratch is the per-env scratch of one decorrelated probe site:
// the evaluated key values, the reusable key buffer, and the cached
// loop-invariant key state (see probeKey). Keyed by the *Exists node on
// the env, so concurrent executions of the same plan never share it.
type probeScratch struct {
	vals    []relation.Value
	idxVals []relation.Value // vals in index-column order (index probes)
	keyBuf  []byte
	// Invariant-key cache: patRow identifies the pattern-site row the
	// cached state was computed for; condBits has bit i set when part
	// i's CASE condition held; invVals holds the values of fully
	// pattern-invariant parts.
	patRow   rowRef
	condBits uint64
	invVals  []relation.Value
}

// probeKey is the compiled key side of a decorrelated probe: one part
// per key column, analysed for loop-invariance against the *pattern
// site* — the single outer FROM source (typically the paper's tiny enc
// pattern table) that the invariant inputs read. The detection queries
// probe with keys like
//
//	(c.CID, CASE WHEN c.A_L > 0 THEN TOTEXT(t.A) ELSE '@' END, …)
//
// where c is bound in an outer loop over ten-odd pattern tuples and t
// is the inner 100k-row data scan. c.CID and every CASE condition (and
// its constant ELSE arm) depend only on c, so they are evaluated once
// per pattern tuple and replayed from the env scratch for the 100k
// probes underneath — only the THEN projections of the few attributes a
// pattern actually constrains run per probe.
type probeKey struct {
	x       *Exists
	parts   []probePart
	site    binding // depth/src of the pattern site (col unused)
	hasSite bool
}

type probePart struct {
	full compiledExpr // the whole expression; fallback when not cached
	inv  bool         // whole part reads only the pattern site
	// One-armed CASE with a pattern-site-only condition and a literal
	// ELSE: cond/res are its compiled halves, alt the ELSE value.
	cond compiledExpr
	res  compiledExpr
	alt  relation.Value
}

// scratch returns the env's scratch for this probe site.
func (pk *probeKey) scratch(en *env) *probeScratch {
	ps := en.probes[pk.x]
	if ps == nil {
		if en.probes == nil {
			en.probes = make(map[*Exists]*probeScratch)
		}
		ps = &probeScratch{
			vals:    make([]relation.Value, len(pk.parts)),
			idxVals: make([]relation.Value, len(pk.parts)),
			invVals: make([]relation.Value, len(pk.parts)),
		}
		en.probes[pk.x] = ps
	}
	return ps
}

// eval computes the probe-key values into ps.vals. ok is false when a
// key component is NULL or NaN (an equality can never match then). When the
// pattern-site row is unchanged since the last call, the invariant
// parts replay from the cache.
func (pk *probeKey) eval(en *env, ps *probeScratch) (ok bool, err error) {
	if pk.hasSite {
		row := &en.frames[pk.site.depth].rows[pk.site.src]
		if !ps.patRow.same(row) {
			ps.patRow = rowRef{} // a mid-refresh error must not leave stale state
			ps.condBits = 0
			for i := range pk.parts {
				part := &pk.parts[i]
				switch {
				case part.inv:
					v, err := part.full(en)
					if err != nil {
						return false, err
					}
					ps.invVals[i] = v
				case part.cond != nil:
					cv, err := part.cond(en)
					if err != nil {
						return false, err
					}
					if cv.Truth() {
						ps.condBits |= 1 << uint(i)
					}
				}
			}
			ps.patRow = *row
		}
	}
	for i := range pk.parts {
		part := &pk.parts[i]
		var v relation.Value
		switch {
		case !pk.hasSite:
			v, err = part.full(en)
		case part.inv:
			v = ps.invVals[i]
		case part.cond != nil:
			if ps.condBits&(1<<uint(i)) != 0 {
				v, err = part.res(en)
			} else {
				v = part.alt
			}
		default:
			v, err = part.full(en)
		}
		if err != nil {
			return false, err
		}
		if v.IsNull() || isNaN(v) {
			return false, nil
		}
		ps.vals[i] = v
	}
	return true, nil
}

// inBuild caches the value set of an uncorrelated IN (SELECT ...).
type inBuild struct {
	set     map[string]bool
	hasNull bool
}

// compileExists lowers [NOT] EXISTS (SELECT ...). Three strategies:
//
//  1. Decorrelated hash probe — the subquery is a single-table select
//     whose WHERE is a conjunction of (a) inner-column = outer-expr
//     equalities and (b) inner-only filters. One hash build over the
//     inner table per statement, O(1) probe per outer row. This is the
//     path the eCFD detection queries take (t.A = TA.A AND c.CID =
//     TA.CID) and what keeps BatchDetect at two passes over D.
//  2. Uncorrelated — the subquery never references outer scopes: it is
//     executed once per statement and its emptiness cached.
//  3. Naive — re-execute per outer row (correlated in a form we cannot
//     decorrelate; every correlated EXISTS in Reference mode).
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

	deps := map[int]bool{}
	if err := c.depsOfSelect(x.Sub, deps); err != nil {
		return nil, err
	}
	if len(deps) == 0 {
		// Uncorrelated: evaluate once per env, cache emptiness. Tables
		// cannot change mid-statement (it reads one pinned epoch).
		return func(en *env) (relation.Value, error) {
			b, ok := en.hash[x]
			if !ok {
				// Frames beyond the subquery's depth must be hidden while
				// executing an uncorrelated subquery compiled at depth
				// len(c.scopes). They are restored by the deferred pop in
				// exec, so only truncate here.
				saved := en.frames
				en.frames = en.frames[:cs.depth]
				rows, err := cs.exec(en)
				en.frames = saved
				if err != nil {
					return relation.Null(), err
				}
				b = &hashBuild{set: map[string]bool{"": len(rows) > 0}}
				en.hash[x] = b
			}
			return relation.Bool(b.set[""] != neg), nil
		}, nil
	}

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
// the inner-only build filters, and — when no filters apply and a
// secondary index covers the key columns exactly — the persistent
// index answering the probe. It is the single source of truth for the
// decorrelated semantics, shared by the per-row closure (compileExists)
// and the batch probe kernel (kprobe): both resolve the same env hash
// build (keyed by x) or the same index, and encode keys identically.
type decorrProbe struct {
	x       *Exists
	neg     bool
	t       *Table
	keyCols []int
	outer   []Expr // outer key expressions, aligned with keyCols
	filters []compiledExpr
	pk      *probeKey
	idx     *Index // exact-cover index (filters empty), or nil
	perm    []int  // index column order → outer key position
}

// ensureHash returns the env's build-side key set for the probe,
// building it on first use (and after table mutations). Shared by the
// hash-probe closure and the probe kernel so the two can never drift.
func (d *decorrProbe) ensureHash(en *env) (*hashBuild, error) {
	td := en.td(d.t)
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
	b = &hashBuild{version: td.version, set: set}
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
		sub.Offset != nil || selectHasAggregate(sub) {
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

	d := &decorrProbe{x: x, neg: x.Neg, t: t}
	d.keyCols = make([]int, len(probes))
	d.outer = make([]Expr, len(probes))
	for i, p := range probes {
		d.keyCols[i] = p.col
		d.outer[i] = p.outer
	}
	if d.pk, err = ic.buildProbeKey(x, d.outer, innerDepth); err != nil {
		return nil, err
	}
	d.filters = filters
	// With no build-time filters, a secondary index on exactly the key
	// columns replaces the per-statement hash build: the index persists
	// across statements and only rebuilds after table mutations. The
	// probe key must follow the index's column order.
	if len(filters) == 0 {
		d.idx, d.perm = probeIndex(c.ep.tds[t], d.keyCols)
	}
	return d, nil
}

// tryDecorrelate returns a hash-probe closure for x, or nil when the
// subquery shape does not qualify.
func (c *compiler) tryDecorrelate(x *Exists) (compiledExpr, error) {
	d, err := c.analyzeDecorrelate(x)
	if err != nil || d == nil {
		return nil, err
	}
	pk, neg := d.pk, d.neg

	if d.idx != nil {
		idx, perm, t := d.idx, d.perm, d.t
		return func(en *env) (relation.Value, error) {
			// lookupEq resolves how the epoch's index answers the probe
			// (in-order positions, or the shared map built or extended
			// under its own lock); no structure lock is ever held across
			// key evaluation. The key scratch is per env: closures are
			// shared across goroutines.
			eq := en.td(t).lookupEq(t, idx)
			ps := pk.scratch(en)
			ok, err := pk.eval(en, ps)
			if err != nil {
				return relation.Null(), err
			}
			if !ok {
				return relation.Bool(neg), nil // NULL key never matches
			}
			for j, pi := range perm {
				ps.idxVals[j] = ps.vals[pi]
			}
			return relation.Bool((len(eq.probe(ps.idxVals, &ps.keyBuf)) > 0) != neg), nil
		}, nil
	}

	return func(en *env) (relation.Value, error) {
		b, err := d.ensureHash(en)
		if err != nil {
			return relation.Null(), err
		}
		ps := pk.scratch(en)
		ok, err := pk.eval(en, ps)
		if err != nil {
			return relation.Null(), err
		}
		if !ok {
			return relation.Bool(neg), nil // = NULL never matches
		}
		ps.keyBuf = relation.AppendKeyOf(ps.keyBuf[:0], ps.vals)
		return relation.Bool(b.set[string(ps.keyBuf)] != neg), nil
	}, nil
}

// probeIndex finds a secondary index covering exactly the probe
// columns and computes the permutation mapping probe positions to the
// index's column order.
func probeIndex(td *tableData, keyCols []int) (*Index, []int) {
	idx := td.findIndex(keyCols)
	if idx == nil {
		return nil, nil
	}
	perm := make([]int, len(idx.Cols))
	for j, col := range idx.Cols {
		perm[j] = -1
		for i, kc := range keyCols {
			if kc == col {
				perm[j] = i
				break
			}
		}
		if perm[j] < 0 {
			return nil, nil
		}
	}
	return idx, perm
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
// condition is site-only with a literal ELSE. It is the single source
// of truth for the invariance rules, shared by the decorrelated
// probe keys (buildProbeKey) and the batch-aware projection
// (buildProjSpec). The first qualifying expression fixes the site;
// expressions reading other sites stay on the general path.
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

// cacheableCase reports the one-armed searched CASE with a literal
// ELSE — the only CASE shape splitCase can split — without compiling
// or adopting anything. Shared by splitCase and buildProjSpec's
// site-fixing pre-pass so the two can never drift apart.
func cacheableCase(e Expr) (*Case, bool) {
	cse, ok := e.(*Case)
	if !ok || cse.Operand != nil || len(cse.Whens) != 1 {
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
	if !isCase || !sc.adopt(cse.Whens[0].Cond) {
		return
	}
	lit := cse.Else.(*Literal)
	if cond, err = sc.c.compileExpr(cse.Whens[0].Cond); err != nil {
		return nil, nil, relation.Value{}, false, err
	}
	if res, err = sc.c.compileExpr(cse.Whens[0].Result); err != nil {
		return nil, nil, relation.Value{}, false, err
	}
	return cond, res, lit.Val, true, nil
}

// buildProbeKey compiles the outer (key) expressions of a decorrelated
// probe and classifies each for loop-invariance against the pattern
// site (siteClassifier): invariant parts cache per pattern tuple,
// split CASEs cache their condition and evaluate only the THEN branch
// per probe, everything else stays on the general path.
func (c *compiler) buildProbeKey(x *Exists, outer []Expr, innerDepth int) (*probeKey, error) {
	pk := &probeKey{x: x, parts: make([]probePart, len(outer))}
	for i, e := range outer {
		full, err := c.compileExpr(e)
		if err != nil {
			return nil, err
		}
		pk.parts[i] = probePart{full: full}
	}
	if len(outer) > 64 {
		return pk, nil
	}
	sc := &siteClassifier{c: c, innerDepth: innerDepth}
	for i, e := range outer {
		if sc.adopt(e) {
			pk.parts[i].inv = true
			continue
		}
		cond, res, alt, ok, err := sc.splitCase(e)
		if err != nil {
			return nil, err
		}
		if ok {
			pk.parts[i].cond, pk.parts[i].res, pk.parts[i].alt = cond, res, alt
		}
	}
	pk.site, pk.hasSite = sc.site, sc.hasSite
	return pk, nil
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

// exprHasSubquery reports whether e contains EXISTS, IN (SELECT) or a
// scalar subquery anywhere.
func exprHasSubquery(e Expr) bool {
	found := false
	walkExprTree(e, func(x Expr) {
		switch x.(type) {
		case *Exists, *InSelect, *ScalarSub:
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

// compileInSelect lowers x [NOT] IN (SELECT ...). Uncorrelated
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
	neg := x.Neg

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
			return relation.Bool(!neg), nil
		}
		if b.hasNull {
			return relation.Null(), nil
		}
		return relation.Bool(neg), nil
	}, nil
}
