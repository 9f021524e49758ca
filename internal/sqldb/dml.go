package sqldb

import (
	"fmt"
	"sort"
	"strings"

	"ecfd/internal/relation"
)

// DML statements compile into reusable plans (the prepared-statement
// and plan-cache layers hold them across executions) and run in a
// separate phase, mirroring the compile/exec split of SELECT. All DML
// executes under db.mu against the writer's in-progress epoch
// (db.curW): it evaluates against the epoch's frozen rows, then
// applies through a copy-on-write transition (applyAppend /
// applyUpdate / applyDelete) that forks a new epoch off to the side.
// Concurrent readers keep scanning their pinned epochs untouched; the
// two-phase evaluate/apply split below is about the statement seeing
// its own target consistently.

// coerce converts v to the column kind, erring on lossy mismatches.
func coerce(v relation.Value, k relation.Kind, col string) (relation.Value, error) {
	if v.IsNull() || v.K == k {
		return v, nil
	}
	switch k {
	case relation.KindFloat:
		if v.K == relation.KindInt || v.K == relation.KindBool {
			return relation.Float(v.AsFloat()), nil
		}
	case relation.KindInt:
		if v.K == relation.KindBool {
			return relation.Int(v.I), nil
		}
		if v.K == relation.KindFloat && v.F == float64(int64(v.F)) {
			return relation.Int(int64(v.F)), nil
		}
	case relation.KindBool:
		if v.K == relation.KindInt && (v.I == 0 || v.I == 1) {
			return relation.Bool(v.I == 1), nil
		}
	case relation.KindText:
		// Text columns accept anything printable; this mirrors the lax
		// typing of the CSV-shaped experimental data.
		return relation.Text(v.String()), nil
	}
	return relation.Null(), fmt.Errorf("sql: cannot store %s value %s in %s column %s", v.K, v, k, col)
}

// coerceRow turns row, in place, into what a table of schema s stores:
// as wide as s, every cell coerced to its column's kind. LoadRelation and
// recovery hold their rows to it, as INSERT and UPDATE hold each cell.
func coerceRow(s *relation.Schema, row relation.Tuple) error {
	if len(row) != s.Width() {
		return fmt.Errorf("sql: %d values for the %d columns of %s", len(row), s.Width(), s.Name)
	}
	for j, a := range s.Attrs {
		v, err := coerce(row[j], a.Kind, a.Name)
		if err != nil {
			return err
		}
		row[j] = v
	}
	return nil
}

// --- INSERT ---

type insertPlan struct {
	t     *Table
	table string
	pos   []int // schema position per inserted column
	whole bool  // no column list: pos is every column in order
	query *compiledSelect
	rows  [][]compiledExpr
}

func (db *DB) compileInsert(ins *Insert, ep *epoch) (*insertPlan, error) {
	t, err := ep.table(ins.Table)
	if err != nil {
		return nil, err
	}
	p := &insertPlan{t: t, table: ins.Table}

	// Map the column list (or the full schema) to schema positions.
	if p.whole = len(ins.Cols) == 0; p.whole {
		for i := range t.Schema.Attrs {
			p.pos = append(p.pos, i)
		}
	} else {
		for _, cname := range ins.Cols {
			j := t.Schema.Index(cname)
			if j < 0 {
				return nil, fmt.Errorf("sql: no column %s in %s", cname, ins.Table)
			}
			p.pos = append(p.pos, j)
		}
	}

	if ins.Query != nil {
		c := &compiler{db: db, ep: ep}
		if p.query, err = c.compileSubSelect(ins.Query); err != nil {
			return nil, err
		}
		return p, nil
	}
	c := &compiler{db: db, ep: ep}
	p.rows = make([][]compiledExpr, len(ins.Rows))
	for ri, exprRow := range ins.Rows {
		p.rows[ri] = make([]compiledExpr, len(exprRow))
		for i, e := range exprRow {
			if p.rows[ri][i], err = c.compileExpr(e); err != nil {
				return nil, err
			}
		}
	}
	return p, nil
}

func (db *DB) runInsert(p *insertPlan, params []relation.Value) (int64, error) {
	if err := db.writable(); err != nil {
		return 0, err
	}
	t := p.t
	// The new rows are transient — logged, then pushed into the tail's
	// columns — so they are cut from the writer's scratch (rowScratch).
	// A selected row of the whole width is the execution's own, and is
	// coerced in place (own).
	var cells []relation.Value
	build := func(vals []relation.Value, own bool) (relation.Tuple, error) {
		if len(vals) != len(p.pos) {
			return nil, fmt.Errorf("sql: INSERT into %s: %d values for %d columns", p.table, len(vals), len(p.pos))
		}
		row := relation.Tuple(vals)
		if !own {
			w := t.Schema.Width()
			row, cells = cells[:w:w], cells[w:]
		}
		for i, j := range p.pos {
			v, err := coerce(vals[i], t.Schema.Attrs[j].Kind, t.Schema.Attrs[j].Name)
			if err != nil {
				return nil, err
			}
			row[j] = v
		}
		return row, nil
	}

	var newRows []relation.Tuple
	en := newEnv(db, db.curW, params)
	defer en.publish()
	if p.query != nil {
		if p.whole {
			// The selected rows are coerced in place and pushed into the
			// columns: nothing keeps them, so they are cut from the
			// writer's scratch, which grows to what a statement used, up
			// to outScratchMax cells.
			en.out = &slab[relation.Value]{free: db.scratch[:cap(db.scratch)]}
			defer func() {
				if n := en.out.used; n > cap(db.scratch) && n <= outScratchMax {
					db.scratch = make([]relation.Value, n)
				}
			}()
		}
		rows, err := p.query.exec(en)
		if err != nil {
			return 0, err
		}
		if !p.whole {
			cells = db.rowScratch(len(rows) * t.Schema.Width())
		}
		for _, r := range rows {
			row, err := build(r, p.whole)
			if err != nil {
				return 0, err
			}
			newRows = append(newRows, row)
		}
	} else {
		vals := make([]relation.Value, 0, len(p.pos))
		cells = db.rowScratch(len(p.rows) * t.Schema.Width())
		for _, exprRow := range p.rows {
			vals = vals[:0]
			for _, ce := range exprRow {
				v, err := ce(en)
				if err != nil {
					return 0, err
				}
				vals = append(vals, v)
			}
			row, err := build(vals, false)
			if err != nil {
				return 0, err
			}
			newRows = append(newRows, row)
		}
	}

	if len(newRows) == 0 {
		return 0, nil // nothing selected: no WAL record, no epoch
	}
	if err := db.logInsert(t.Name, newRows); err != nil {
		return 0, err
	}
	db.applyAppend(t, newRows)
	db.wrote(0, len(newRows))
	return int64(len(newRows)), nil
}

// rowScratchMax is the most cells the writer keeps for new rows between
// statements.
const rowScratchMax = 4096

// outScratchMax is the most cells an INSERT … SELECT grows the writer's
// scratch to: what one warm incremental update's statements select, and
// not what a BatchDetect's Qmv or a cold update's recompute does, which
// would stay on the heap between updates.
const outScratchMax = 1024

// rowScratch returns n NULL cells for new rows: the writer's own while
// they fit in rowScratchMax, which every INSERT reuses. Callers hold
// db.mu and keep nothing of them past their statement.
func (db *DB) rowScratch(n int) []relation.Value {
	if n > rowScratchMax {
		return make([]relation.Value, n)
	}
	if cap(db.scratch) < n {
		db.scratch = make([]relation.Value, n)
	}
	clear(db.scratch[:n])
	return db.scratch[:n:n]
}

// --- target-row selection (UPDATE and DELETE) ---

// rowSelect decides which rows of a DML target a WHERE clause selects.
// UPDATE and DELETE share it: both first collect the target positions
// against the unmodified epoch and then apply a copy-on-write
// transition, so the statement sees a consistent snapshot of its own
// target.
type rowSelect struct {
	t     *Table
	where compiledExpr
	// semi, when non-nil, is the joint semi-join select over
	// [target] + subquery sources: running it and collecting the
	// distinct target row indices is equivalent to filtering rows with
	// the WHERE clause, but lets the planner drive the join from the
	// small side (the paper's pattern tables, an update's staged ΔD)
	// instead of probing the subquery once per data row.
	semi *compiledSelect
	// filterSel is the planned single-source select over the target with
	// the same WHERE: when the semi-join path is not taken, the row
	// selection runs through the batched executor (kernel filters over
	// the column vectors, e.g. the detector's RID-slice and MV = 0
	// guards) instead of the per-row closure loop. nil when the WHERE
	// does not plan; the closure loop remains the fallback, and is all a
	// Reference-mode plan has (neither select is compiled).
	filterSel *compiledSelect
}

// compileRowSelect compiles the WHERE of a DML statement over table
// (bound as alias when given).
func (db *DB) compileRowSelect(table, alias string, where Expr, ep *epoch) (*rowSelect, error) {
	t, err := ep.table(table)
	if err != nil {
		return nil, err
	}
	name := alias
	if name == "" {
		name = table
	}
	c := &compiler{db: db, ep: ep, scopes: []*scopeInfo{
		{sources: []sourceInfo{{name: name, cols: t.Schema.Names()}}},
	}}
	rs := &rowSelect{t: t}
	if where == nil {
		return rs, nil
	}
	if rs.where, err = c.compileExpr(where); err != nil {
		return nil, err
	}
	if db.execMode() == Reference {
		return rs, nil
	}
	target := TableRef{Table: table, Alias: alias}
	rs.semi = db.trySemiJoin(target, where, ep)
	synth := &Select{
		Exprs: []SelectExpr{{Expr: &Literal{Val: relation.Int(1)}}},
		From:  []TableRef{target},
		Where: where,
	}
	fc := &compiler{db: db, ep: ep}
	if cs, err := fc.compileSubSelect(synth); err == nil && cs.planOK && !cs.grouped {
		rs.filterSel = cs
	}
	return rs, nil
}

// trySemiJoin builds the joint semi-join select for a DML statement
// whose WHERE contains, as a top-level conjunct, a plain EXISTS over
// base tables or a positive `x IN (SELECT e FROM ...)` — the latter is
// the former with the equality x = e added, since a WHERE conjunct only
// ever asks whether IN is true. Returns nil when the shape does not
// qualify; the row-filter path then applies.
func (db *DB) trySemiJoin(target TableRef, where Expr, ep *epoch) *compiledSelect {
	var conjs []Expr
	splitConjuncts(where, &conjs)
	exIdx := -1
	var sub *Select
	var subWhere Expr
	for i, cj := range conjs {
		var cand *Select
		var link Expr
		switch x := cj.(type) {
		case *Exists:
			if x.Neg {
				continue
			}
			cand = x.Sub
		case *InSelect:
			if len(x.Sub.Exprs) != 1 || x.Sub.Exprs[0].Star {
				continue
			}
			cand = x.Sub
			link = &Binary{Op: "=", L: x.X, R: x.Sub.Exprs[0].Expr}
		default:
			continue
		}
		if !semiJoinable(cand) {
			continue
		}
		collides := false
		for _, tr := range cand.From {
			if strings.EqualFold(tr.Name(), target.Name()) {
				collides = true
				break
			}
		}
		if collides {
			continue
		}
		exIdx, sub, subWhere = i, cand, conjoin(cand.Where, link)
		break
	}
	if exIdx < 0 {
		return nil
	}
	for i, cj := range conjs {
		if i != exIdx {
			subWhere = conjoin(subWhere, cj)
		}
	}
	synth := &Select{
		Exprs: []SelectExpr{{Expr: &Literal{Val: relation.Int(1)}}},
		From:  append([]TableRef{target}, sub.From...),
		Where: subWhere,
	}
	c := &compiler{db: db, ep: ep}
	cs, err := c.compileSubSelect(synth)
	if err != nil || !cs.planOK {
		// Merging scopes can introduce ambiguities the nested form did
		// not have (unqualified names resolving into both scopes); the
		// row-filter path stays available.
		return nil
	}
	return cs
}

// semiJoinable reports whether a subquery can be folded into a joint
// join: base tables only, no grouping/aggregation/limit (those change
// emptiness semantics or row multiplicity guarantees).
func semiJoinable(sub *Select) bool {
	if len(sub.From) == 0 || len(sub.GroupBy) > 0 || sub.Having != nil ||
		sub.Limit != nil || selectHasAggregate(sub) {
		return false
	}
	for _, tr := range sub.From {
		if tr.Sub != nil {
			return false
		}
	}
	return true
}

// useSemiJoin reports whether the selection would take the semi-join
// path given the epoch's table sizes: worth it when a subquery source
// is meaningfully smaller than the target, so the join is driven from
// that side instead of probing the subquery once per target row, and
// when the whole joint join is tiny, every source below reorderMinRows
// rows, so its lead order (decide) drives it from the source its guards
// read. A tiny target alone is not enough: over a large unindexed
// subquery table the joint join pays |target|·|subquery| in kernels.
// Shared by positions (against db.curW) and EXPLAIN (against a pinned
// snapshot) so the reported access path is the one that actually
// executes.
func (rs *rowSelect) useSemiJoin(ep *epoch) bool {
	if rs.semi == nil {
		return false
	}
	target := ep.tds[rs.t].n
	minSub, maxSub := target+1, target
	for _, src := range rs.semi.sources[1:] {
		n := ep.tds[src.table].n
		minSub, maxSub = min(minSub, n), max(maxSub, n)
	}
	return minSub*4 <= target || maxSub < reorderMinRows
}

// positions returns the selected target row positions in the writer
// head, ascending and unique — the order applyUpdate and applyDelete
// require regardless of the scan's visit order.
func (rs *rowSelect) positions(db *DB, params []relation.Value) ([]int, error) {
	td := db.curW.tds[rs.t]
	// Planned selection: semi-join (the target joins the subquery
	// sources, driven from the small side) or the single-source batched
	// scan (simple WHERE conjuncts run as kernel filters).
	var sel *compiledSelect
	switch {
	case rs.useSemiJoin(db.curW):
		sel = rs.semi
	case rs.filterSel != nil:
		sel = rs.filterSel
	}
	if sel != nil {
		matched := make(map[int]bool)
		en := newEnv(db, db.curW, params)
		defer en.publish()
		err := sel.semiScan(en, func(idx []int) error {
			matched[idx[0]] = true
			return nil
		})
		if err != nil {
			return nil, err
		}
		ris := make([]int, 0, len(matched))
		for ri := range matched {
			ris = append(ris, ri)
		}
		sort.Ints(ris)
		return ris, nil
	}
	ris := make([]int, 0, td.n)
	if rs.where == nil {
		for ri := range td.n {
			ris = append(ris, ri)
		}
		return ris, nil
	}
	en := newEnv(db, db.curW, params)
	defer en.publish()
	en.frames = append(en.frames, frame{rows: make([]rowRef, 1)})
	fr := &en.frames[0]
	for ri, si := 0, 0; ri < td.n; ri++ {
		fr.rows[0] = td.ref(ri, &si)
		v, err := rs.where(en)
		if err != nil {
			return nil, err
		}
		if v.Truth() {
			ris = append(ris, ri)
		}
	}
	return ris, nil
}

// describe renders the access path positions would take right now, for
// EXPLAIN.
func (rs *rowSelect) describe(ep *epoch, b *strings.Builder) {
	plan := func(title string, cs *compiledSelect) {
		b.WriteString("  " + title + ":\n")
		for _, line := range cs.describePlan(ep) {
			b.WriteString("    " + line + "\n")
		}
	}
	switch {
	case rs.useSemiJoin(ep):
		plan("semi-join row selection", rs.semi)
	case rs.filterSel != nil:
		plan("planned row selection", rs.filterSel)
	case rs.where == nil:
		b.WriteString("  every row (no filter)\n")
	default:
		b.WriteString("  full scan with row filter\n")
	}
}

// --- UPDATE ---

// updatePlan assigns literals (SET SV = 0): the coerced values are
// computed at compile time and shared by every changed row, so flag
// resets do not evaluate or allocate per row.
type updatePlan struct {
	sel  *rowSelect
	cols []int
	vals []relation.Value
}

func (db *DB) compileUpdate(up *Update, ep *epoch) (*updatePlan, error) {
	sel, err := db.compileRowSelect(up.Table, up.Alias, up.Where, ep)
	if err != nil {
		return nil, err
	}
	t := sel.t
	p := &updatePlan{sel: sel}
	for _, a := range up.Set {
		j := t.Schema.Index(a.Column)
		if j < 0 {
			return nil, fmt.Errorf("sql: no column %s in %s", a.Column, up.Table)
		}
		v, err := coerce(a.Value, t.Schema.Attrs[j].Kind, t.Schema.Attrs[j].Name)
		if err != nil {
			return nil, err
		}
		p.cols, p.vals = append(p.cols, j), append(p.vals, v)
	}
	return p, nil
}

func (db *DB) runUpdate(p *updatePlan, params []relation.Value) (int64, error) {
	if err := db.writable(); err != nil {
		return 0, err
	}
	t := p.sel.t
	pos, err := p.sel.positions(db, params)
	if err != nil {
		return 0, err
	}
	if len(pos) == 0 {
		return 0, nil
	}
	// The new values evaluate against the unmodified epoch too. Only rows
	// the statement changes are written: a matched row whose assigned
	// cells already hold the new values (sameCell) is neither logged nor
	// written, and when none is left the statement leaves no WAL unit and
	// no epoch, like an empty INSERT … SELECT. The detector's flag
	// statements match whole slices of D to flip a few percent of it.
	// Rows-affected stays the matched count.
	matched := int64(len(pos))
	td, si := db.curW.tds[t], 0
	var vals [][]relation.Value
	n := 0
	for _, ri := range pos {
		row := td.ref(ri, &si)
		for j, c := range p.cols {
			if old := row.at(c); !sameCell(&old, &p.vals[j]) {
				pos[n] = ri
				n++
				vals = append(vals, p.vals)
				break
			}
		}
	}
	if pos = pos[:n]; n == 0 {
		db.wrote(int(matched), 0)
		return matched, nil
	}
	// applyUpdate forks the next epoch copy-on-write: the assigned columns
	// of the touched segments are copied and patched, and indexes fork
	// only where the assigned columns overlap — so a flag update never
	// touches a RID index.
	if err := db.logUpdate(t.Name, pos, p.cols, vals); err != nil {
		return 0, err
	}
	db.applyUpdate(t, pos, p.cols, vals)
	db.wrote(int(matched), n)
	return matched, nil
}

// sameCell reports whether storing v over old would leave the cell as
// it is: the same kind and an identical value (NULL over NULL and NaN
// over NaN included; Int 1 over Float 1.0 is a change of kind).
func sameCell(old, v *relation.Value) bool {
	if old.K != v.K {
		return false
	}
	switch v.K {
	case relation.KindInt, relation.KindBool:
		return old.I == v.I
	case relation.KindText:
		return old.S == v.S
	}
	return relation.Identical(*old, *v)
}

// --- DELETE ---

type deletePlan struct {
	sel *rowSelect
}

func (db *DB) compileDelete(del *Delete, ep *epoch) (*deletePlan, error) {
	sel, err := db.compileRowSelect(del.Table, del.Alias, del.Where, ep)
	if err != nil {
		return nil, err
	}
	return &deletePlan{sel: sel}, nil
}

func (db *DB) runDelete(p *deletePlan, params []relation.Value) (int64, error) {
	if err := db.writable(); err != nil {
		return 0, err
	}
	t := p.sel.t
	dropped, err := p.sel.positions(db, params)
	if err != nil {
		return 0, err
	}
	if len(dropped) == 0 {
		return 0, nil
	}
	if err := db.logDelete(t.Name, dropped); err != nil {
		return 0, err
	}
	// applyDelete compacts the rows copy-on-write and filters/remaps
	// built indexes instead of rebuilding.
	db.applyDelete(t, dropped)
	db.wrote(len(dropped), len(dropped))
	return int64(len(dropped)), nil
}
