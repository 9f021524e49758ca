package sqldb

import (
	"container/list"
	"fmt"
	"sync"

	"ecfd/internal/relation"
)

// Prepared statements and the compiled-plan cache.
//
// Two cache layers keep the detector's fixed statement set from being
// re-lexed, re-parsed and re-compiled on every call:
//
//   - a process-wide parse cache maps statement text to parsed ASTs.
//     ASTs are immutable after parsing (compilation only reads them),
//     so they are shared across engine instances — the bench harness
//     opens a fresh engine per figure point but reuses one AST set;
//   - a per-DB plan cache maps statement text to a *Prepared holding
//     compiled plans. Plans bind catalog objects (tables, indexes), so
//     they are invalidated by bumping DB.ddlVersion on CREATE TABLE,
//     CREATE INDEX, DROP TABLE and LoadRelation; the next execution
//     recompiles against the current catalog. SetMode invalidates them
//     the same way: a plan is kept under (ddlVersion, Mode).
//
// Both layers are safe under the concurrent read path: the statement
// cache has its own mutex (db.stmtMu), and each Prepared guards its
// plan slots with p.mu so two queries racing to compile after DDL
// serialize on the compile but not on execution. Compiled plans
// themselves are immutable once built — all per-execution state lives
// in the env — so any number of goroutines can run the same plan.

const (
	parseCacheSize = 512
	planCacheSize  = 256
)

// lruCache is a plain LRU over string keys. Callers synchronize.
type lruCache struct {
	cap int
	m   map[string]*list.Element
	l   *list.List
}

type lruEntry struct {
	key string
	val any
}

func newLRU(cap int) *lruCache {
	return &lruCache{cap: cap, m: make(map[string]*list.Element), l: list.New()}
}

func (c *lruCache) get(k string) (any, bool) {
	el, ok := c.m[k]
	if !ok {
		return nil, false
	}
	c.l.MoveToFront(el)
	return el.Value.(*lruEntry).val, true
}

func (c *lruCache) put(k string, v any) {
	if el, ok := c.m[k]; ok {
		el.Value.(*lruEntry).val = v
		c.l.MoveToFront(el)
		return
	}
	c.m[k] = c.l.PushFront(&lruEntry{key: k, val: v})
	if c.l.Len() > c.cap {
		last := c.l.Back()
		c.l.Remove(last)
		delete(c.m, last.Value.(*lruEntry).key)
	}
}

var (
	parseMu    sync.Mutex
	parseCache = newLRU(parseCacheSize)
)

// parseScriptCached parses through the process-wide AST cache.
func parseScriptCached(sqlText string) ([]Statement, error) {
	parseMu.Lock()
	if v, ok := parseCache.get(sqlText); ok {
		parseMu.Unlock()
		return v.([]Statement), nil
	}
	parseMu.Unlock()
	stmts, err := ParseScript(sqlText)
	if err != nil {
		return nil, err
	}
	parseMu.Lock()
	parseCache.put(sqlText, stmts)
	parseMu.Unlock()
	return stmts, nil
}

// execPlan is a compiled, reusable statement plan: *compiledSelect,
// *insertPlan, *updatePlan or *deletePlan. DDL statements have no plan.
type execPlan any

// Prepared is a statement (or semicolon-separated script) bound to a
// DB, holding compiled plans that are reused across executions and
// recompiled transparently after DDL.
type Prepared struct {
	db      *DB
	text    string
	stmts   []Statement
	nParams int
	// mu guards the plan slots. Callers hold db.mu (read or write) as
	// well, which orders the ddlVersion reads below against DDL.
	mu    sync.Mutex
	plans []execPlan
	keys  []planKey
	errs  []error
}

// planKey is what a compiled plan is valid for. The zero key matches
// nothing: ddlVersion starts at 1.
type planKey struct {
	ddlVersion uint64
	mode       Mode
}

// Prepare parses sqlText (through the AST cache) and returns the
// cached Prepared for it, creating one on first use.
func (db *DB) Prepare(sqlText string) (*Prepared, error) {
	db.stmtMu.Lock()
	if db.stmtCache != nil {
		if v, ok := db.stmtCache.get(sqlText); ok {
			db.stmtMu.Unlock()
			return v.(*Prepared), nil
		}
	}
	db.stmtMu.Unlock()
	stmts, err := parseScriptCached(sqlText)
	if err != nil {
		return nil, err
	}
	p := &Prepared{
		db:      db,
		text:    sqlText,
		stmts:   stmts,
		nParams: numParamsStmts(stmts),
		plans:   make([]execPlan, len(stmts)),
		keys:    make([]planKey, len(stmts)),
		errs:    make([]error, len(stmts)),
	}
	db.stmtMu.Lock()
	if db.stmtCache == nil {
		db.stmtCache = newLRU(planCacheSize)
	}
	// Two goroutines may have prepared the same text concurrently; keep
	// the one already cached so every caller shares one Prepared.
	if v, ok := db.stmtCache.get(sqlText); ok {
		db.stmtMu.Unlock()
		return v.(*Prepared), nil
	}
	db.stmtCache.put(sqlText, p)
	db.stmtMu.Unlock()
	return p, nil
}

// NumParams reports how many '?' placeholders the statement(s) expect.
func (p *Prepared) NumParams() int { return p.nParams }

// Exec runs every statement of the prepared script and returns the
// total number of affected rows. Each statement commits on its own,
// waiting while a transaction is open.
func (p *Prepared) Exec(params ...relation.Value) (int64, error) {
	return p.ExecTx(nil, params...)
}

// ExecTx is Exec inside tx; a nil tx is Exec.
func (p *Prepared) ExecTx(tx *Tx, params ...relation.Value) (int64, error) {
	var total int64
	for i := range p.stmts {
		if err := p.db.lockW(tx); err != nil {
			return total, err
		}
		n, err := p.db.execPreparedLocked(p, i, params)
		p.db.unlockW(tx)
		if err != nil {
			return total, err
		}
		total += n
	}
	return total, nil
}

// Query runs a single prepared SELECT. It pins the current epoch with
// an atomic load and holds NO lock for the whole execution, so any
// number of queries run concurrently with each other and with writers
// (which publish new epochs this query never observes).
func (p *Prepared) Query(params ...relation.Value) (*Result, error) {
	ep := p.db.pin()
	defer p.db.unpin(ep)
	return p.queryEpoch(ep, params)
}

// QueryTx runs a single prepared SELECT inside tx, against the writer
// head: the transaction reads its own writes. A nil tx is Query.
func (p *Prepared) QueryTx(tx *Tx, params ...relation.Value) (*Result, error) {
	if tx == nil {
		return p.Query(params...)
	}
	if err := p.db.lockW(tx); err != nil {
		return nil, err
	}
	defer p.db.mu.Unlock()
	return p.queryEpoch(p.db.curW, params)
}

// QueryAt runs a single prepared SELECT against an explicitly pinned
// snapshot, so a sequence of statements can observe one frozen epoch.
func (p *Prepared) QueryAt(s *Snap, params ...relation.Value) (*Result, error) {
	if s == nil || s.ep == nil {
		return nil, fmt.Errorf("sql: QueryAt on a closed snapshot")
	}
	return p.queryEpoch(s.ep, params)
}

func (p *Prepared) queryEpoch(ep *epoch, params []relation.Value) (*Result, error) {
	if len(p.stmts) != 1 {
		return nil, fmt.Errorf("sql: Query requires exactly one statement, got %d", len(p.stmts))
	}
	plan, err := p.db.planFor(p, 0, ep)
	if err != nil {
		return nil, err
	}
	cs, ok := plan.(*compiledSelect)
	if !ok {
		return nil, fmt.Errorf("sql: Query requires a SELECT statement")
	}
	en := newEnv(p.db, ep, params)
	defer en.publish()
	rows, err := cs.exec(en)
	if err != nil {
		return nil, err
	}
	return &Result{Cols: cs.cols, Rows: rows}, nil
}

func (db *DB) execPreparedLocked(p *Prepared, i int, params []relation.Value) (int64, error) {
	switch p.stmts[i].(type) {
	case *CreateTable, *CreateIndex, *DropTable, *TruncateTable:
		// DDL executes directly; it also bumps ddlVersion, so any plan
		// compiled before it (including later statements of this very
		// script) recompiles against the new catalog.
		return db.execDDLLocked(p.stmts[i])
	}
	plan, err := db.planFor(p, i, db.curW)
	if err != nil {
		return 0, err
	}
	switch pl := plan.(type) {
	case *compiledSelect:
		en := newEnv(db, db.curW, params)
		defer en.publish()
		rows, err := pl.exec(en)
		if err != nil {
			return 0, err
		}
		return int64(len(rows)), nil
	case *insertPlan:
		return db.runInsert(pl, params)
	case *updatePlan:
		return db.runUpdate(pl, params)
	case *deletePlan:
		return db.runDelete(pl, params)
	default:
		return 0, fmt.Errorf("sql: unhandled prepared statement %T", p.stmts[i])
	}
}

// planFor returns statement i's plan, compiling (or recompiling after
// DDL or SetMode) as needed against ep. Plans are cached per ddlVersion
// and Mode: every epoch of the same version has identical
// tables/schemas/indexes, so a cached plan is valid for any of them,
// and the mode decides what the compiler builds into it. This is the
// one place an execution reads the mode. Compile errors are cached the
// same way. Callers need no catalog lock — ep is immutable; p.mu
// serializes concurrent compilations of the same slot.
func (db *DB) planFor(p *Prepared, i int, ep *epoch) (execPlan, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	key := planKey{ep.ddlVersion, db.execMode()}
	if p.keys[i] == key {
		return p.plans[i], p.errs[i]
	}
	var plan execPlan
	var err error
	switch s := p.stmts[i].(type) {
	case *Select:
		c := &compiler{db: db, ep: ep}
		var cs *compiledSelect
		if cs, err = c.compileSubSelect(s); err == nil {
			plan = cs
		}
	case *Insert:
		var ip *insertPlan
		if ip, err = db.compileInsert(s, ep); err == nil {
			plan = ip
		}
	case *Update:
		var up *updatePlan
		if up, err = db.compileUpdate(s, ep); err == nil {
			plan = up
		}
	case *Delete:
		var dp *deletePlan
		if dp, err = db.compileDelete(s, ep); err == nil {
			plan = dp
		}
	default:
		err = fmt.Errorf("sql: cannot prepare %T", s)
	}
	p.plans[i], p.errs[i], p.keys[i] = plan, err, key
	return plan, err
}

// --- parameter counting ---

// numParamsStmts counts the '?' placeholders a statement list binds:
// one more than the highest parameter index referenced.
func numParamsStmts(stmts []Statement) int {
	max := 0
	note := func(e Expr) {
		if pr, ok := e.(*Param); ok && pr.Index+1 > max {
			max = pr.Index + 1
		}
	}
	for _, s := range stmts {
		walkStmtExprs(s, note)
	}
	return max
}

// walkStmtExprs visits every expression node of a statement,
// descending into subqueries.
func walkStmtExprs(stmt Statement, fn func(Expr)) {
	switch s := stmt.(type) {
	case *Insert:
		for _, row := range s.Rows {
			for _, e := range row {
				walkExprTree(e, fn)
			}
		}
		if s.Query != nil {
			walkSelectTree(s.Query, fn)
		}
	case *Update:
		for _, a := range s.Set {
			walkExprTree(a.Value, fn)
		}
		walkExprTree(s.Where, fn)
	case *Delete:
		walkExprTree(s.Where, fn)
	case *Select:
		walkSelectTree(s, fn)
	}
}

func walkSelectTree(sel *Select, fn func(Expr)) {
	for _, se := range sel.Exprs {
		walkExprTree(se.Expr, fn)
	}
	for _, tr := range sel.From {
		if tr.Sub != nil {
			walkSelectTree(tr.Sub, fn)
		}
	}
	walkExprTree(sel.Where, fn)
	for _, g := range sel.GroupBy {
		walkExprTree(g, fn)
	}
	walkExprTree(sel.Having, fn)
	for _, o := range sel.OrderBy {
		walkExprTree(o.Expr, fn)
	}
	walkExprTree(sel.Limit, fn)
	walkExprTree(sel.Offset, fn)
}

func walkExprTree(e Expr, fn func(Expr)) {
	if e == nil {
		return
	}
	fn(e)
	switch x := e.(type) {
	case *Unary:
		walkExprTree(x.X, fn)
	case *Binary:
		walkExprTree(x.L, fn)
		walkExprTree(x.R, fn)
	case *IsNull:
		walkExprTree(x.X, fn)
	case *InList:
		walkExprTree(x.X, fn)
		for _, it := range x.List {
			walkExprTree(it, fn)
		}
	case *Like:
		walkExprTree(x.X, fn)
		walkExprTree(x.Pattern, fn)
	case *Between:
		walkExprTree(x.X, fn)
		walkExprTree(x.Lo, fn)
		walkExprTree(x.Hi, fn)
	case *Case:
		walkExprTree(x.Operand, fn)
		for _, w := range x.Whens {
			walkExprTree(w.Cond, fn)
			walkExprTree(w.Result, fn)
		}
		walkExprTree(x.Else, fn)
	case *FuncCall:
		for _, a := range x.Args {
			walkExprTree(a, fn)
		}
	case *Exists:
		walkSelectTree(x.Sub, fn)
	case *InSelect:
		walkExprTree(x.X, fn)
		walkSelectTree(x.Sub, fn)
	case *ScalarSub:
		walkSelectTree(x.Sub, fn)
	}
}
