package sqldb

import (
	"cmp"
	"fmt"
	"hash/maphash"
	"math"
	"math/bits"
	"slices"
	"strings"

	"ecfd/internal/relation"
)

// Batched (vector-at-a-time) execution.
//
// The planner's join levels normally evaluate every scheduled
// predicate as a compiled closure, once per candidate row. For the
// detection workload that per-row dispatch is pure overhead on the
// *simple* predicates — column-vs-constant/parameter compares
// (`t.RID >= ?`, `t.MV = 0`), NULL tests — whose
// right-hand sides never change while a level iterates. This file
// adds the second compilation target: such predicates lower to batch
// kernels that run over the table's column vectors, a segment at a
// time, and tighten a selection vector of offsets
// into the segment, with no closure call per row. Anything else — OR
// groups, subquery probes, cross-column compares — stays on the
// compiledExpr path, so semantics never change; the kernels are an
// exact, not a conservative, evaluation of the conjuncts they consume
// (verified by the differentials against the Reference mode).
//
// A kernel evaluates its invariant inputs once per level *entry*
// (bind), then filters the level's candidates run by run (filter): a
// run is the candidates, in order, that fall in one segment (segRun).
// NULL semantics collapse the same way the closure path does at filter
// level: a NULL comparison result keeps the row out.

// batchChunk is the selection-vector batch size: small enough that a
// chunk of positions stays cache-resident, large enough to amortize
// the per-chunk bookkeeping.
const batchChunk = 1024

// segRun is what a level's filters see of the segment its current run of
// candidates falls in: its columns in the reader's epoch, of n rows —
// which selection vectors and row masks are offsets into. It lives on
// planLevelBatch's stack: no schedule keeps a reference to a segment
// between runs.
type segRun struct {
	cols []colVec
	n    int
	// whole: the run's candidates are all its rows, in order — a full
	// scan's — so a selection as long as the run is the run.
	whole bool
}

// column returns the run's column ci, which the caller must not write.
func (r *segRun) column(ci int) *colVec { return &r.cols[ci] }

// kernOp enumerates the kernel predicate shapes.
type kernOp uint8

const (
	kernEQ kernOp = iota
	kernNE
	kernLT
	kernLE
	kernGT
	kernGE
	kernIsNull // neg: IS NOT NULL
)

// kernelPred is one compiled batch kernel: a simple predicate over one
// column of the level's source. rhs reads anything *except* that source
// (outer levels, outer scopes, parameters, constants), so it is
// loop-invariant for the level and binds once per entry.
type kernelPred struct {
	col int
	op  kernOp
	neg bool
	rhs compiledExpr // compare ops
}

// kernelCand records that a plan part can run as a kernel when source
// src is the part's scheduled level.
type kernelCand struct {
	src int
	k   *kernelPred
}

// kernBind is the per-level-entry bound state of one kernel.
type kernBind struct {
	// empty short-circuits the whole level: a NULL bound means the
	// predicate holds for no row (col OP NULL is never true), exactly
	// like the closure returning NULL for every row.
	empty  bool
	w      relation.Value
	wInt   bool    // w is integer-like: filterRun compares an integer column's words with w.I
	byCode []uint8 // filterRun's scratch: 1 for the codes the predicate holds for
}

// reset forgets what was bound; scratch stays.
func (b *kernBind) reset() { *b = kernBind{byCode: b.byCode[:0]} }

// bind evaluates the kernel's invariant inputs for one level entry.
func (k *kernelPred) bind(en *env, b *kernBind) error {
	b.empty = false
	if k.op == kernIsNull {
		return nil
	}
	w, err := k.rhs(en)
	if err != nil {
		return err
	}
	if w.IsNull() {
		b.empty = true
		return nil
	}
	b.w = w
	b.wInt = w.K == relation.KindInt || w.K == relation.KindBool
	return nil
}

// filter tightens the selection vector in place: sel holds candidate
// row offsets into colv, decoded cells of the kernel's column, and the
// survivors are returned as a prefix of sel's storage. Their relative
// order is preserved, so kernel filtering composes with range-pruned and
// order-served scans.
func (k *kernelPred) filter(colv []relation.Value, b *kernBind, sel []int) []int {
	out := sel[:0]
	switch k.op {
	case kernIsNull:
		for _, ri := range sel {
			if (colv[ri].K == relation.KindNull) != k.neg {
				out = append(out, ri)
			}
		}
	case kernEQ, kernNE:
		want := k.op == kernEQ
		for _, ri := range sel {
			if v := colv[ri]; v.K != relation.KindNull && relation.Equal(v, b.w) == want {
				out = append(out, ri)
			}
		}
	default: // kernLT, kernLE, kernGT, kernGE
		for _, ri := range sel {
			v := colv[ri]
			if v.K == relation.KindNull {
				continue
			}
			if holds(k.op, relation.Compare(v, b.w)) {
				out = append(out, ri)
			}
		}
	}
	return out
}

// holds reports whether a compare op holds for a comparison result c.
func holds(op kernOp, c int) bool {
	switch op {
	case kernEQ:
		return c == 0
	case kernNE:
		return c != 0
	case kernLT:
		return c < 0
	case kernLE:
		return c <= 0
	case kernGT:
		return c > 0
	}
	return c >= 0
}

// filterRun is filter over the run's column of the kernel. An INTEGER or
// BOOLEAN column compared with an integer bound is decided on its words.
// Any other column runs the unchanged filter — so every op keeps its
// semantics by construction — on decoded cells: over a coded column, of
// the whole dictionary when that is smaller than the selection, each row
// then decided by its code, else of the selected rows. Either way it
// decodes into 64-value chunks on the stack, so an instance keeps no
// string of the epoch it read.
func (k *kernelPred) filterRun(en *env, run *segRun, b *kernBind, sel []int) []int {
	cv := run.column(k.col)
	if cv.codes == nil && b.wInt && (cv.kind == relation.KindInt || cv.kind == relation.KindBool) {
		return k.filterInts(cv, b.w.I, sel)
	}
	var dec [64]relation.Value
	var at [64]int
	byCode, items := cv.codes != nil && len(cv.dict) < len(sel), len(sel)
	if byCode {
		items = len(cv.dict) + 1
		b.byCode = append(b.byCode[:0], make([]uint8, items)...)
	}
	if cv.codes != nil {
		en.work[wTextLookups] += int64(items)
	}
	out := sel[:0] // never passes the chunk it is filled from
	for c0 := 0; c0 < items; c0 += len(at) {
		n := min(items-c0, len(at))
		for i := range n {
			if at[i] = i; !byCode {
				dec[i] = cv.at(sel[c0+i])
			} else if dec[i] = (relation.Value{}); c0+i > 0 {
				dec[i] = relation.Text(cv.dict[c0+i-1]) // code c0+i; 0 is NULL
			}
		}
		for _, i := range k.filter(dec[:n], b, at[:n]) {
			if byCode {
				b.byCode[c0+i] = 1
			} else {
				out = append(out, sel[c0+i])
			}
		}
	}
	if !byCode {
		return out
	}
	m := 0
	for _, ri := range sel { // branch-free, like valueSet.filter
		sel[m] = ri
		m += int(b.byCode[cv.codes[ri]])
	}
	return sel[:m]
}

// filterInts is filter over an INTEGER or BOOLEAN column's words against
// w, the integer bound of a compare op.
func (k *kernelPred) filterInts(cv *colVec, w int64, sel []int) []int {
	out := sel[:0]
	for _, ri := range sel {
		if (cv.nulls == nil || !cv.nulls[ri]) && holds(k.op, cmp.Compare(int64(cv.words[ri]), w)) {
			out = append(out, ri)
		}
	}
	return out
}

// extractKernels compiles the batch-kernel candidates of one plan-part
// expression, one per source orientation that works: the part must be
// a simple predicate whose tested column belongs to that source (at
// the current depth) and whose remaining inputs never read it. Returns
// nil when the shape does not qualify — the part then stays on the
// closure path, which is always available.
func (c *compiler) extractKernels(e Expr, depth int) []kernelCand {
	var out []kernelCand
	// colOf resolves a ColumnRef at the current depth.
	colOf := func(side Expr) (src, col int, ok bool) {
		ref, isRef := side.(*ColumnRef)
		if !isRef {
			return 0, 0, false
		}
		b, err := c.resolve(ref)
		if err != nil || b.depth != depth {
			return 0, 0, false
		}
		return b.src, b.col, true
	}

	switch x := e.(type) {
	case *Binary:
		var op kernOp
		switch x.Op {
		case "=":
			op = kernEQ
		case "<>":
			op = kernNE
		case "<":
			op = kernLT
		case "<=":
			op = kernLE
		case ">":
			op = kernGT
		case ">=":
			op = kernGE
		default:
			return nil
		}
		flip := func(op kernOp) kernOp {
			switch op {
			case kernLT:
				return kernGT
			case kernLE:
				return kernGE
			case kernGT:
				return kernLT
			case kernGE:
				return kernLE
			}
			return op
		}
		// try takes colSide's column as the kernel's when keySide never
		// reads that column's source.
		try := func(colSide, keySide Expr, o kernOp) {
			src, col, ok := colOf(colSide)
			if !ok {
				return
			}
			if err := c.walkBindings(keySide, func(b binding) {
				if b.depth == depth && b.src == src {
					ok = false
				}
			}); err != nil || !ok {
				return
			}
			rhs, err := c.compileExpr(keySide)
			if err != nil {
				return
			}
			out = append(out, kernelCand{src: src, k: &kernelPred{col: col, op: o, rhs: rhs}})
		}
		try(x.L, x.R, op)
		try(x.R, x.L, flip(op))
		return out

	case *IsNull:
		src, col, ok := colOf(x.X)
		if !ok {
			return nil
		}
		return []kernelCand{{src: src, k: &kernelPred{col: col, op: kernIsNull, neg: x.Neg}}}
	}
	return nil
}

// ---- generalized kernel predicates: OR groups and probe kernels ----
//
// The simple kernels above cover plain conjuncts. The eCFD detection
// queries, however, are dominated by OR groups whose alternatives mix
// pattern-side guards with per-row set probes:
//
//	(c.A_L <> 1 OR EXISTS (SELECT 1 FROM tal s WHERE s.CID = c.CID AND s.VAL = t.A))
//
// kpred is the compiled, kernelizable form of one AND part of one OR
// alternative, relative to one source orientation. Four shapes:
//
//   - inv: the part never reads the level source — it is loop-invariant
//     for the level and evaluates once per entry (the guards above);
//   - simple: the kernel shapes above (compare, IS NULL);
//   - probe: a decorrelated EXISTS whose hash/index build and key
//     scratch resolve once per level entry instead of once per row;
//   - or: a nested disjunction of kernelizable atoms (the NotIn
//     alternative's `t.A IS NULL OR EXISTS (...)`).
//
// buildSchedule consumes a whole conjunct as an OR-group kernel when
// every part that reads the level's source lowers to a kpred; a group
// with any non-kernelizable part falls back whole to the per-row
// closure path, so semantics never change.
type kpred struct {
	inv    compiledExpr
	simple *kernelPred
	probe  *kprobe
	or     []*kpred
}

// kpredCand records that a part can run as a kernel when source src is
// the part's scheduled level.
type kpredCand struct {
	src int
	k   *kpred
}

// kpFor picks the generalized candidate matching a level's source.
func kpFor(cands []kpredCand, src int) *kpred {
	for i := range cands {
		if cands[i].src == src {
			return cands[i].k
		}
	}
	return nil
}

// kpSimpleFor returns the plain kernel of a part for a source, if the
// part lowers to one — the existing AND-conjunct consumption reads it.
func kpSimpleFor(cands []kpredCand, src int) *kernelPred {
	if k := kpFor(cands, src); k != nil {
		return k.simple
	}
	return nil
}

// kprobePartKind classifies one key part of a probe kernel relative to
// the level source.
type kprobePartKind uint8

const (
	pkInv     kprobePartKind = iota // never reads the level source: bind once per entry
	pkCol                           // plain column of the level source: vector read
	pkCase                          // one-armed CASE, condition invariant for the level
	pkGeneric                       // reads the level source arbitrarily: per-row closure
)

// kprobeResKind classifies the THEN arm of a pkCase part.
type kprobeResKind uint8

const (
	resGeneric      kprobeResKind = iota // per-row closure
	resCol                               // plain column of the level source
	resTextCoalesce                      // COALESCE(TOTEXT(col), lit) — the '@'-blanking shape
)

type kprobePart struct {
	kind    kprobePartKind
	full    compiledExpr   // pkInv, pkGeneric
	col     int            // pkCol; pkCase resCol / resTextCoalesce
	cond    compiledExpr   // pkCase
	resKind kprobeResKind  // pkCase
	resFull compiledExpr   // pkCase resGeneric
	alt     relation.Value // pkCase ELSE literal
	nullLit relation.Value // resTextCoalesce COALESCE fallback literal
}

// kprobe is the compiled batch form of a decorrelated EXISTS for one
// level source: the shared decorrProbe plus the per-part vectorization
// classes. It answers what the closure (tryDecorrelate) answers: the
// same build set or index, the same key encoding, and a NULL or NaN key
// part never matches.
type kprobe struct {
	d        *decorrProbe
	neg      bool
	src      int
	parts    []kprobePart
	needsRow bool // some part evaluates a closure against the level row
}

// setsOK reports whether an entry of the probe may answer from value
// sets (probeInst.bindSets): every per-row part is then a column read —
// no closure whose evaluation, and error, a dropped row would skip — and
// the probe side is the whole table, with no build-time filter to apply.
func (k *kprobe) setsOK() bool { return !k.needsRow && len(k.d.filters) == 0 }

// extractKPred compiles the generalized kernel candidates of one plan
// part, one per source orientation that works. Returns nil when the
// part's shape does not qualify for any source — the closure path is
// always available.
func (c *compiler) extractKPred(e Expr, depth int) []kpredCand {
	if cands := c.extractKernels(e, depth); len(cands) > 0 {
		out := make([]kpredCand, len(cands))
		for i, kc := range cands {
			out[i] = kpredCand{src: kc.src, k: &kpred{simple: kc.k}}
		}
		return out
	}
	switch x := e.(type) {
	case *Exists:
		return c.extractProbeKernels(x, depth)
	case *Binary:
		if x.Op != "OR" {
			return nil
		}
		var atoms []Expr
		flattenLogical("OR", x, &atoms)
		return c.extractNestedOr(atoms, depth)
	}
	return nil
}

// extractNestedOr lowers a disjunction nested inside an AND part: for
// a source candidate, every atom reading that source must itself
// kernelize; atoms not reading it become per-entry invariant closures
// (an invariant atom binding true makes the whole disjunction true for
// every row of the entry).
func (c *compiler) extractNestedOr(atoms []Expr, depth int) []kpredCand {
	var union srcMask
	masks := make([]srcMask, len(atoms))
	for i, a := range atoms {
		var m srcMask
		if err := c.walkBindings(a, func(b binding) {
			if b.depth == depth {
				m |= 1 << uint(b.src)
			}
		}); err != nil {
			return nil
		}
		masks[i] = m
		union |= m
	}
	var out []kpredCand
	for src := 0; src < 64; src++ {
		bit := srcMask(1) << uint(src)
		if union&bit == 0 {
			continue
		}
		sub := make([]*kpred, 0, len(atoms))
		ok := true
		for i, a := range atoms {
			if masks[i]&bit == 0 {
				ce, err := c.compileExpr(a)
				if err != nil {
					ok = false
					break
				}
				sub = append(sub, &kpred{inv: ce})
				continue
			}
			k := kpFor(c.extractKPred(a, depth), src)
			if k == nil {
				ok = false
				break
			}
			sub = append(sub, k)
		}
		if ok {
			out = append(out, kpredCand{src: src, k: &kpred{or: sub}})
		}
	}
	return out
}

// extractProbeKernels lowers a [NOT] EXISTS part to probe kernels, one
// per current-depth source its key expressions read.
func (c *compiler) extractProbeKernels(x *Exists, depth int) []kpredCand {
	d, err := c.analyzeDecorrelate(x)
	if err != nil || d == nil {
		return nil
	}
	var union srcMask
	masks := make([]srcMask, len(d.outer))
	for i, e := range d.outer {
		var m srcMask
		if err := c.walkBindings(e, func(b binding) {
			if b.depth == depth {
				m |= 1 << uint(b.src)
			}
		}); err != nil {
			return nil
		}
		masks[i] = m
		union |= m
	}
	var out []kpredCand
	for src := 0; src < 64; src++ {
		if union&(1<<uint(src)) == 0 {
			continue
		}
		if kp := c.buildProbeKernel(d, masks, depth, src); kp != nil {
			out = append(out, kpredCand{src: src, k: &kpred{probe: kp}})
		}
	}
	return out
}

// buildProbeKernel classifies every key part of a decorrelated probe
// relative to one source. Classification is total (pkGeneric catches
// everything), so this only fails on compile errors.
func (c *compiler) buildProbeKernel(d *decorrProbe, masks []srcMask, depth, src int) *kprobe {
	bit := srcMask(1) << uint(src)
	kp := &kprobe{d: d, neg: d.neg, src: src, parts: make([]kprobePart, len(d.outer))}
	for i, e := range d.outer {
		p := &kp.parts[i]
		if masks[i]&bit == 0 {
			ce, err := c.compileExpr(e)
			if err != nil {
				return nil
			}
			p.kind, p.full = pkInv, ce
			continue
		}
		if ref, ok := e.(*ColumnRef); ok {
			if b, err := c.resolve(ref); err == nil && b.depth == depth && b.src == src {
				p.kind, p.col = pkCol, b.col
				continue
			}
		}
		if c.classifyCasePart(p, e, depth, src, bit) {
			if p.resKind == resGeneric && p.resFull == nil {
				return nil // compile error in the THEN arm
			}
			kp.needsRow = kp.needsRow || (p.resKind == resGeneric)
			continue
		}
		ce, err := c.compileExpr(e)
		if err != nil {
			return nil
		}
		p.kind, p.full = pkGeneric, ce
		kp.needsRow = true
	}
	return kp
}

// classifyCasePart recognizes the '@'-blanking key shape — a one-armed
// searched CASE with a level-invariant condition and a literal ELSE —
// and fills p as a pkCase part. Returns false when e is not that shape
// (the caller falls back to pkGeneric).
func (c *compiler) classifyCasePart(p *kprobePart, e Expr, depth, src int, bit srcMask) bool {
	cse, ok := cacheableCase(e)
	if !ok {
		return false
	}
	var cm srcMask
	if err := c.walkBindings(cse.Cond, func(b binding) {
		if b.depth == depth {
			cm |= 1 << uint(b.src)
		}
	}); err != nil || cm&bit != 0 {
		return false
	}
	cond, err := c.compileExpr(cse.Cond)
	if err != nil {
		return false
	}
	p.kind, p.cond, p.alt = pkCase, cond, cse.Else.(*Literal).Val
	res := cse.Then
	if col, lit, ok := c.textCoalesceCol(res, depth, src); ok {
		p.resKind, p.col, p.nullLit = resTextCoalesce, col, lit
		return true
	}
	if ref, ok := res.(*ColumnRef); ok {
		if b, err := c.resolve(ref); err == nil && b.depth == depth && b.src == src {
			p.resKind, p.col = resCol, b.col
			return true
		}
	}
	rf, err := c.compileExpr(res)
	if err != nil {
		p.resKind, p.resFull = resGeneric, nil // caller rejects
		return true
	}
	p.resKind, p.resFull = resGeneric, rf
	return true
}

// textCoalesceCol matches COALESCE(TOTEXT(col), lit) over
// a column of the given source — the Qmv macro's NULL-marking idiom —
// returning the column and the fallback literal.
func (c *compiler) textCoalesceCol(e Expr, depth, src int) (int, relation.Value, bool) {
	fc, ok := e.(*FuncCall)
	if !ok || fc.Name != "COALESCE" {
		return 0, relation.Value{}, false
	}
	tt, ok := fc.Args[0].(*FuncCall)
	if !ok || tt.Name != "TOTEXT" {
		return 0, relation.Value{}, false
	}
	ref, ok := tt.Args[0].(*ColumnRef)
	if !ok {
		return 0, relation.Value{}, false
	}
	lit, ok := fc.Args[1].(*Literal)
	if !ok {
		return 0, relation.Value{}, false
	}
	b, err := c.resolve(ref)
	if err != nil || b.depth != depth || b.src != src {
		return 0, relation.Value{}, false
	}
	return b.col, lit.Val, true
}

// ---- per-schedule OR-group instances ----

// Tri-state of a pred for one level entry.
const (
	pNormal uint8 = iota
	pAlways       // holds for every candidate row: skip at filter time
	pNever        // holds for no row: the alternative is dead this entry
)

// orGroupK is the per-schedule (single-goroutine) instance of one
// group-kernel-consumed conjunct. All mutable bind state lives here;
// the compiled kpred tree is shared and immutable.
//
// Binding is lazy, term by term, at filter time: alternative i's
// invariant parts and kernel binds evaluate only when a candidate row
// actually reaches it (no earlier alternative matched it) — exactly
// when the row path would evaluate that alternative's closures. An
// erroring expression in a later alternative therefore errors the
// batch path precisely when it errors the row path, never earlier.
type orGroupK struct {
	conj   int
	nTerms int
	terms  []orTermK
	// entry state
	pass  bool // some alternative holds for every row: group filters nothing
	cands int  // candidate rows the level filters this entry
}

type orTermK struct {
	binds []compiledExpr // parts not reading the level source: all must bind true
	// memo, when every bind reads one base-table source's row and nothing
	// else (planPart.rowOnly), is the instance's memo for that source: it
	// keeps their outcome per row under slot (bindsHold).
	memo  *bindMemo
	slot  int
	preds []predInst
	bound bool // binds evaluated and preds bound for this entry
	live  bool
	// always: binds held and every pred is pAlways — the alternative
	// holds for every candidate row of the entry, so the whole group
	// passes from the first row that reaches it.
	always bool
}

// predInst carries one kpred's per-entry bind state.
type predInst struct {
	k     *kpred
	state uint8
	b     kernBind
	probe *probeInst
	or    []predInst
	// nested-or scratch: candidate copies and the row-match mask
	orRem, orCur []int
	orMask       []bool
}

// probeInst is the bound state of one probe kernel.
type probeInst struct {
	k *kprobe
	// Index-probe state (k.d.idx != nil): how the epoch's index answers
	// equality. On its ordered path bind narrows eq.s to the entry's
	// constant key prefix, and tailVals is the per-row scratch for the
	// remaining index columns.
	eq       eqView
	tailVals []relation.Value
	set      map[string]bool
	vals     []relation.Value // constant part values this entry
	con      []bool           // part i is constant this entry
	condT    []bool           // pkCase condition held this entry
	colvs    []colVec         // the current run's columns for vectorized parts
	rowVals  []relation.Value // per-row key scratch
	keyBuf   []byte
	// Per-entry key plan: pfx holds the encoded constant key prefix
	// (the leading parts of the encode order — index column order for
	// index probes, natural order for hash probes — that are constant
	// for the entry, e.g. the pattern's CID), tail the part indices
	// still read per row: its first nKey are encoded, and the rest are
	// the key positions the index leaves out (decorrProbe.rest).
	pfx     []byte
	tail    []int
	nKey    int
	pfxVals []relation.Value
	// vs is the value-set prefilter (bindSets), nil until an entry builds
	// one: most instances never do, and pay one word for it.
	vs *probeSets
	// hb is the hash build the entry probes (k.d.idx == nil), kept across
	// the instance's executions when the probe's filters read only the
	// build row (k.d.keep) and its table has at most keepMaxRows rows: the
	// next execution over the same version probes it again.
	hb *hashBuild
}

// probeSets is the value-set state of a probe instance: parts lists the
// per-row key parts of the current entry — empty when the entry probes
// every candidate exactly — and sets[i] holds the values part i can take
// in a matching probe-side row.
type probeSets struct {
	parts []int
	sets  []valueSet
}

// The value-set thresholds: an entry builds sets when its level is about
// to filter at least probeSetMinCands candidates and at most
// probeSetRowsMax probe-side rows have to be walked for them. Measured on
// 40 000 rows of gen data under gen.Constraints (8+8 updates touch ~28
// keys, 64+64 ~170; Aux holds 130 rows), interleaved with the parent:
//
//   - probeSetMinCands: the walk is paid per entry, so the entry's
//     candidates have to pay it back. Detector.Check enters these probes
//     once per pattern row over its 8 staged tuples: with no floor
//     serve_check_10k allocated 1.3 % more per request in 3 runs of 3 and
//     gained nothing (a cruder prototype lost 6.6 % p50 there). A few
//     selection vectors is above every staging table and below every data
//     scan.
//   - probeSetRowsMax: at 64 the 8+8 update already ran at 0.45× the
//     parent, but the 64+64 update and every Aux probe stayed exact; 256
//     took that update's recompute from 30–50 ms to 21–23 ms and
//     BatchDetect's MV update from 5 to 1.9 ms. Walking 256 rows costs
//     microseconds against ≥ 4096 exact probes at ~100 ns.
//   - probeTextScanMax: over 40 000 five-character values a == scan took
//     0.40 / 0.55 / 1.4 / 2.0 / 6.8 ms at 1 / 2 / 4 / 8 / 24 members, a
//     map on the raw text 0.75–1.1 ms at any size. They decide a coded
//     run's dictionary strings, or its rows where they are fewer.
//   - probePostingsDiv: a whole run's selection comes from the members'
//     postings when they hold at most 1/probePostingsDiv of its rows, else
//     from a bit test per row. On a sealed 1024-row run (2-CPU Intel Xeon)
//     postings took 0.8–1.3 µs for a quarter of it and 1.6–2.6 µs for
//     half, the bit test 2.3–3.8 µs for either. At ½ the recompute's ITEM
//     keys (a third of each run) read postings too: 0.20·|D| cells tested
//     a warm 8+8 update at 40 000 rows, not 1.20·|D|.
const (
	probeTextScanMax = 4
	probeSetRowsMax  = 256
	probeSetMinCands = 4 * batchChunk
	probePostingsDiv = 2
)

// valueSet is the set of distinct TEXT values one key column takes among
// the probe-side rows that agree with an entry's constant key parts.
// Membership is Identical — what the key encoding and the ordered index
// implement — and TEXT never is Identical to anything else, so members
// compare on the raw string, no encoding. A column holding a non-TEXT
// value there has no set: the entry probes exactly.
type valueSet struct {
	texts  []string            // every member
	hashed bool                // more than probeTextScanMax texts: m answers
	m      map[string]struct{} // allocated once per instance, cleared per entry
	// mask is filter's scratch over a coded run: bit c is set when code c
	// stands for a member. maskOf is the first code of the run it was made
	// for, nil before the entry makes one: a run is one segment's column
	// in one epoch, so the entry's later filters of that run reuse it.
	mask   []uint64
	maskOf *uint16
}

func (s *valueSet) reset() {
	s.texts, s.maskOf = s.texts[:0], nil
	if s.hashed {
		clear(s.m)
		s.hashed = false
	}
}

// add inserts a value. It refuses, reporting false, one that is not
// TEXT.
func (s *valueSet) add(v relation.Value) bool {
	if v.K != relation.KindText {
		return false
	}
	if s.has(v) {
		return true
	}
	s.texts = append(s.texts, v.S)
	if s.hashed {
		s.m[v.S] = struct{}{}
	} else if len(s.texts) > probeTextScanMax {
		if s.m == nil {
			s.m = make(map[string]struct{}, 2*len(s.texts))
		}
		for _, w := range s.texts {
			s.m[w] = struct{}{}
		}
		s.hashed = true
	}
	return true
}

// has reports whether v is a member. Only TEXT is.
func (s *valueSet) has(v relation.Value) bool {
	switch {
	case v.K != relation.KindText:
		return false
	case s.hashed:
		_, in := s.m[v.S]
		return in
	}
	return slices.Contains(s.texts, v.S)
}

// codeMask makes s.mask the members among the coded run cv's codes — by
// binary search per member when the dictionary is sorted, else by a
// lookup per dictionary string, whichever is fewer — unless it already
// is. The NULL code stands for what part's COALESCE makes of it. It
// reports false, making nothing, when cv is not coded or costs more
// lookups than the n rows to decide.
func (s *valueSet) codeMask(en *env, part *kprobePart, cv *colVec, n int) bool {
	if cv.codes == nil {
		return false
	}
	if s.maskOf == &cv.codes[0] {
		return true
	}
	cost, byMember := len(cv.dict), len(cv.perm) == len(cv.dict) && len(s.texts) < len(cv.dict)
	if byMember {
		cost = len(s.texts)
	}
	if cost >= n {
		return false
	}
	s.mask = append(s.mask[:0], make([]uint64, (len(cv.dict)+64)/64)...)
	if part.kind == pkCase && part.resKind == resTextCoalesce && s.has(part.nullLit) {
		s.mask[0] = 1
	}
	if byMember {
		for _, w := range s.texts {
			if c, ok := cv.search(w); ok {
				s.mask[c>>6] |= 1 << (c & 63)
			}
		}
	} else {
		for i, w := range cv.dict {
			if s.has(relation.Text(w)) {
				s.mask[(i+1)>>6] |= 1 << ((i + 1) & 63)
			}
		}
	}
	en.work[wTextLookups] += int64(cost)
	s.maskOf = &cv.codes[0]
	return true
}

// posted counts the rows of cv's postings under the codes of s.mask.
func (s *valueSet) posted(cv *colVec) int {
	n := 0
	for w, m := range s.mask {
		for ; m != 0; m &= m - 1 {
			c := w<<6 | bits.TrailingZeros64(m)
			n += int(cv.post.at[c+1] - cv.post.at[c])
		}
	}
	return n
}

// filter keeps the rows of sel whose key value — the run's cell in cv,
// seen through part's COALESCE(TOTEXT(col), lit) when it has one — is a
// member (want) or is not. Over a coded run the members are first
// translated into the run's codes (codeMask) and every row is then one
// bit test; a selection smaller still looks each row's string up
// instead. When sel is the whole run (whole, and as long as cv) and the
// members' postings hold at most 1/probePostingsDiv of its rows, the
// postings are the selection, and no cell is read.
func (s *valueSet) filter(en *env, part *kprobePart, cv *colVec, sel []int, want, whole bool) []int {
	en.work[wSetRows] += int64(len(sel))
	if s.codeMask(en, part, cv, len(sel)) {
		if want && whole && cv.post != nil && len(sel) == len(cv.codes) && s.posted(cv)*probePostingsDiv <= len(sel) {
			en.work[wPostingRows] += int64(len(sel))
			return s.fromPostings(cv, sel)
		}
		n, flip := 0, uint64(1)
		if want {
			flip = 0
		}
		for _, ri := range sel { // branch-free: membership is as good as random per row
			c := cv.codes[ri]
			sel[n] = ri
			n += int(s.mask[c>>6]>>(c&63)&1 ^ flip)
		}
		return sel[:n]
	}
	coalesce := part.kind == pkCase && part.resKind == resTextCoalesce
	out := sel[:0]
	for _, ri := range sel {
		v := cv.at(ri)
		if coalesce && v.K != relation.KindText {
			tv := part.nullLit
			if v.K != relation.KindNull {
				tv = relation.Text(v.String())
			}
			v = tv
		}
		if v.K == relation.KindText {
			en.work[wTextLookups]++
		}
		if s.has(v) == want {
			out = append(out, ri)
		}
	}
	return out
}

// fromPostings overwrites sel, the whole run cv, with its rows under the
// codes of s.mask, in order: the postings mark them in a bitmap of the
// run's rows, which is read back.
func (s *valueSet) fromPostings(cv *colVec, sel []int) []int {
	var rows [segRows / 64]uint64
	for w, m := range s.mask {
		for ; m != 0; m &= m - 1 {
			c := w<<6 | bits.TrailingZeros64(m)
			for _, r := range cv.post.rows[cv.post.at[c]:cv.post.at[c+1]] {
				rows[r>>6] |= 1 << (r & 63)
			}
		}
	}
	out := sel[:0]
	for w, m := range rows {
		for ; m != 0; m &= m - 1 {
			out = append(out, w<<6|bits.TrailingZeros64(m))
		}
	}
	return out
}

// reset drops what the pred holds of a statement (schedule.reset).
func (p *predInst) reset() {
	p.b.reset()
	if pb := p.probe; pb != nil {
		pb.eq, pb.set, pb.vs = eqView{}, nil, nil // vs: only big scans build one
		if pb.hb != nil && pb.hb.n > keepMaxRows {
			pb.hb = nil
		}
		clear(pb.colvs)
	}
	for i := range p.or {
		p.or[i].reset()
	}
}

// newPredInst instantiates the bind-state tree for a compiled kpred.
func newPredInst(k *kpred) predInst {
	p := predInst{k: k}
	if k.probe != nil {
		n := len(k.probe.parts)
		p.probe = &probeInst{
			k:       k.probe,
			vals:    make([]relation.Value, n),
			con:     make([]bool, n),
			condT:   make([]bool, n),
			colvs:   make([]colVec, n),
			rowVals: make([]relation.Value, n),
		}
	}
	for _, sub := range k.or {
		p.or = append(p.or, newPredInst(sub))
	}
	return p
}

// newOrGroupK builds the group instance for conjunct ci of cs consumed
// at the level scanning source s, for the schedule whose state is st.
func newOrGroupK(cs *compiledSelect, st *planState, pc *planConjunct, ci, s int) *orGroupK {
	bit := srcMask(1) << uint(s)
	g := &orGroupK{conj: ci, nTerms: len(pc.terms)}
	for _, t := range pc.terms {
		tm := orTermK{}
		var read srcMask
		rowOnly := true
		for _, p := range t.parts {
			if p.srcs&bit == 0 {
				tm.binds = append(tm.binds, p.ex)
				read |= p.srcs
				rowOnly = rowOnly && p.rowOnly
				continue
			}
			tm.preds = append(tm.preds, newPredInst(kpFor(p.kp, s)))
		}
		if site := bits.TrailingZeros64(uint64(read)); rowOnly && bits.OnesCount64(uint64(read)) == 1 && cs.sources[site].table != nil {
			tm.memo, tm.slot = st.memoFor(cs, site)
		}
		g.terms = append(g.terms, tm)
	}
	return g
}

// describe renders the group for EXPLAIN: its arity and, by the name
// their subquery gives the probe side, the probes an entry may answer
// from value sets (kprobe.setsOK — whether one does is decided per
// entry, from the row counts bind sees).
func (g *orGroupK) describe() string {
	var names []string
	var walk func(preds []predInst)
	walk = func(preds []predInst) {
		for i := range preds {
			p := &preds[i]
			if p.probe != nil && p.probe.k.setsOK() {
				if name := p.probe.k.d.x.Sub.From[0].Name(); !slices.Contains(names, name) {
					names = append(names, name)
				}
			}
			walk(p.or)
		}
	}
	for ti := range g.terms {
		walk(g.terms[ti].preds)
	}
	if len(names) == 0 {
		return fmt.Sprintf("or-group(%d terms)", g.nTerms)
	}
	return fmt.Sprintf("or-group(%d terms: value-set probe %s)", g.nTerms, strings.Join(names, ", "))
}

// enter resets the group's per-entry state for a level entry over
// cands candidate rows. No expression evaluates here — terms bind
// lazily, at the first filter moment a candidate row reaches them,
// mirroring the row path's evaluation order.
func (g *orGroupK) enter(cands int) {
	g.pass, g.cands = false, cands
	for ti := range g.terms {
		g.terms[ti].bound = false
	}
}

// bindLeading binds, for an entry whose every candidate row reaches the
// group, the alternatives such a row binds before one is live.
func (g *orGroupK) bindLeading(en *env) error {
	for ti := range g.terms {
		if tm := &g.terms[ti]; !tm.bound {
			if err := g.bindTerm(en, tm); err != nil || tm.live {
				return err
			}
		}
	}
	return nil
}

// dead reports whether the group passes no row of the entry: every
// alternative is bound, and none is live.
func (g *orGroupK) dead() bool {
	for ti := range g.terms {
		if tm := &g.terms[ti]; !tm.bound || tm.live {
			return false
		}
	}
	return true
}

// bindTerm evaluates one alternative's invariant parts and kernel
// binds for the current entry. Called only when candidate rows reach
// the alternative.
func (g *orGroupK) bindTerm(en *env, tm *orTermK) error {
	tm.bound, tm.live, tm.always = true, true, true
	if live, err := tm.bindsHold(en); err != nil || !live {
		tm.live = false
		return err
	}
	for pi := range tm.preds {
		p := &tm.preds[pi]
		if err := p.bind(en, g.cands); err != nil {
			return err
		}
		if p.state == pNever {
			tm.live = false
			return nil
		}
		if p.state != pAlways {
			tm.always = false
		}
	}
	return nil
}

// bindsHold reports whether every bind of the alternative holds for the
// bound rows, evaluating them in order up to the first that does not —
// unless the memo already holds the outcome for the site row, which
// evaluating them would only repeat. An error is never kept: the next
// entry evaluates again, and fails the same way.
func (tm *orTermK) bindsHold(en *env) (bool, error) {
	var cell *uint8
	if m := tm.memo; m != nil && len(m.out) > 0 {
		if cell = &m.out[tm.slot*m.rows+m.idx[m.src]]; *cell != memoUnknown {
			return *cell == memoTrue, nil
		}
	}
	outcome := memoTrue
	for _, ex := range tm.binds {
		en.work[wBindEvals]++
		v, err := ex(en)
		if err != nil {
			return false, err
		}
		if !v.Truth() {
			outcome = memoFalse
			break
		}
	}
	if cell != nil {
		*cell = outcome
	}
	return outcome == memoTrue, nil
}

func (p *predInst) bind(en *env, cands int) error {
	k := p.k
	switch {
	case k.inv != nil:
		v, err := k.inv(en)
		if err != nil {
			return err
		}
		if v.Truth() {
			p.state = pAlways
		} else {
			p.state = pNever
		}
	case k.simple != nil:
		if err := k.simple.bind(en, &p.b); err != nil {
			return err
		}
		if p.b.empty {
			p.state = pNever
			return nil
		}
		p.state = pNormal
	case k.probe != nil:
		return p.probe.bind(en, cands, &p.state)
	default: // nested OR
		p.state = pNever
		for i := range p.or {
			sub := &p.or[i]
			if err := sub.bind(en, cands); err != nil {
				return err
			}
			if sub.state == pAlways {
				p.state = pAlways
				return nil
			}
			if sub.state == pNormal {
				p.state = pNormal
			}
		}
	}
	return nil
}

// bind resolves the probe for one level entry over cands candidate
// rows: the constant key parts, the key plan of the exact probe and,
// when they pay (bindSets), the value sets that stand in front of it.
func (pb *probeInst) bind(en *env, cands int, state *uint8) error {
	k := pb.k
	if pb.vs != nil {
		pb.vs.parts = pb.vs.parts[:0] // the previous entry's sets are not this one's
	}
	*state = pNormal
	constNull := false
	for i := range k.parts {
		part := &k.parts[i]
		pb.con[i] = false
		switch part.kind {
		case pkInv:
			v, err := part.full(en)
			if err != nil {
				return err
			}
			pb.vals[i], pb.con[i] = v, true
			if v.IsNull() || isNaN(v) {
				constNull = true
			}
		case pkCase:
			cv, err := part.cond(en)
			if err != nil {
				return err
			}
			pb.condT[i] = cv.Truth()
			if !pb.condT[i] {
				pb.vals[i], pb.con[i] = part.alt, true
				if part.alt.IsNull() {
					constNull = true
				}
			}
		}
	}
	if constNull {
		// A NULL or NaN key part never matches: EXISTS is false for every
		// row, exactly as in the closure (tryDecorrelate).
		if k.neg {
			*state = pAlways
		} else {
			*state = pNever
		}
		return nil
	}
	// Key plan: pre-encode the constant prefix of the encode order and
	// remember which parts remain per-row. Constant parts are neither
	// NULL nor NaN here (constNull returned above), so the prefix never
	// hides a key that cannot match.
	pb.pfx = pb.pfx[:0]
	pb.tail = pb.tail[:0]
	pb.pfxVals = pb.pfxVals[:0]
	n := len(k.parts)
	if k.d.idx != nil {
		n = len(k.d.perm)
	}
	inPrefix := true
	for j := 0; j < n; j++ {
		i := j
		if k.d.idx != nil {
			i = k.d.perm[j]
		}
		if inPrefix && pb.con[i] {
			pb.pfx = relation.AppendKey(pb.pfx, pb.vals[i])
			pb.pfxVals = append(pb.pfxVals, pb.vals[i])
			continue
		}
		inPrefix = false
		pb.tail = append(pb.tail, i)
		if pb.con[i] {
			pb.rowVals[i] = pb.vals[i]
		}
	}
	// The key positions the index leaves out follow, read per row like
	// the tail but checked on the rows the index finds (matchRest).
	pb.nKey = len(pb.tail)
	for _, i := range k.d.rest {
		pb.tail = append(pb.tail, i)
		if pb.con[i] {
			pb.rowVals[i] = pb.vals[i]
		}
	}
	// Sets first: an entry they answer on their own — constant, or a
	// single per-row part — never consults the index or the hash build,
	// so it does not resolve (build, refresh) one either.
	inner := en.td(k.d.t)
	sets := cands >= probeSetMinCands && k.setsOK()
	if sets && inner.n <= probeSetRowsMax {
		pb.bindSets(&inner.rowSet, nil, inner.n, state)
		if *state != pNormal || len(pb.vs.parts) == 1 {
			en.work[wSetBinds]++
			return nil
		}
		sets = false
	}
	en.work[wExactBinds]++
	if k.d.idx == nil {
		hb, err := k.d.ensureHash(en, pb.hb)
		if err != nil {
			return err
		}
		pb.set = hb.set
		if k.d.keep {
			pb.hb = hb
		}
		return nil
	}
	pb.eq = inner.lookupEq(k.d.t, k.d.idx)
	if pb.eq.ordered() {
		// The ordered path searches only below the constant prefix.
		en.work[wIndexSeeks]++
		pb.eq.s = pb.eq.within(pb.eq.s, 0, pb.pfxVals)
	}
	if sets && len(pb.pfxVals) > 0 {
		// Too many rows to walk, but the entry's constants lead the index
		// order: the rows below that prefix are the only ones that can
		// agree with them.
		pos := pb.eq.s
		if !pb.eq.ordered() {
			en.work[wIndexSeeks]++
			pos = eqRange(&inner.rowSet, k.d.idx.Cols, inner.prefixOrder(k.d.idx), 0, pb.pfxVals)
		}
		if len(pos) <= probeSetRowsMax {
			pb.bindSets(&inner.rowSet, pos, len(pos), state)
		}
	}
	return nil
}

// bindSets specialises the entry over a tiny probe side: one walk keeps
// the probe-side rows that agree with every constant key part (the
// bound CID, the '@' blanks) and collects, per remaining part, the
// values those rows hold. A candidate whose value is outside any of the
// sets matches no probe-side row, so filter decides it from the column
// vector alone — nothing encoded, hashed or locked — and only what is
// inside all of them needs the exact probe; with a single per-row part
// membership is the exact answer, and with none, or no agreeing row, the
// probe is constant for the entry. k.setsOK() holds: every per-row part
// reads a column vector.
//
// Tiny is at most probeSetRowsMax rows to walk, n of them: bind passes
// the whole table (pos nil) or, for a larger table whose index order the
// entry's constants lead, the n positions the index finds below that
// prefix — the set tables of a large tableau hold thousands of rows, a
// handful per CID. That second source only keeps what the old small-set
// scan served on such tables (`ecfdbench -fig 5c`, about 2× in two runs);
// no workload of the repo benchmark has a large tableau, so it is covered
// by TestValueSetProbeDifferential and otherwise unmeasured.
func (pb *probeInst) bindSets(rows *rowSet, pos []int, n int, state *uint8) {
	k := pb.k
	if pb.vs == nil {
		pb.vs = &probeSets{sets: make([]valueSet, len(k.parts))}
	}
	vs := pb.vs
	for i := range k.parts {
		if !pb.con[i] {
			vs.parts = append(vs.parts, i)
			vs.sets[i].reset()
		}
	}
	agree, si := false, 0
rows:
	for j := 0; j < n; j++ {
		p := j
		if pos != nil {
			p = pos[j]
		}
		r := rows.ref(p, &si)
		for i, col := range k.d.keyCols {
			switch v := r.at(col); {
			case !pb.con[i]:
				if v.IsNull() || isNaN(v) {
					continue rows // a NULL or NaN key column matches nothing
				}
			case !relation.Identical(v, pb.vals[i]):
				continue rows
			}
		}
		agree = true
		for _, i := range vs.parts {
			if !vs.sets[i].add(r.at(k.d.keyCols[i])) {
				vs.parts = vs.parts[:0] // not TEXT: probe exactly
				return
			}
		}
	}
	if !agree || len(vs.parts) == 0 {
		vs.parts = vs.parts[:0]
		if agree != k.neg {
			*state = pAlways
		} else {
			*state = pNever
		}
	}
}

// filter keeps the rows of sel whose probe result (hit != neg) holds.
// Order is preserved; sel is tightened in place.
func (pb *probeInst) filter(en *env, cs *compiledSelect, src int, run *segRun, sel []int) ([]int, error) {
	k, vs := pb.k, pb.vs
	for i := range k.parts {
		// The parts read per row from a column take the run's vector of it.
		if p := &k.parts[i]; p.kind == pkCol || p.kind == pkCase && pb.condT[i] && p.resKind != resGeneric {
			pb.colvs[i] = *run.column(p.col)
		}
	}
	switch {
	case vs == nil || len(vs.parts) == 0 || k.neg && len(vs.parts) > 1:
		return pb.probeExact(en, cs, src, run, sel, k.neg)
	case len(vs.parts) == 1:
		i := vs.parts[0]
		return vs.sets[i].filter(en, &k.parts[i], &pb.colvs[i], sel, !k.neg, run.whole), nil
	}
	// EXISTS over several per-row parts: the sets bound the hits from
	// above, the exact probe settles the candidates inside all of them.
	// Over a whole run the part whose postings hold the fewest rows
	// filters first.
	hits := sel
	if run.whole && len(hits) == run.n {
		lead, least := 0, len(hits)+1
		for j, i := range vs.parts {
			if s, cv := &vs.sets[i], &pb.colvs[i]; cv.post != nil && s.codeMask(en, &k.parts[i], cv, len(hits)) {
				if n := s.posted(cv); n < least {
					lead, least = j, n
				}
			}
		}
		vs.parts[0], vs.parts[lead] = vs.parts[lead], vs.parts[0]
	}
	for _, i := range vs.parts {
		hits = vs.sets[i].filter(en, &k.parts[i], &pb.colvs[i], hits, true, run.whole)
	}
	return pb.probeExact(en, cs, src, run, hits, false)
}

// probeExact answers the probe for every row of sel from the index or
// the hash build — key encoded or searched per row — and keeps the rows
// whose hit differs from neg.
func (pb *probeInst) probeExact(en *env, cs *compiledSelect, src int, run *segRun, sel []int, neg bool) ([]int, error) {
	k := pb.k
	en.work[wProbeRows] += int64(len(sel))
	out := sel[:0]
	var fr *frame
	if k.needsRow {
		fr = &en.frames[cs.depth]
	}
rowLoop:
	for _, ri := range sel {
		if fr != nil {
			fr.rows[src] = rowRef{cols: run.cols, off: ri}
		}
		ordered := pb.eq.ordered() // only ever set for index probes
		key := pb.keyBuf[:0]
		if ordered {
			pb.tailVals = pb.tailVals[:0]
		} else {
			key = append(key, pb.pfx...)
		}
		for ti, i := range pb.tail {
			part := &k.parts[i]
			v := pb.rowVals[i] // constants were planted at bind
			if !pb.con[i] {
				switch part.kind {
				case pkCol:
					v = pb.colvs[i].at(ri)
				case pkCase:
					switch part.resKind {
					case resCol:
						v = pb.colvs[i].at(ri)
					case resTextCoalesce:
						cv := pb.colvs[i].at(ri)
						switch cv.K {
						case relation.KindNull:
							v = part.nullLit
						case relation.KindText:
							v = cv
						default:
							v = relation.Text(cv.String())
						}
					default:
						var err error
						if v, err = part.resFull(en); err != nil {
							return nil, err
						}
					}
				default: // pkGeneric
					var err error
					if v, err = part.full(en); err != nil {
						return nil, err
					}
				}
				if v.IsNull() || isNaN(v) {
					pb.keyBuf = key
					if neg {
						out = append(out, ri)
					}
					continue rowLoop
				}
			}
			switch {
			case ti >= pb.nKey:
				pb.rowVals[i] = v
			case ordered:
				pb.tailVals = append(pb.tailVals, v)
			default:
				key = relation.AppendKey(key, v)
			}
		}
		pb.keyBuf = key
		var hit bool
		switch {
		case ordered:
			hit = k.d.matchRest(&pb.eq.td.rowSet, pb.eq.within(pb.eq.s, len(pb.pfxVals), pb.tailVals), pb.rowVals)
		case k.d.idx != nil:
			// Per-probe locking inside probe(): no structure lock is held
			// across the surrounding closure evaluations.
			hit = k.d.matchRest(&pb.eq.td.rowSet, pb.eq.probeKey(key), pb.rowVals)
		default:
			hit = pb.set[string(key)]
		}
		if hit != neg {
			out = append(out, ri)
		}
	}
	return out, nil
}

// filter applies one pred to a candidate list, tightening it in place.
func (p *predInst) filter(en *env, cs *compiledSelect, src int, run *segRun, sel []int) ([]int, error) {
	k := p.k
	switch {
	case k.simple != nil:
		return k.simple.filterRun(en, run, &p.b, sel), nil
	case k.probe != nil:
		return p.probe.filter(en, cs, src, run, sel)
	}
	// Nested OR: a row survives when any live atom holds for it. Atoms
	// test only the rows no earlier atom matched; the mask over the
	// segment's rows restores the original candidate order at the end.
	if len(p.orMask) < run.n {
		p.orMask = make([]bool, run.n)
	}
	rem := append(p.orRem[:0], sel...)
	for i := range p.or {
		sub := &p.or[i]
		if sub.state != pNormal || len(rem) == 0 {
			continue // pAlways was handled at bind; pNever holds nowhere
		}
		cur := append(p.orCur[:0], rem...)
		cur, err := sub.filter(en, cs, src, run, cur)
		p.orCur = cur[:0]
		if err != nil {
			p.orRem = rem[:0]
			return nil, err
		}
		if len(cur) == 0 {
			continue
		}
		for _, ri := range cur {
			p.orMask[ri] = true
		}
		keep := rem[:0]
		for _, ri := range rem {
			if !p.orMask[ri] {
				keep = append(keep, ri)
			}
		}
		rem = keep
	}
	p.orRem = rem[:0]
	out := sel[:0]
	for _, ri := range sel {
		if p.orMask[ri] {
			out = append(out, ri)
			p.orMask[ri] = false
		}
	}
	return out, nil
}

// groupScratch is the per-level scratch of the group filters; mask
// covers a segment's rows, and is all false between filter calls.
type groupScratch struct {
	rem, cur []int
	mask     []bool
}

// filter tightens sel to the rows every one of the alternative's
// non-pAlways preds holds for.
func (tm *orTermK) filter(en *env, cs *compiledSelect, src int, run *segRun, sel []int) ([]int, error) {
	for pi := range tm.preds {
		p := &tm.preds[pi]
		if p.state == pAlways || len(sel) == 0 {
			continue
		}
		var err error
		if sel, err = p.filter(en, cs, src, run, sel); err != nil {
			return nil, err
		}
	}
	return sel, nil
}

// filter OR-merges the group's live alternatives into the selection
// vector: a row survives when some live alternative's preds all hold.
// Alternatives test only rows no earlier alternative matched, so the
// total per-row work is bounded by the first matching alternative —
// mirroring the row path's short-circuit. Order is preserved. When the
// last alternative is the first to match any row — every lhsMatch group
// once the pattern row has decided its first term — the group keeps
// exactly that alternative's rows, filtered in place with no mask.
func (g *orGroupK) filter(en *env, cs *compiledSelect, src int, gs *groupScratch, run *segRun, sel []int) ([]int, error) {
	if len(gs.mask) < run.n {
		gs.mask = make([]bool, run.n)
	}
	rem := append(gs.rem[:0], sel...)
	for ti := range g.terms {
		tm := &g.terms[ti]
		if len(rem) == 0 {
			break // every candidate matched: later alternatives never run
		}
		if !tm.bound {
			if err := g.bindTerm(en, tm); err != nil {
				gs.rem = rem[:0]
				return nil, err
			}
		}
		if !tm.live {
			continue
		}
		if tm.always {
			// Holds for every candidate that reaches it: combined with the
			// earlier alternatives' matches, every row of this chunk — and
			// of every later chunk of the entry — passes the group.
			g.pass = true
			if len(rem) == len(sel) {
				gs.rem = rem[:0]
				return sel, nil // mask untouched: nothing to clear
			}
			for _, ri := range rem {
				gs.mask[ri] = true
			}
			rem = rem[:0]
			break
		}
		if ti == len(g.terms)-1 && len(rem) == len(sel) {
			gs.rem = rem[:0]
			return tm.filter(en, cs, src, run, sel)
		}
		cur, err := tm.filter(en, cs, src, run, append(gs.cur[:0], rem...))
		if err != nil {
			gs.rem = rem[:0]
			return nil, err
		}
		gs.cur = cur[:0]
		if len(cur) == 0 {
			continue
		}
		for _, ri := range cur {
			gs.mask[ri] = true
		}
		keep := rem[:0]
		for _, ri := range rem {
			if !gs.mask[ri] {
				keep = append(keep, ri)
			}
		}
		rem = keep
	}
	gs.rem = rem[:0]
	out := sel[:0]
	for _, ri := range sel {
		if gs.mask[ri] {
			out = append(out, ri)
			gs.mask[ri] = false
		}
	}
	return out, nil
}

// --- batch-aware projection ---
//
// The pipeline's project stage. The Qmv macro emits, per surviving
// (tuple, pattern) pair, one '@'-blanking CASE per attribute per side:
//
//	CASE WHEN c.A_L > 0 THEN COALESCE(TOTEXT(t.A), '@NULL@') ELSE '@' END
//
// Every CASE condition (and c.CID itself) reads only the pattern site
// c, bound in an outer level over ten-odd pattern tuples, while the
// surviving data rows stream underneath. projSpec classifies each
// output expression of an inline DISTINCT once at compile time —
// pattern-invariant, split CASE, or general — and its id keys then key
// per row only the THEN projections of the few attributes the current
// pattern actually constrains; everything else is fixed per site row,
// cached on the site row's identity. The differential oracle pins this,
// with the nested-loop leg evaluating the plain outs closures as the
// independent reference.

type projMode uint8

const (
	projGeneral projMode = iota
	projInv              // whole output reads only the site: cached per site row
	projCase             // one-armed CASE, site-only condition, literal ELSE
)

type projPart struct {
	mode projMode
	cond compiledExpr
	res  compiledExpr
	alt  relation.Value
	// resCols are the current-scope columns the THEN arm reads, nil when
	// it reads anything else (an outer scope, a subquery). With exactly
	// one, the active part's output is a function of that cell, so of its
	// segment code (idKeys.translate).
	resCols []binding
	// coalesce: the THEN arm is COALESCE(TOTEXT(col), nullLit) over that
	// one column, so a dictionary code translates with no evaluation.
	coalesce bool
	nullLit  relation.Value
}

// projSpec is the compiled projection plan of one select.
type projSpec struct {
	site  binding
	parts []projPart
}

// buildProjSpec classifies the output expressions. astOuts aligns with
// cs.outs (nil for star-expanded columns, which stay general). Returns
// nil when no output would benefit.
func (c *compiler) buildProjSpec(astOuts []Expr) *projSpec {
	if len(astOuts) == 0 || len(astOuts) > 64 {
		return nil
	}
	depth := len(c.scopes) - 1
	sp := &projSpec{parts: make([]projPart, len(astOuts))}
	sc := &siteClassifier{c: c, innerDepth: depth + 1}
	// Fix the site from the split-CASE conditions first — the detection
	// macros' '@'-blanking CASEs read the pattern table, which is the
	// site worth caching — choosing the site *most* conditions agree on
	// rather than the first one seen: without this, a leading output
	// that happens to read the fast-changing scan source would latch
	// the site, every pattern-side CASE would fail adoption, and the
	// cache would silently refresh per emitted row. Whether the
	// optimization fires must not depend on column order.
	type siteTally struct {
		site binding
		n    int
	}
	var tallies []siteTally
	for _, e := range astOuts {
		cse, ok := cacheableCase(e)
		if !ok {
			continue
		}
		site, ok := c.singleSite(cse.Cond, depth+1)
		if !ok {
			continue
		}
		found := false
		for i := range tallies {
			if tallies[i].site == site {
				tallies[i].n++
				found = true
				break
			}
		}
		if !found {
			tallies = append(tallies, siteTally{site: site, n: 1})
		}
	}
	best := -1
	for i := range tallies {
		if best < 0 || tallies[i].n > tallies[best].n {
			best = i
		}
	}
	if best >= 0 {
		sc.site, sc.hasSite = tallies[best].site, true
	}
	useful := false
	resCols := func(e Expr) []binding {
		if exprHasSubquery(e) {
			return nil
		}
		var cols []binding
		ok := true
		if err := c.walkBindings(e, func(b binding) {
			ok = ok && b.depth == depth
			cols = append(cols, b)
		}); err != nil || !ok {
			return nil
		}
		return cols
	}
	for i, e := range astOuts {
		if e == nil {
			continue // star expansion stays general
		}
		if sc.adopt(e) {
			sp.parts[i].mode = projInv
			useful = true
			continue
		}
		cond, res, alt, ok, err := sc.splitCase(e)
		if err != nil || !ok {
			continue // an uncompilable half just stays general
		}
		cse, _ := cacheableCase(e)
		p := projPart{mode: projCase, cond: cond, res: res, alt: alt, resCols: resCols(cse.Then)}
		if len(p.resCols) == 1 {
			col, lit, ok := c.textCoalesceCol(cse.Then, depth, p.resCols[0].src)
			p.coalesce, p.nullLit = ok && col == p.resCols[0].col, lit
		}
		sp.parts[i] = p
		useful = true
	}
	if !useful || !sc.hasSite {
		return nil
	}
	sp.site = sc.site
	// A single-source select whose site is its own scanned source can
	// never hit the cache: the site row changes on every emit, so the
	// spec would only add refresh overhead per row. The cache is for
	// join shapes where an outer (pattern) source drives many emits.
	if sp.site.depth == depth && len(c.scopes[depth].sources) == 1 {
		return nil
	}
	return sp
}

// --- id-keyed DISTINCT ---
//
// A Planned DISTINCT feed (feedDistinct) keys each output row by the
// interned ids of its values: an id stands for one value up to its key
// encoding, which DISTINCT compares, so two rows are one DISTINCT row
// exactly when their ids are. One open-addressed table of id vectors
// dedupes the rows and finds the streamed grouping's groups; values are
// decoded from the ids for new rows only. An execution's tables hold no
// pointer and are allocated once, at the size the plan instance's last
// execution reached (idSizes).

// interner numbers one execution's output values. An id is a kind and a
// word: an integer's I, a float's bits, or a TEXT's offset<<32 | length
// in text, which holds the strings back to back. Ids are found by their
// hash in slots.
type interner struct {
	slots []idSlot
	kinds []relation.Kind // id-1 → the kind of the value first interned under it
	bits  []uint64
	text  []byte
	// mixed: some id stands for two representations of a number (1 and
	// 1.0, 0 and -0.0), so ids no longer decode an entry added since.
	mixed bool
}

var textSeed = maphash.MakeSeed()

// slotsFor is the size of an open-addressed table that holds n keys
// under half full.
func slotsFor(n int) int { return 1 << bits.Len(uint(max(2*n-2, 15))) }

// numKey is a non-TEXT value's key encoding as a class and a word: NULL,
// an integer (Bool, Int and integral Float alike) or a float's bits, one
// for every NaN.
func numKey(v relation.Value) (byte, uint64) {
	switch f := v.F; {
	case v.K == relation.KindNull:
		return 'n', 0
	case v.K != relation.KindFloat:
		return 'i', uint64(v.I)
	case f >= -1<<63 && f < 1<<63 && f == float64(int64(f)):
		return 'i', uint64(int64(f))
	case f != f:
		return 'f', math.Float64bits(math.NaN())
	}
	return 'f', math.Float64bits(v.F)
}

// keyHash is v's share of a group key's hash (idKeys.held), agreeing with
// ids: TEXT by its bytes, any other value by numKey. Never 0.
func keyHash(v relation.Value) uint64 {
	if v.K == relation.KindText {
		return maphash.String(textSeed, v.S) | 1
	}
	cls, w := numKey(v)
	return (w^uint64(cls)<<56)*0x9e3779b97f4a7c15 | 1
}

// keyTerm is column i's share, with value hash h, of a group key's hash.
func keyTerm(i int, h uint64) uint64 { return (h ^ uint64(i)*0x9e3779b97f4a7c15) * 0xbf58476d1ce4e5b9 }

// id returns v's id, adding it if new. Ids count from 1.
func (in *interner) id(v relation.Value) uint32 {
	if 2*len(in.kinds) >= len(in.slots) {
		in.slots = growSlots(in.slots)
	}
	text := v.K == relation.KindText
	var h uint32
	var cls byte
	var w uint64
	if text {
		h = uint32(maphash.String(textSeed, v.S))
	} else {
		cls, w = numKey(v)
		h = uint32((w ^ uint64(cls)<<56) * 0x9e3779b97f4a7c15 >> 32)
	}
	for i, mask := h, uint32(len(in.slots)-1); ; i++ {
		s := &in.slots[i&mask]
		if s.e == 0 {
			s.h, s.e = h, in.add(v)
			return s.e
		}
		id := s.e
		if s.h != h || (in.kinds[id-1] == relation.KindText) != text {
			continue
		}
		if text {
			if string(in.textOf(id)) == v.S {
				return id
			}
			continue
		}
		u := in.value(id)
		if c, x := numKey(u); c != cls || x != w {
			continue
		}
		if u.K != v.K || u.I != v.I || math.Float64bits(u.F) != math.Float64bits(v.F) {
			in.mixed = true
		}
		return id
	}
}

func (in *interner) add(v relation.Value) uint32 {
	b := uint64(v.I)
	switch v.K {
	case relation.KindFloat:
		b = math.Float64bits(v.F)
	case relation.KindText:
		b = uint64(len(in.text))<<32 | uint64(len(v.S))
		in.text = append(in.text, v.S...)
	}
	in.kinds, in.bits = append(in.kinds, v.K), append(in.bits, b)
	return uint32(len(in.kinds))
}

// textOf returns TEXT id's bytes.
func (in *interner) textOf(id uint32) []byte {
	b := in.bits[id-1]
	return in.text[b>>32 : b>>32+b&(1<<32-1)]
}

// value decodes id, a TEXT one into a string of its own.
func (in *interner) value(id uint32) relation.Value {
	switch k, b := in.kinds[id-1], in.bits[id-1]; k {
	case relation.KindText:
		return relation.Text(string(in.textOf(id)))
	case relation.KindFloat:
		return relation.Float(math.Float64frombits(b))
	default:
		return relation.Value{K: k, I: int64(b)}
	}
}

// codeIDs is a live column's translation of the codes of the segment
// column seg: idKeys.xlats[base+code] is the id of the output for a row
// holding code, 0 until translated.
type codeIDs struct {
	seg  *colVec
	base int
}

// xlatKey names live column i's translation of a segment column.
type xlatKey struct {
	i   int
	seg *colVec
}

// idSizes is what an execution's id keys held at its end: table entries
// and their ids, interned ids and their TEXT bytes, groups, and a hold's
// group key hashes and code hashes. A plan instance keeps the last
// execution's, and the next allocates its tables at that size.
type idSizes struct{ entries, words, ids, text, groups, firsts, hashes int }

// idKeys is one execution's id-keyed DISTINCT. It holds the segments it
// met until the execution ends; nothing of it outlives the execution but
// its sizes and its translations' array, emptied (release).
//
// Its table holds three kinds of keys. A site key is siteMark, then per
// column the id fixed under a site row, or 0 where the column is live. A
// row key is its site key's entry·2, then its live ids in column order; a
// group key is its first row's site key's entry·2+1, then those of the
// row's live ids among its first n. No id is 0 and no entry number reaches
// 2³¹−1, so no two kinds share a key. A row or group key hashes as the ids
// it stands for, and two under different site keys compare by those ids
// (sameIDs): a column fixed under one site row may be live under another
// and hold the same id.
//
// A hold (compiledSelect.singles; the sqldb README's "Groups of one row")
// keys a row only once a second row shows its group key's hash (held).
type idKeys struct {
	cs     *compiledSelect
	patRow rowRef // the site row fixed is for
	in     interner
	// xlats holds the execution's translations back to back, each where
	// xlatAt says: a live column's THEN arm reads only its data column, so
	// a (column, segment column) translation serves every site row.
	xlats  []uint32
	xlatAt map[xlatKey]int
	live   []int    // the live columns under the site row
	fixed  []uint32 // the site key
	hfix   uint64   // the fixed ids' share of a row key's hash (rowTerm)
	vec    []uint32 // the row key
	gvec   []uint32 // the group key being looked up, of its rows' first n ids
	n      int
	xvec   []uint32 // scratch for expand
	yvec   []uint32
	run    []codeIDs // per live column, its translation when dropRepeats's run is its segment
	tab    idTable
	groups []int32 // the group keys' entries in first-seen order (group)
	// counts: the select is counted (compiledSelect.counted). A row is its
	// own group, and its entry's aux counts every match that yields it,
	// those dropRepeats and add find in the table included.
	counts bool
	// next and pending hand the feed's yields, in order, the entries of
	// the rows the last dropRepeats added; under a hold it opens their
	// groups itself (open).
	next, pending int

	hold  bool
	width int    // the group key's columns: the first width
	nkey  int    // its live ones in the run: the first nkey of live
	ghfix uint64 // its fixed ones' share of its hash
	hmask uint64 // the hash bits kept (DB.narrowKeyHash)
	src   int    // the source dropRepeats keys
	first []firstSlot
	nhash int
	xhash []uint64  // per translation slot, its code's keyHash, 0 until hashed
	runs  []heldRun // the runs rows were held in: a held row is run·segRows+offset
	codes []codeIDs // the runs' translations
	// reps holds, once some id stands for two representations of a
	// number, the first n values of each group opened from the mixed-th on,
	// evaluated on the row that opens it (open).
	reps  []relation.Value
	mixed int
}

// firstSlot is a slot of a hold's first-seen table, open-addressed by
// group key hash: the hash and its held row+1, or keyedMark once its rows
// are keyed; e is 0 while the slot is empty. One slot is the whole probe.
type firstSlot struct {
	h uint64
	e uint32
}

const keyedMark = ^uint32(0)

// heldRun is a run a hold met: its site row, its translations' start in
// codes, and its segment's columns.
type heldRun struct {
	site rowRef
	at   int
	cols []colVec
}

const siteMark = ^uint32(0)

// newIDKeys returns id keys for an execution of cs by the plan instance
// st, sized by st's last execution. The translations' array and their
// index are st's.
func newIDKeys(cs *compiledSelect, st *planState) *idKeys {
	w, sz := len(cs.outs), st.sizes
	k := &idKeys{cs: cs, fixed: make([]uint32, w+1), vec: make([]uint32, 1, w+1), counts: cs.counted, mixed: -1}
	k.fixed[0] = siteMark
	k.tab = newIDTable(sz.entries, sz.words)
	k.tab.same = k.sameIDs
	k.in = interner{slots: make([]idSlot, slotsFor(sz.ids)), kinds: make([]relation.Kind, 0, sz.ids),
		bits: make([]uint64, 0, sz.ids), text: make([]byte, 0, sz.text)}
	k.groups = make([]int32, 0, sz.groups)
	if cs.proj != nil {
		if st.xlatAt == nil {
			st.xlatAt = make(map[xlatKey]int)
		}
		k.xlats, k.xlatAt = st.xlats, st.xlatAt
		if k.hold, k.width = cs.singles > 0, cs.singles; k.hold {
			k.first, k.xhash = make([]firstSlot, slotsFor(sz.firsts)), make([]uint64, 0, sz.hashes)
		}
		return k
	}
	for i := range w {
		k.live = append(k.live, i)
	}
	e, _ := k.tab.insert(k.fixed)
	k.vec[0] = uint32(e) << 1
	return k
}

// release hands st the execution's sizes and its translations' array,
// emptied, and forgets the segments they were for.
func (k *idKeys) release(st *planState) {
	st.dedup = nil
	st.sizes = idSizes{len(k.tab.aux), len(k.tab.keys), len(k.in.kinds), len(k.in.text), len(k.groups), k.nhash, len(k.xhash)}
	clear(k.xlatAt)
	st.xlats = k.xlats[:0]
}

// site re-keys the site row when the bound one is another: the columns
// fixed under it — invariant outputs, and CASEs whose condition fails —
// are interned, the others listed live.
func (k *idKeys) site(en *env) error {
	sp := k.cs.proj
	if sp == nil {
		return nil
	}
	row := &en.frames[sp.site.depth].rows[sp.site.src]
	if k.patRow.same(row) {
		return nil
	}
	k.patRow, k.live, k.hfix, k.ghfix = rowRef{}, k.live[:0], 0, 0 // a mid-refresh error leaves nothing stale
	for i := range sp.parts {
		p := &sp.parts[i]
		live, v := p.mode == projGeneral, p.alt
		var err error
		switch p.mode {
		case projInv:
			v, err = k.cs.outs[i](en)
		case projCase:
			v, err = p.cond(en)
			live, v = v.Truth(), p.alt
		}
		if err != nil {
			return err
		}
		if k.fixed[1+i] = 0; live {
			k.live = append(k.live, i)
		} else {
			k.fixed[1+i] = k.in.id(v)
			k.hfix += rowTerm(i, k.fixed[1+i])
			if i < k.width {
				k.ghfix += keyTerm(i, keyHash(v))
			}
		}
	}
	e, _ := k.tab.insert(k.fixed)
	k.vec[0], k.patRow = uint32(e)<<1, *row
	return nil
}

// coded returns the one column live column i's output is a function of —
// so of its segment code — if it has one.
func (k *idKeys) coded(i int) *binding {
	if k.cs.proj != nil && len(k.cs.proj.parts[i].resCols) == 1 {
		return &k.cs.proj.parts[i].resCols[0]
	}
	return nil
}

// liveID returns live column i's id for the bound row, evaluated: a row
// dropRepeats keys translates its codes instead.
func (k *idKeys) liveID(en *env, i int) (uint32, error) {
	out := k.cs.outs[i]
	if k.cs.proj != nil && k.cs.proj.parts[i].mode == projCase {
		out = k.cs.proj.parts[i].res
	}
	v, err := out(en)
	if err != nil {
		return 0, err
	}
	return k.in.id(v), nil
}

// xlat returns column i's translation of cv's codes, which the execution
// starts empty the first time it meets cv under column i.
func (k *idKeys) xlat(i int, cv *colVec) codeIDs {
	base, ok := k.xlatAt[xlatKey{i, cv}]
	if !ok {
		base = len(k.xlats)
		k.xlatAt[xlatKey{i, cv}] = base
		n := len(cv.dict) + 1
		k.xlats = slices.Grow(k.xlats, n)[:base+n]
		clear(k.xlats[base:])
		if k.hold {
			k.xhash = slices.Grow(k.xhash, n)[:base+n]
			clear(k.xhash[base:])
		}
	}
	return codeIDs{cv, base}
}

// translate evaluates live column i's THEN arm on the bound row, which
// holds code in c's segment column, and records its id: once per code of
// a segment column in an execution. The '@'-blanking arm over a coded
// column — which holds TEXT or NULL, and COALESCE(TOTEXT(·), lit) keeps
// TEXT as it is — is read off the dictionary instead: the code's string,
// or the fallback literal for the NULL code 0.
func (k *idKeys) translate(en *env, i int, c codeIDs, code uint16) (uint32, error) {
	var v relation.Value
	switch p := &k.cs.proj.parts[i]; {
	case p.coalesce && code == 0:
		v = p.nullLit
	case p.coalesce:
		v = relation.Text(c.seg.dict[code-1])
	default:
		var err error
		if v, err = p.res(en); err != nil {
			return 0, err
		}
	}
	id := k.in.id(v)
	k.xlats[c.base+int(code)] = id
	en.work[wCodeTranslations]++
	return id, nil
}

// dropRepeats keys a run's selection vector at the innermost batch level
// of a DISTINCT feed (planLevelBatch), once its kernels and groups have
// filtered it, when an outer level binds the site row and no per-row
// conjunct is left at the level — so every row it keeps yields, once. It
// keeps only the rows new to the table: repeats never reach stepRow. A row
// is bound only to translate a code, or for a column no code decides.
func (k *idKeys) dropRepeats(en *env, st *planState, src int, run *segRun, sel []int) ([]int, error) {
	if err := k.site(en); err != nil {
		return nil, err
	}
	k.src, k.run = src, k.run[:0]
	packs := len(k.live) <= 4 // the run's code tuples fit a word: see runSeen
	for _, i := range k.live {
		var c codeIDs
		if b := k.coded(i); b != nil && b.depth == k.cs.depth && b.src == src && run.column(b.col).codes != nil {
			c = k.xlat(i, run.column(b.col))
		}
		k.run, packs = append(k.run, c), packs && c.seg != nil
	}
	if err := k.holdRun(en, run); err != nil {
		return nil, err
	}
	var seen *runSeen
	if packs {
		if st.memo == nil {
			st.memo = new(runSeen)
		}
		seen = st.memo
		seen.gen++
		if k.counts && seen.ents == nil {
			seen.ents = make([]int32, 2*segRows)
		}
	}
	k.next = len(k.tab.aux)
	out, repeats := sel[:0], 0
	for _, off := range sel {
		slot := -1
		if seen != nil {
			var codes uint64
			for _, c := range k.run {
				codes = codes<<16 | uint64(c.seg.codes[off])
			}
			var repeat bool
			if slot, repeat = seen.add(codes); repeat {
				if k.counts {
					k.tab.aux[seen.ents[slot]]++
				}
				repeats++
				continue
			}
		}
		if held, err := k.held(en, off); err != nil {
			return nil, err
		} else if held {
			continue
		}
		e, added, err := k.key(en, k.run, run.cols, off)
		if err != nil {
			return nil, err
		}
		switch {
		case !added:
			repeats++
		case k.hold: // a held row keyed above took entries between the new ones
			en.frames[k.cs.depth].rows[src] = rowRef{cols: run.cols, off: off}
			if err := k.open(en, e, k.width); err != nil {
				return nil, err
			}
		default:
			out = append(out, off)
		}
		if k.counts && slot >= 0 {
			seen.ents[slot] = int32(e)
		}
	}
	k.pending = len(out)
	en.work[wDistinctKeys] += int64(len(sel))
	en.work[wCodeRepeats] += int64(repeats)
	return out, nil
}

// key keys the row at off of a run whose live columns' translations are
// c, binding it to translate a code or evaluate a column no code decides,
// and returns its entry and whether it is new.
func (k *idKeys) key(en *env, c []codeIDs, cols []colVec, off int) (int, bool, error) {
	vec := k.vec[:1+len(c)]
	h := k.hfix
	for j, c := range c {
		var id uint32
		if c.seg != nil {
			id = k.xlats[c.base+int(c.seg.codes[off])]
		}
		if id == 0 {
			en.frames[k.cs.depth].rows[k.src] = rowRef{cols: cols, off: off}
			var err error
			if c.seg != nil {
				id, err = k.translate(en, k.live[j], c, c.seg.codes[off])
			} else {
				id, err = k.liveID(en, k.live[j])
			}
			if err != nil {
				return 0, false, err
			}
		}
		vec[1+j], h = id, h+rowTerm(k.live[j], id)
	}
	k.vec = vec
	e, added := k.tab.insertHashed(vec, idHash(h, 0))
	if k.counts {
		k.tab.aux[e]++
	}
	return e, added, nil
}

// holdRun lets a hold hold the current run's rows, noting the run, when
// a coded COALESCE(TOTEXT(col), lit) decides each live group key column;
// it ends the hold otherwise.
func (k *idKeys) holdRun(en *env, run *segRun) error {
	if !k.hold {
		return nil
	}
	k.nkey, _ = slices.BinarySearch(k.live, k.width)
	ok := len(k.runs) < int(keyedMark/segRows)-1
	for j, c := range k.run[:k.nkey] {
		ok = ok && c.seg != nil && k.cs.proj.parts[k.live[j]].coalesce
	}
	if !ok {
		return k.unhold(en)
	}
	if n := len(k.runs); n == 0 || !k.runs[n-1].site.same(&k.patRow) || &k.runs[n-1].cols[0] != &run.cols[0] {
		k.runs = append(k.runs, heldRun{k.patRow, len(k.codes), run.cols})
		k.codes = append(k.codes, k.run...)
	}
	return nil
}

// codeHash is the keyHash of what live column i reads off code of c's
// segment column: its string, or the COALESCE literal for NULL's code 0.
func (k *idKeys) codeHash(i int, c codeIDs, code uint16) uint64 {
	h := &k.xhash[c.base+int(code)]
	if *h == 0 {
		v := k.cs.proj.parts[i].nullLit
		if code != 0 {
			v = relation.Text(c.seg.dict[code-1])
		}
		*h = keyHash(v)
	}
	return *h
}

// held holds the current run's row at off under a hold and reports true
// when its group key's hash is new; the hash's second showing keys the
// row held.
func (k *idKeys) held(en *env, off int) (bool, error) {
	if !k.hold {
		return false, nil
	}
	h := k.ghfix
	for j, c := range k.run[:k.nkey] {
		h += keyTerm(k.live[j], k.codeHash(k.live[j], c, c.seg.codes[off]))
	}
	h &= k.hmask
	if 2*k.nhash >= len(k.first) {
		old := k.first
		k.first = make([]firstSlot, 2*len(old))
		for _, s := range old {
			if s.e != 0 {
				*k.slot(s.h) = s
			}
		}
	}
	switch s := k.slot(h); s.e {
	case 0:
		s.h, s.e = h, uint32((len(k.runs)-1)*segRows+off)+1
		k.nhash++
		en.work[wSingletonRows]++
		return true, nil
	case keyedMark:
		return false, nil
	default:
		x := s.e - 1
		s.e = keyedMark
		return false, k.keyHeld(en, x)
	}
}

// slot returns hash h's slot in the first-seen table, or the empty one it
// would take.
func (k *idKeys) slot(h uint64) *firstSlot {
	mask := uint64(len(k.first) - 1)
	for i := h >> 32 & mask; ; i = (i + 1) & mask {
		if s := &k.first[i]; s.e == 0 || s.h == h {
			return s
		}
	}
}

// keyHeld keys held row x, bound with its site row as the feed bound
// them, opens its group if it is new, and binds back what it found.
func (k *idKeys) keyHeld(en *env, x uint32) error {
	en.work[wSingletonRows]--
	r, off := &k.runs[x/segRows], int(x%segRows)
	sp := k.cs.proj
	site, row := &en.frames[sp.site.depth].rows[sp.site.src], &en.frames[k.cs.depth].rows[k.src]
	was, wasRow := *site, *row
	*site, *row = r.site, rowRef{cols: r.cols, off: off}
	e, added, err := 0, false, k.site(en)
	if err == nil {
		e, added, err = k.key(en, k.codes[r.at:r.at+len(k.live)], r.cols, off)
	}
	if err == nil && added {
		err = k.open(en, e, k.width)
	}
	if *site, *row = was, wasRow; err == nil {
		err = k.site(en)
	}
	return err
}

// unhold keys every held row, in the order they were held; no more are.
func (k *idKeys) unhold(en *env) error {
	k.hold = false
	var held []uint32
	for _, s := range k.first {
		if s.e != 0 && s.e != keyedMark {
			held = append(held, s.e-1)
		}
	}
	slices.Sort(held)
	for _, x := range held {
		if err := k.keyHeld(en, x); err != nil {
			return err
		}
	}
	return nil
}

// runSeen is the set of the code tuples a run has shown, packed: within a
// run and a site row one code tuple is one row, already keyed, so a later
// row showing it is dropped without its ids — most of the ~23 000 rows an
// update's Aux recompute keys at 40 000 rows. Open addressing over twice
// a run's rows, emptied by bumping gen; a plan instance keeps one. A
// counted feed's keeps each tuple's entry in the id table too (ents), for
// its repeats to count in.
type runSeen struct {
	gen        uint64
	keys, gens [2 * segRows]uint64
	ents       []int32
}

// add returns codes' slot and whether the run showed them already,
// adding them if not.
func (m *runSeen) add(codes uint64) (int, bool) {
	for i := codes * 0x9e3779b97f4a7c15 >> 32 % (2 * segRows); ; i = (i + 1) % (2 * segRows) {
		if m.gens[i] != m.gen {
			m.keys[i], m.gens[i] = codes, m.gen
			return int(i), false
		}
		if m.keys[i] == codes {
			return int(i), true
		}
	}
}

// add returns the bound row's entry and whether it is new: the one
// dropRepeats added for it, or a lookup of its own.
func (k *idKeys) add(en *env) (int, bool, error) {
	if k.pending > 0 {
		k.next, k.pending = k.next+1, k.pending-1
		return k.next - 1, true, nil
	}
	if k.hold {
		if err := k.unhold(en); err != nil {
			return 0, false, err
		}
	}
	if err := k.site(en); err != nil {
		return 0, false, err
	}
	k.vec = k.vec[:1]
	h := k.hfix
	for _, i := range k.live {
		id, err := k.liveID(en, i)
		if err != nil {
			return 0, false, err
		}
		k.vec, h = append(k.vec, id), h+rowTerm(i, id)
	}
	en.work[wDistinctKeys]++
	e, added := k.tab.insertHashed(k.vec, idHash(h, 0))
	if k.counts {
		k.tab.aux[e]++
	}
	return e, added, nil
}

// decode writes row or group entry e's first len(dst) columns into dst
// from its ids, which is exact for an entry added while every id stood
// for one representation (interner.mixed).
func (k *idKeys) decode(e int, dst relation.Tuple) {
	k.xvec = k.expand(k.xvec[:0], k.tab.key(e), len(dst))
	for i, id := range k.xvec {
		dst[i] = k.in.value(id)
	}
}

// group counts row entry e in its group — the rows agreeing on its first
// n ids — and reports whether e opened it. A group is its key's entry,
// listed in groups, and its rows, counted in the entry's aux. A counted
// feed's row is its own group, counted as it is found.
func (k *idKeys) group(e, n int) bool {
	if k.counts {
		k.groups = append(k.groups, int32(e))
		return true
	}
	r, live, h := k.tab.key(e), 0, uint64(0)
	for i, id := range k.tab.key(int(r[0] >> 1))[1 : 1+n] {
		if id == 0 {
			id, live = r[1+live], live+1
		}
		h += rowTerm(i, id)
	}
	k.gvec, k.n = append(append(k.gvec[:0], r[0]|1), r[1:1+live]...), n
	ge, added := k.tab.insertHashed(k.gvec, idHash(h, 0))
	if added {
		k.groups = append(k.groups, int32(ge))
	}
	k.tab.aux[ge]++
	return added
}

// open is group for a streamed grouping, which counts its groups; once
// some id stands for two representations of a number, a group it opens
// keeps the bound row's first n values (reps), which decode cannot give.
func (k *idKeys) open(en *env, e, n int) error {
	if !k.group(e, n) {
		return nil
	}
	en.work[wGroups]++
	if !k.in.mixed {
		return nil
	}
	if k.mixed < 0 {
		k.mixed = len(k.groups) - 1
	}
	k.reps = append(k.reps, make([]relation.Value, n)...)
	return k.cs.evalOuts(en, k.reps[len(k.reps)-n:])
}

// expand appends the first n ids row key r stands for to dst.
func (k *idKeys) expand(dst, r []uint32, n int) []uint32 {
	live := r[1:]
	for _, id := range k.tab.key(int(r[0] >> 1))[1 : 1+n] {
		if id == 0 {
			id, live = live[0], live[1:]
		}
		dst = append(dst, id)
	}
	return dst
}

// sameIDs reports whether the row keys, or the group keys, a and b stand
// for the same ids under different site keys.
func (k *idKeys) sameIDs(a, b []uint32) bool {
	if a[0] == b[0] || a[0] == siteMark || b[0] == siteMark || (a[0]^b[0])&1 != 0 {
		return false
	}
	n := len(k.fixed) - 1
	if a[0]&1 != 0 {
		n = k.n
	}
	k.xvec, k.yvec = k.expand(k.xvec[:0], a, n), k.expand(k.yvec[:0], b, n)
	return slices.Equal(k.xvec, k.yvec)
}

// rowTerm is column i's share, with id, of a row or group key's hash: the
// sum over its columns, fixed and live alike.
func rowTerm(i int, id uint32) uint64 { return (uint64(id)<<32 | uint64(i)) * 0xbf58476d1ce4e5b9 }

// idTable is an open-addressed set of id vectors, numbered in insertion
// order, with one int32 per entry for the caller.
type idTable struct {
	keys  []uint32 // entry e is keys[at[e]:at[e+1]]
	at    []int32
	aux   []int32
	slots []idSlot                 // a power of two, under half full
	same  func(a, b []uint32) bool // unequal keys that are one entry
}

// idSlot is a slot of an open-addressed table whose size is a power of
// two, kept under half full.
type idSlot struct {
	h, e uint32 // the key's hash and entry+1 (an id); e is 0 when the slot is empty
}

// growSlots doubles a slot table.
func growSlots(old []idSlot) []idSlot {
	slots, mask := make([]idSlot, 2*len(old)), uint32(2*len(old)-1)
	for _, s := range old {
		for i := s.h; s.e != 0; i++ {
			if slots[i&mask].e == 0 {
				slots[i&mask] = s
				break
			}
		}
	}
	return slots
}

func (t *idTable) key(e int) []uint32 { return t.keys[t.at[e]:t.at[e+1]] }

// idHash folds id into a vector's hash, which starts at its length.
func idHash(h uint64, id uint32) uint64 { return (h ^ uint64(id)) * 0x9e3779b97f4a7c15 }

// newIDTable returns a table sized for entries entries of words ids in
// all.
func newIDTable(entries, words int) idTable {
	return idTable{slots: make([]idSlot, slotsFor(entries)), keys: make([]uint32, 0, words),
		at: append(make([]int32, 0, entries+1), 0), aux: make([]int32, 0, entries)}
}

// insert returns vec's entry, adding a copy if it is new.
func (t *idTable) insert(vec []uint32) (int, bool) {
	h := uint64(len(vec))
	for _, x := range vec {
		h = idHash(h, x)
	}
	return t.insertHashed(vec, h)
}

// insertHashed is insert with vec's hash.
func (t *idTable) insertHashed(vec []uint32, h uint64) (int, bool) {
	if 2*len(t.aux) >= len(t.slots) {
		t.slots = growSlots(t.slots)
	}
	mask := uint32(len(t.slots) - 1)
	for i := uint32(h>>32) & mask; ; i = (i + 1) & mask {
		s := &t.slots[i]
		if e := int(s.e) - 1; s.e != 0 && s.h == uint32(h>>32) && (slices.Equal(t.key(e), vec) || t.same != nil && t.same(t.key(e), vec)) {
			return e, false
		} else if s.e == 0 {
			e = len(t.aux)
			s.h, s.e = uint32(h>>32), uint32(e+1)
			t.keys = append(t.keys, vec...)
			t.aux, t.at = append(t.aux, 0), append(t.at, int32(len(t.keys)))
			return e, true
		}
	}
}
