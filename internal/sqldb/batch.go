package sqldb

import (
	"fmt"
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
// groups, subquery probes, cross-column arithmetic — stays on the
// compiledExpr path, so semantics never change; the kernels are an
// exact, not a conservative, evaluation of the conjuncts they consume
// (verified by the three-way differential oracle).
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
	wInt   bool    // w is integer-like: the compare loop takes the int path
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
// row offsets into colv, the current segment's vector of the kernel's
// column, and the survivors are returned as a prefix of sel's storage.
// Their relative order is preserved, so kernel filtering composes with
// range-pruned and order-served scans.
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
			v := colv[ri]
			if v.K == relation.KindNull {
				continue
			}
			var eq bool
			if b.wInt && (v.K == relation.KindInt || v.K == relation.KindBool) {
				eq = v.I == b.w.I
			} else {
				eq = relation.Equal(v, b.w)
			}
			if eq == want {
				out = append(out, ri)
			}
		}
	default: // kernLT, kernLE, kernGT, kernGE
		for _, ri := range sel {
			v := colv[ri]
			if v.K == relation.KindNull {
				continue
			}
			var res bool
			if b.wInt && (v.K == relation.KindInt || v.K == relation.KindBool) {
				switch k.op {
				case kernLT:
					res = v.I < b.w.I
				case kernLE:
					res = v.I <= b.w.I
				case kernGT:
					res = v.I > b.w.I
				case kernGE:
					res = v.I >= b.w.I
				}
			} else {
				c := relation.Compare(v, b.w)
				switch k.op {
				case kernLT:
					res = c < 0
				case kernLE:
					res = c <= 0
				case kernGT:
					res = c > 0
				case kernGE:
					res = c >= 0
				}
			}
			if res {
				out = append(out, ri)
			}
		}
	}
	return out
}

// filterRun is filter over the run's column of the kernel. Over a coded
// column it runs the unchanged filter — so every op keeps its semantics
// by construction — on decoded strings: of the whole dictionary when that
// is smaller than the selection, each row then decided by its code, else
// of the selected rows. Either way it decodes into 64-value chunks on the
// stack, so an instance keeps no string of the epoch it read.
func (k *kernelPred) filterRun(en *env, run *segRun, b *kernBind, sel []int) []int {
	cv := run.column(k.col)
	if cv.codes == nil {
		return k.filter(cv.vals, b, sel)
	}
	var dec [64]relation.Value
	var at [64]int
	byCode, items := len(cv.dict) < len(sel), len(sel)
	if byCode {
		items = len(cv.dict) + 1
		b.byCode = append(b.byCode[:0], make([]uint8, items)...)
	}
	en.work[wTextLookups] += int64(items)
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
// classes. Semantics mirror the closure path exactly — same build set
// or index, same key encoding, NULL key parts never match.
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
	if err := c.walkBindings(cse.Whens[0].Cond, func(b binding) {
		if b.depth == depth {
			cm |= 1 << uint(b.src)
		}
	}); err != nil || cm&bit != 0 {
		return false
	}
	cond, err := c.compileExpr(cse.Whens[0].Cond)
	if err != nil {
		return false
	}
	p.kind, p.cond, p.alt = pkCase, cond, cse.Else.(*Literal).Val
	res := cse.Whens[0].Result
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

// textCoalesceCol matches COALESCE(TOTEXT(col), lit) / IFNULL(...) over
// a column of the given source — the Qmv macro's NULL-marking idiom —
// returning the column and the fallback literal.
func (c *compiler) textCoalesceCol(e Expr, depth, src int) (int, relation.Value, bool) {
	fc, ok := e.(*FuncCall)
	if !ok || (fc.Name != "COALESCE" && fc.Name != "IFNULL") || len(fc.Args) != 2 {
		return 0, relation.Value{}, false
	}
	tt, ok := fc.Args[0].(*FuncCall)
	if !ok || tt.Name != "TOTEXT" || len(tt.Args) != 1 {
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
	// still encoded per row.
	pfx     []byte
	tail    []int
	pfxVals []relation.Value
	// vs is the value-set prefilter (bindSets), nil until an entry builds
	// one: most instances never do, and pay one word for it.
	vs *probeSets
}

// probeSets is the value-set state of a probe instance: parts lists the
// per-row key parts of the current entry — empty when the entry probes
// every candidate exactly — sets[i] holds the values part i can take in
// a matching probe-side row, and hits is the NOT EXISTS scratch.
type probeSets struct {
	parts []int
	sets  []valueSet
	hits  []int
}

// The value-set thresholds: an entry builds sets when its level is about
// to filter at least probeSetMinCands candidates and at most
// probeSetRowsMax probe-side rows have to be walked for them. Measured on
// 40 000 rows of gen data under gen.Constraints (8+8 updates touch ~28
// keys, 64+64 ~170; Aux holds 130 rows), interleaved with the parent:
//
//   - probeSetMinCands: the walk is paid per entry, so the entry's
//     candidates have to pay it back. Detector.Check enters these probes
//     once per (staged tuple, pattern) over the 13 pattern rows: with no
//     floor serve_check_10k allocated 1.3 % more per request in 3 runs of
//     3 and gained nothing (a cruder prototype lost 6.6 % p50 there). A
//     few selection vectors is above every staging table and below every
//     data scan.
//   - probeSetRowsMax: at 64 the 8+8 update already ran at 0.45× the
//     parent, but the 64+64 update and every Aux probe stayed exact; 256
//     took that update's recompute from 30–50 ms to 21–23 ms and
//     BatchDetect's MV update from 5 to 1.9 ms. Walking 256 rows costs
//     microseconds against ≥ 4096 exact probes at ~100 ns.
//   - probeTextScanMax: over 40 000 five-character values a == scan took
//     0.40 / 0.55 / 1.4 / 2.0 / 6.8 ms at 1 / 2 / 4 / 8 / 24 members, a
//     map on the raw text 0.75–1.1 ms at any size. They decide a coded
//     run's dictionary strings, or its rows where they are fewer.
//   - probeScanSetMax: numbers have no raw form to hash, so they scan
//     with Identical up to the size the exact probe wins back.
//   - probePostingsDiv: a whole run's selection comes from the members'
//     postings when they hold at most 1/probePostingsDiv of its rows, else
//     from a bit test per row. On a sealed 1024-row run (2-CPU Intel Xeon)
//     postings took 0.8–1.3 µs for a quarter of it and 1.6–2.6 µs for
//     half, the bit test 2.3–3.8 µs for either. At ½ the recompute's ITEM
//     keys (a third of each run) read postings too: 0.20·|D| cells tested
//     a warm 8+8 update at 40 000 rows, not 1.20·|D|.
const (
	probeScanSetMax  = 24
	probeTextScanMax = 4
	probeSetRowsMax  = 256
	probeSetMinCands = 4 * batchChunk
	probePostingsDiv = 2
)

// valueSet is the set of distinct values (never NULL, never NaN) one
// key column takes among the probe-side rows that agree with an entry's
// constant key parts. Membership is Identical — what the key encoding
// and the ordered index implement — and TEXT never is Identical to a
// number, so the two kinds are kept apart: text compares on the raw
// string, no encoding.
type valueSet struct {
	texts  []string // every text member
	nums   []relation.Value
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
	s.texts, s.nums, s.maskOf = s.texts[:0], s.nums[:0], nil
	if s.hashed {
		clear(s.m)
		s.hashed = false
	}
}

// add inserts a non-NULL value. It reports false when the set would
// need more than probeScanSetMax numeric members: those only scan
// linearly, and past that size the exact probe is cheaper.
func (s *valueSet) add(v relation.Value) bool {
	if s.has(v) {
		return true
	}
	if v.K != relation.KindText {
		s.nums = append(s.nums, v)
		return len(s.nums) <= probeScanSetMax
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

// has reports whether v is a member. A NULL or NaN is a member of
// nothing.
func (s *valueSet) has(v relation.Value) bool {
	switch {
	case v.K == relation.KindText && s.hashed:
		_, in := s.m[v.S]
		return in
	case v.K == relation.KindText:
		return slices.Contains(s.texts, v.S)
	case v.K != relation.KindNull:
		return slices.ContainsFunc(s.nums, func(w relation.Value) bool { return relation.Identical(v, w) })
	}
	return false
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

// newOrGroupK builds the group instance for conjunct ci consumed at
// the level scanning source s.
func newOrGroupK(pc *planConjunct, ci, s int) *orGroupK {
	bit := srcMask(1) << uint(s)
	g := &orGroupK{conj: ci, nTerms: len(pc.terms)}
	for _, t := range pc.terms {
		tm := orTermK{}
		for _, p := range t.parts {
			if p.srcs&bit == 0 {
				tm.binds = append(tm.binds, p.ex)
				continue
			}
			tm.preds = append(tm.preds, newPredInst(kpFor(p.kp, s)))
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

// bindTerm evaluates one alternative's invariant parts and kernel
// binds for the current entry. Called only when candidate rows reach
// the alternative.
func (g *orGroupK) bindTerm(en *env, tm *orTermK) error {
	tm.bound, tm.live, tm.always = true, true, true
	for _, ex := range tm.binds {
		v, err := ex(en)
		if err != nil {
			return err
		}
		if !v.Truth() {
			tm.live = false
			return nil
		}
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
		// row, exactly like the closure's check (probeKey.eval).
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
	// Sets first: an entry they answer on their own — constant, or a
	// single per-row part — never consults the index or the hash build,
	// so it does not resolve (build, refresh) one either.
	inner := en.td(k.d.t)
	sets := cands >= probeSetMinCands && k.setsOK()
	if sets && inner.n <= probeSetRowsMax {
		pb.bindSets(&inner.rowSet, nil, inner.n, state)
		if *state != pNormal || len(pb.vs.parts) == 1 {
			return nil
		}
		sets = false
	}
	if k.d.idx == nil {
		hb, err := k.d.ensureHash(en)
		if err != nil {
			return err
		}
		pb.set = hb.set
		return nil
	}
	pb.eq = inner.lookupEq(k.d.t, k.d.idx)
	if pb.eq.ordered() {
		// The ordered path searches only below the constant prefix.
		pb.eq.s = pb.eq.within(pb.eq.s, 0, pb.pfxVals)
	}
	if sets && len(pb.pfxVals) > 0 {
		// Too many rows to walk, but the entry's constants lead the index
		// order: the rows below that prefix are the only ones that can
		// agree with them.
		pos := pb.eq.s
		if !pb.eq.ordered() {
			pos = eqRange(&inner.rowSet, k.d.idx.Cols, inner.orderedOf(k.d.t, k.d.idx), 0, pb.pfxVals)
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
				vs.parts = vs.parts[:0] // too wide to scan: probe exactly
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
	case vs == nil || len(vs.parts) == 0:
		return pb.probeExact(en, cs, src, run, sel, k.neg)
	case len(vs.parts) == 1:
		i := vs.parts[0]
		return vs.sets[i].filter(en, &k.parts[i], &pb.colvs[i], sel, !k.neg, run.whole), nil
	}
	// Several per-row parts: the sets bound the hits from above, the
	// exact probe settles the candidates inside all of them. Over a whole
	// run the part whose postings hold the fewest rows filters first.
	hits := sel
	if k.neg {
		hits = append(vs.hits[:0], sel...)
	}
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
	hits, err := pb.probeExact(en, cs, src, run, hits, false)
	if err != nil || !k.neg {
		return hits, err
	}
	// NOT EXISTS keeps everything but the hits, an ordered subsequence.
	vs.hits = hits[:0]
	out := sel[:0]
	for _, ri := range sel {
		if len(hits) > 0 && hits[0] == ri {
			hits = hits[1:]
			continue
		}
		out = append(out, ri)
	}
	return out, nil
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
		for _, i := range pb.tail {
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
			if ordered {
				pb.tailVals = append(pb.tailVals, v)
				continue
			}
			key = relation.AppendKey(key, v)
		}
		pb.keyBuf = key
		var hit bool
		switch {
		case ordered:
			hit = len(pb.eq.within(pb.eq.s, len(pb.pfxVals), pb.tailVals)) > 0
		case k.d.idx != nil:
			// Per-probe locking inside probe(): no structure lock is held
			// across the surrounding closure evaluations.
			hit = len(pb.eq.probeKey(key)) > 0
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
// output expression once at compile time — pattern-invariant, split
// CASE, or general — and the emit path then re-evaluates per row only
// the THEN projections of the few attributes the current pattern
// actually constrains; everything else replays from a per-pattern
// cache keyed on the site row's identity. Semantics are unchanged
// (the same sub-closures run, just not per row); the differential
// oracle pins this, with the nested-loop leg evaluating the plain
// outs closures as the independent reference.

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
	// resCols are the current-scope columns the THEN arm reads — the
	// raw inputs of this output when its condition holds. Feeds the
	// DISTINCT pre-dedup key (preKeyOK).
	resCols []binding
}

// projSpec is the compiled projection plan of one select.
type projSpec struct {
	site  binding
	parts []projPart
	// preKeyOK gates the raw-value DISTINCT pre-filter: every output is
	// site-invariant or a split CASE whose THEN arm reads a known set
	// of current-scope columns (resCols), so for a fixed site row the
	// output row is a pure function of the raw values in the *active*
	// parts' columns (condition-false parts collapse to their literal).
	// Two emits with the same site row and identical active raw values
	// therefore produce byte-identical output rows, and the second is
	// skipped before evaluating or hashing a single output.
	preKeyOK bool
}

// projScratch is the per-env, per-select projection cache.
type projScratch struct {
	patRow   rowRef // site row the cache was computed for
	condBits uint64 // bit i: part i's CASE condition held
	invVals  []relation.Value
	// siteSeq distinguishes site rows in the raw pre-dedup key: it
	// bumps on every site-row refresh, so raw keys never collide across
	// pattern tuples (a revisited site row gets a fresh sequence, which
	// only costs pre-filter hits, never correctness — the exact
	// output-key dedup still runs behind the pre-filter). The seen-set
	// itself lives in exec, scoped to one execution: a correlated
	// subquery re-executing in the same env must not suppress rows its
	// previous execution emitted.
	siteSeq uint64
	rawBuf  []byte
	// cols are the columns the active parts read under the current site
	// row, listed when it is refreshed; src is their source if they share
	// one and are all declared TEXT — so coded in its segments — else -1.
	cols []binding
	src  int
}

// preMemo is dropRepeats' memo of the packed code tuples seen under one
// site row in one run: open addressing over memoSlots slots, at most half
// of which a run's ≤ segRows rows fill, emptied by bumping gen: a run may
// be one row long, and a memo that cost a sweep to empty would cost more
// than it saves.
type preMemo struct {
	gen  uint64
	keys []uint64
	gens []uint64
}

const memoBits = 11
const memoSlots = 1 << memoBits // ≥ 2·segRows

// emptyMemo returns the instance's memo, emptied.
func (st *planState) emptyMemo() *preMemo {
	m := st.memo
	if m == nil {
		m = &preMemo{keys: make([]uint64, memoSlots), gens: make([]uint64, memoSlots)}
		st.memo = m
	}
	m.gen++
	return m
}

// add reports whether key is in the memo, adding it if not. A full memo
// — no run fills one — answers no: the string key decides instead.
func (m *preMemo) add(key uint64) bool {
	i := (key * 0x9e3779b97f4a7c15) >> (64 - memoBits)
	for range memoSlots {
		if m.gens[i] != m.gen {
			m.keys[i], m.gens[i] = key, m.gen
			return false
		}
		if m.keys[i] == key {
			return true
		}
		i = (i + 1) & (memoSlots - 1)
	}
	return false
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
		site, ok := c.singleSite(cse.Whens[0].Cond, depth+1)
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
	sp.preKeyOK = true
	resCols := func(e Expr) ([]binding, bool) {
		if exprHasSubquery(e) {
			return nil, false
		}
		var cols []binding
		ok := true
		if err := c.walkBindings(e, func(b binding) {
			if b.depth != depth {
				ok = false // outer reads vary across re-executions
				return
			}
			cols = append(cols, b)
		}); err != nil || !ok {
			return nil, false
		}
		return cols, true
	}
	for i, e := range astOuts {
		if e == nil {
			sp.preKeyOK = false // star expansion stays general
			continue
		}
		if sc.adopt(e) {
			sp.parts[i].mode = projInv
			useful = true
			continue
		}
		cond, res, alt, ok, err := sc.splitCase(e)
		if err != nil || !ok {
			sp.preKeyOK = false // general outputs defeat the raw pre-key
			continue            // an uncompilable half just stays general
		}
		cse, _ := cacheableCase(e)
		cols, colsOK := resCols(cse.Whens[0].Result)
		if !colsOK {
			sp.preKeyOK = false
		}
		sp.parts[i] = projPart{mode: projCase, cond: cond, res: res, alt: alt, resCols: cols}
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

// scratch returns the env's projection cache for cs.
func (sp *projSpec) scratch(en *env, cs *compiledSelect) *projScratch {
	ps := en.projs[cs]
	if ps == nil {
		if en.projs == nil {
			en.projs = make(map[*compiledSelect]*projScratch)
		}
		ps = &projScratch{invVals: make([]relation.Value, len(sp.parts))}
		en.projs[cs] = ps
	}
	return ps
}

// refreshSite recomputes the per-site-row cache when the site row has
// changed since the previous emit: invariant outputs re-evaluate, CASE
// conditions re-test, and the raw pre-dedup sequence advances so keys
// from different site rows can never collide.
func (sp *projSpec) refreshSite(en *env, cs *compiledSelect, ps *projScratch) error {
	row := &en.frames[sp.site.depth].rows[sp.site.src]
	if ps.patRow.same(row) {
		return nil
	}
	ps.patRow = rowRef{} // a mid-refresh error must not leave stale state
	ps.condBits = 0
	ps.siteSeq++
	for i := range sp.parts {
		p := &sp.parts[i]
		switch p.mode {
		case projInv:
			v, err := cs.outs[i](en)
			if err != nil {
				return err
			}
			ps.invVals[i] = v
		case projCase:
			cv, err := p.cond(en)
			if err != nil {
				return err
			}
			if cv.Truth() {
				ps.condBits |= 1 << uint(i)
			}
		}
	}
	// Only *active* parts read their columns: a condition-false CASE
	// collapses to its literal and depends on no row value, so the
	// blanked attributes stay out of the pre-dedup key — this is what
	// keeps it a few columns wide per pattern tuple.
	ps.cols, ps.src = ps.cols[:0], -1
	for i := range sp.parts {
		if p := &sp.parts[i]; p.mode == projCase && ps.condBits&(1<<uint(i)) != 0 {
			ps.cols = append(ps.cols, p.resCols...)
		}
	}
	for j, b := range ps.cols {
		if t := cs.sources[b.src].table; j > 0 && b.src != ps.src || t == nil || t.Schema.Attrs[b.col].Kind != relation.KindText {
			ps.src = -1
			break
		}
		ps.src = b.src
	}
	ps.patRow = *row
	return nil
}

// dropRepeats is the pre-filter's code stage. The innermost batch level
// of a DISTINCT feed (planLevelBatch) runs it on a run's selection vector
// once its kernels and groups have filtered it, when an outer level binds
// the site row and no per-row conjunct is left at the level — so every
// row it keeps yields. When the active columns are at most four coded
// columns of the level's source, their codes packed in a uint64 decide
// repeats: within one site row and one run, the same code tuple is the
// same raw values, so a row whose tuple an earlier row of the run holds
// is dropped, and only first occurrences reach stepRow and preDedup's
// string key, which keeps hits across runs exact.
func (sp *projSpec) dropRepeats(en *env, cs *compiledSelect, ps *projScratch, st *planState, src int, run *segRun, sel []int) ([]int, error) {
	if err := sp.refreshSite(en, cs, ps); err != nil {
		return nil, err
	}
	if ps.src != src || len(ps.cols) > 4 {
		return sel, nil
	}
	var codes [4][]uint16
	for j, b := range ps.cols {
		codes[j] = run.column(b.col).codes
	}
	m := st.emptyMemo()
	out := sel[:0]
	for _, off := range sel {
		var key uint64
		for j := range ps.cols {
			key = key<<16 | uint64(codes[j][off])
		}
		if !m.add(key) {
			out = append(out, off)
		}
	}
	en.work[wCodeRepeats] += int64(len(sel) - len(out))
	return out, nil
}

// preDedup reports whether the current emit's output row is provably
// identical to one already emitted in this execution: same site row,
// same raw values in every column the outputs read. Sound because the
// outputs are pure functions of exactly those inputs (preKeyOK); the
// exact output-key dedup still runs behind this filter, so a false
// negative only costs one full evaluation, never a duplicate row. seen
// is owned by the caller and must be scoped to one execution. Repeats
// within a run are mostly gone before this: dropRepeats.
func (sp *projSpec) preDedup(en *env, cs *compiledSelect, ps *projScratch, seen map[string]bool) (bool, error) {
	if err := sp.refreshSite(en, cs, ps); err != nil {
		return false, err
	}
	buf := ps.rawBuf[:0]
	seq := ps.siteSeq
	buf = append(buf, byte(seq), byte(seq>>8), byte(seq>>16), byte(seq>>24),
		byte(seq>>32), byte(seq>>40), byte(seq>>48), byte(seq>>56))
	fr := en.frames[cs.depth]
	for _, b := range ps.cols {
		buf = relation.AppendKey(buf, fr.rows[b.src].at(b.col))
	}
	ps.rawBuf = buf
	en.work[wDistinctKeys]++
	if seen[string(buf)] {
		return true, nil
	}
	seen[string(buf)] = true
	return false, nil
}

// evalOuts evaluates the output row into dst, replaying the
// site-invariant parts from the cache when the site row is unchanged
// since the previous emit.
func (sp *projSpec) evalOuts(en *env, cs *compiledSelect, ps *projScratch, dst relation.Tuple) error {
	if err := sp.refreshSite(en, cs, ps); err != nil {
		return err
	}
	for i := range sp.parts {
		p := &sp.parts[i]
		switch p.mode {
		case projInv:
			dst[i] = ps.invVals[i]
		case projCase:
			if ps.condBits&(1<<uint(i)) != 0 {
				v, err := p.res(en)
				if err != nil {
					return err
				}
				dst[i] = v
			} else {
				dst[i] = p.alt
			}
		default:
			v, err := cs.outs[i](en)
			if err != nil {
				return err
			}
			dst[i] = v
		}
	}
	return nil
}
