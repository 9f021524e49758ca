package detect

import (
	"fmt"
	"strings"
)

// generateSQL builds the fixed statement set. The statements depend
// only on the schema R — never on Σ, the number of pattern tuples or
// the set sizes, which all live in data tables (the paper's key idea:
// "treat pattern tableaux as data tables, rather than as meta-data").
func (d *Detector) generateSQL() {
	d.stmts = statements{
		qsvSelect:    d.genQsvSelect(),
		qsvUpdate:    d.genQsvUpdate(),
		qmvInsert:    d.genQmvInsert(),
		mvUpdate:     d.genMVUpdate(),
		resetFlags:   d.genResetFlags(),
		keysFromIns:  d.genKeysFromIns(),
		keysFromDel:  d.genKeysFromDel(),
		auxDeleteAff: d.genAuxDeleteAffected(),
		repDeleteAff: d.genRepDeleteAffected(),
		auxSaveOld:   d.genAuxSaveOld(),
		auxNewComp:   d.genAuxNewCompute(),
		stageRecomp:  d.genStageRecompute(),
		auxRecompute: d.genAuxRecompute(),
		repRecompute: d.genRepRecompute(),
		mvSetNew:     d.genMVSetNewRows(),
		mvSetOld:     d.genMVSetOldRows(),
		mvClear:      d.genMVClear(),
		svOnIns:      d.genSVUpdate(d.insTable),
		mergeIns:     fmt.Sprintf("INSERT INTO %s SELECT * FROM %s", d.dataTable, d.insTable),
		deleteRows: fmt.Sprintf("DELETE FROM %s t WHERE t.%s IN (SELECT d.%s FROM %s d)",
			d.dataTable, ColRID, ColRID, d.delTable),
		delExisting: fmt.Sprintf("SELECT COUNT(*) FROM %s d, %s t WHERE t.%s = d.%s",
			d.delTable, d.dataTable, ColRID, ColRID),
		checkSVRIDs: d.genCheckSVRIDs(),
		checkMVRIDs: d.genCheckMVRIDs(),
	}
	// The batch-detection pipeline: the six fixed statements of
	// BatchDetect as one script, submitted in a single driver round
	// trip. The statement set stays fixed and Σ-independent; only the
	// packaging changes.
	d.stmts.batchScript = strings.Join([]string{
		d.stmts.resetFlags,
		d.stmts.qsvUpdate,
		"TRUNCATE TABLE " + d.auxTable,
		"TRUNCATE TABLE " + d.repTable,
		d.stmts.qmvInsert,
		d.stmts.mvUpdate,
	}, ";\n")
	// The incremental-maintenance pipeline (§V-B steps): parameter
	// placeholders index through the script in order, so the two
	// RID-threshold parameters (mvSetNew, mvSetOld) bind as ?1 and ?2.
	d.stmts.incStmts = []string{
		d.stmts.svOnIns,
		"TRUNCATE TABLE " + d.keysTable,
		d.stmts.keysFromDel, // before the doomed rows disappear
		d.stmts.keysFromIns,
		"TRUNCATE TABLE " + d.auxOldTable,
		d.stmts.auxSaveOld,
		d.stmts.auxDeleteAff,
		d.stmts.repDeleteAff,
		d.stmts.deleteRows,
		d.stmts.mergeIns,
		"TRUNCATE TABLE " + d.stageTable,
		d.stmts.stageRecomp,
		d.stmts.auxRecompute,
		d.stmts.repRecompute,
		"TRUNCATE TABLE " + d.auxNewTable,
		d.stmts.auxNewComp,
		d.stmts.mvSetNew,
		d.stmts.mvSetOld,
		d.stmts.mvClear,
	}
	d.stmts.incScript = strings.Join(d.stmts.incStmts, ";\n")
}

// genResetFlags clears both flags before batch detection, matching only
// the rows that carry one. That is exact: Install declares both flags
// INTEGER, LoadData writes 0, and only the detector writes them, 0 or 1,
// so a row matched by neither disjunct already reads 0, 0. Nothing reads
// the script's rows-affected count.
func (d *Detector) genResetFlags() string {
	return fmt.Sprintf("UPDATE %s SET %s = 0, %s = 0 WHERE %s = 1 OR %s = 1", d.dataTable, ColSV, ColMV, ColSV, ColMV)
}

// SQL returns the generated batch-detection queries (Qsv select form,
// SV update, Qmv insert, MV update) for inspection and testing.
func (d *Detector) SQL() (qsvSelect, qsvUpdate, qmvInsert, mvUpdate string) {
	return d.stmts.qsvSelect, d.stmts.qsvUpdate, d.stmts.qmvInsert, d.stmts.mvUpdate
}

// IncrementalSQL returns the statements of the incremental-maintenance
// script in execution order, for inspection and testing. The two '?'
// placeholders (mvSetNew, mvSetOld) both bind the first RID of ΔD⁺.
func (d *Detector) IncrementalSQL() []string {
	return append([]string(nil), d.stmts.incStmts...)
}

// setProbe renders EXISTS (or NOT EXISTS) over a pattern-set table:
// "does t's A-value belong to the CID's set?" — the QA subqueries of
// Fig. 4, applied to the encoding tables only, never to the data.
func (d *Detector) setProbe(not bool, table, attr string) string {
	op := "EXISTS"
	if not {
		op = "NOT EXISTS"
	}
	return fmt.Sprintf("%s (SELECT 1 FROM %s s WHERE s.CID = c.CID AND s.VAL = t.%s)", op, table, attr)
}

// lhsMatch renders the conjunction "t[X] ≍ tp[X]" for the pattern
// tuple bound by enc row c. Codes: 1 ⇒ value must be in the set,
// 2 ⇒ value must be non-NULL and outside the set, 0/3 ⇒ no constraint.
func (d *Detector) lhsMatch() string {
	var conj []string
	for _, a := range d.schema.Attrs {
		tal := d.talName(a.Name)
		conj = append(conj,
			fmt.Sprintf("(c.%s_L <> %d OR %s)", a.Name, CodeIn, d.setProbe(false, tal, a.Name)),
			fmt.Sprintf("(c.%s_L <> %d OR (t.%s IS NOT NULL AND %s))",
				a.Name, CodeNotIn, a.Name, d.setProbe(true, tal, a.Name)),
		)
	}
	return strings.Join(conj, "\n    AND ")
}

// rhsViolate renders the disjunction "t[Y,Yp] does not match tp[Y,Yp]":
// some RHS attribute with an In pattern whose value is missing from the
// set, or with a NotIn pattern whose value is NULL or in the set.
// ABS() folds the Yp mirror codes onto the Y codes, as in Fig. 4.
func (d *Detector) rhsViolate() string {
	var disj []string
	for _, a := range d.schema.Attrs {
		tar := d.tarName(a.Name)
		disj = append(disj,
			fmt.Sprintf("(ABS(c.%s_R) = %d AND %s)", a.Name, CodeIn, d.setProbe(true, tar, a.Name)),
			fmt.Sprintf("(ABS(c.%s_R) = %d AND (t.%s IS NULL OR %s))",
				a.Name, CodeNotIn, a.Name, d.setProbe(false, tar, a.Name)),
		)
	}
	return strings.Join(disj, "\n    OR ")
}

// genQsvSelect is Fig. 4 (top): the tuples violating some pattern
// constraint all by themselves.
func (d *Detector) genQsvSelect() string {
	cols := []string{"t." + ColRID}
	for _, a := range d.schema.Attrs {
		cols = append(cols, "t."+a.Name)
	}
	return fmt.Sprintf("SELECT DISTINCT %s FROM %s t, %s c\nWHERE %s\n  AND (%s)",
		strings.Join(cols, ", "), d.dataTable, d.encTable, d.lhsMatch(), d.rhsViolate())
}

// genQsvUpdate flags the Qsv result in place: SV := 1.
func (d *Detector) genQsvUpdate() string { return d.genSVUpdate(d.dataTable) }

func (d *Detector) genSVUpdate(table string) string {
	return fmt.Sprintf("UPDATE %s t SET %s = 1 WHERE EXISTS (SELECT 1 FROM %s c\n  WHERE %s\n  AND (%s))",
		table, ColSV, d.encTable, d.lhsMatch(), d.rhsViolate())
}

// caseProj renders the '@'-blanking projection of Fig. 4's macro for
// one attribute: the attribute value (as text) when the enc code says
// the attribute participates in the embedded FD on the given side, '@'
// otherwise. NULL values map to a distinct mark so SQL grouping agrees
// with the FD semantics (NULLs group together).
func (d *Detector) caseProj(side, attr string) string {
	return fmt.Sprintf("CASE WHEN c.%s_%s > 0 THEN COALESCE(TOTEXT(t.%s), '%s') ELSE '%s' END",
		attr, side, attr, nullMark, blankMark)
}

// macro renders the derived table of Fig. 4 (bottom): one row per
// (pattern tuple, matching data tuple), with attributes irrelevant to
// the embedded FD blanked out, each distinct row once.
func (d *Detector) macro() string { return "SELECT DISTINCT " + d.macroRows("") }

// macroRows is the macro's select list and body, every matching
// (pattern tuple, data tuple) pair a row. extraWhere, when non-empty, is
// placed first so cheap restrictions short-circuit the pattern matching.
func (d *Detector) macroRows(extraWhere string) string {
	cols := []string{"c.CID AS CID"}
	for _, a := range d.schema.Attrs {
		cols = append(cols, fmt.Sprintf("%s AS %s_P", d.caseProj("L", a.Name), a.Name))
	}
	for _, a := range d.schema.Attrs {
		cols = append(cols, fmt.Sprintf("%s AS %s_RV", d.caseProj("R", a.Name), a.Name))
	}
	where := d.fdGuard() + "\n    AND " + d.lhsMatch()
	if extraWhere != "" {
		where = extraWhere + "\n    AND " + where
	}
	return fmt.Sprintf("%s\n  FROM %s t, %s c\n  WHERE %s",
		strings.Join(cols, ",\n    "), d.dataTable, d.encTable, where)
}

// fdGuard renders "pattern tuple c carries an embedded FD": some
// attribute is in Y (a positive RHS code). A Yp-only pattern constrains
// each tuple by itself — Qsv's business; its macro rows blank every RHS
// column, so its groups hold one distinct row and can never enter
// Aux(D). Reading only c, the guard is decided once per pattern tuple,
// before any data row is visited.
func (d *Detector) fdGuard() string {
	var disj []string
	for _, a := range d.schema.Attrs {
		disj = append(disj, fmt.Sprintf("c.%s_R > 0", a.Name))
	}
	return "(" + strings.Join(disj, " OR ") + ")"
}

// groupCols lists the Aux grouping key: CID plus every blanked LHS
// column.
func (d *Detector) groupCols() []string { return d.projCols("m", false) }

// projCols lists alias's CID and blanked LHS columns, then its blanked
// RHS columns when rhs is set: the Aux key, or a whole macro row.
func (d *Detector) projCols(alias string, rhs bool) []string {
	cols := []string{alias + ".CID"}
	for _, a := range d.schema.Attrs {
		cols = append(cols, alias+"."+a.Name+"_P")
	}
	if rhs {
		for _, a := range d.schema.Attrs {
			cols = append(cols, alias+"."+a.Name+"_RV")
		}
	}
	return cols
}

// genQmvInsert is Fig. 4 (bottom) materialized into Aux(D): the
// (cid, p) patterns of groups violating an embedded FD — groups that
// agree on the (blanked) LHS but contain more than one distinct
// (blanked) RHS combination.
func (d *Detector) genQmvInsert() string {
	g := strings.Join(d.groupCols(), ", ")
	return fmt.Sprintf("INSERT INTO %s SELECT %s FROM (%s\n) m\nGROUP BY %s\nHAVING COUNT(*) > 1",
		d.auxTable, g, d.macro(), g)
}

// auxProbe renders "t matches some (cid, p) in table for c's CID": the
// equality of every blanked projection with the stored pattern. The
// whole conjunction is equality-over-outer-expressions, which the
// engine decorrelates into a single hash probe.
func (d *Detector) auxProbe(table string) string { return d.projProbe(table, "a", false) }

// projProbe renders "t's projection for c is a row of table": the
// blanked LHS, and the blanked RHS too when rhs is set, each equal to
// table's column under alias.
func (d *Detector) projProbe(table, alias string, rhs bool) string {
	conds := []string{alias + ".CID = c.CID"}
	for _, at := range d.schema.Attrs {
		conds = append(conds, fmt.Sprintf("%s.%s_P = %s", alias, at.Name, d.caseProj("L", at.Name)))
	}
	if rhs {
		for _, at := range d.schema.Attrs {
			conds = append(conds, fmt.Sprintf("%s.%s_RV = %s", alias, at.Name, d.caseProj("R", at.Name)))
		}
	}
	return fmt.Sprintf("EXISTS (SELECT 1 FROM %s %s WHERE %s)", table, alias, strings.Join(conds, " AND "))
}

// guardedAuxProbe renders auxProbe(table) behind a per-CID guard: the
// guard reads only the pattern row, so the planner decides it once per
// pattern tuple and skips the data rows of every CID the table holds
// no group for.
func (d *Detector) guardedAuxProbe(table string) string {
	return fmt.Sprintf("EXISTS (SELECT 1 FROM %s g WHERE g.CID = c.CID) AND %s", table, d.auxProbe(table))
}

// genMVUpdate flags every tuple matching an Aux pattern: MV := 1. The
// per-CID guard skips the projection probes for every data tuple when a
// CID has no violating groups at all.
func (d *Detector) genMVUpdate() string {
	return fmt.Sprintf("UPDATE %s t SET %s = 1 WHERE EXISTS (SELECT 1 FROM %s c WHERE %s)",
		d.dataTable, ColMV, d.encTable, d.guardedAuxProbe(d.auxTable))
}

// --- advisory check (Check) ---
//
// The check statements run the two fixed detection queries over the
// staging table alone, against the *current* flags and Aux — no merge,
// no recompute, no writes outside the staging table. They back the
// server's high-rate check endpoint: "would this tuple violate Σ?"
// answered at read cost.

// genCheckSVRIDs is Qsv over the staged batch: the staged tuples that
// violate some pattern constraint all by themselves. Exact — SV is a
// per-tuple property, so staging answers it as well as merging would.
func (d *Detector) genCheckSVRIDs() string {
	return fmt.Sprintf("SELECT DISTINCT t.%s FROM %s t, %s c\nWHERE %s\n  AND (%s)",
		ColRID, d.insTable, d.encTable, d.lhsMatch(), d.rhsViolate())
}

// genCheckMVRIDs finds the staged tuples whose blanked projection
// matches a currently-violating group (an Aux(D) member) — the same
// probe the incremental step's mvSetNew runs after a merge, minus the
// merge. A tuple that would *newly* tip a clean group into violation
// is not reported; that transition needs the recompute in ApplyUpdates.
func (d *Detector) genCheckMVRIDs() string {
	return fmt.Sprintf("SELECT DISTINCT t.%s FROM %s t, %s c WHERE %s",
		ColRID, d.insTable, d.encTable, d.guardedAuxProbe(d.auxTable))
}

// genKeys collects the group keys touched by an update batch: the
// (cid, p) projections of the (tuple, pattern) matches of the batch
// rows t selected by from/where, over the FD-bearing patterns only.
func (d *Detector) genKeys(from, where string) string {
	cols := []string{"c.CID"}
	for _, a := range d.schema.Attrs {
		cols = append(cols, d.caseProj("L", a.Name))
	}
	return fmt.Sprintf("INSERT INTO %s SELECT DISTINCT %s FROM %s, %s c WHERE %s\n    AND %s\n    AND %s",
		d.keysTable, strings.Join(cols, ",\n    "), from, d.encTable, d.fdGuard(), d.lhsMatch(), where)
}

// The two collectors prune by monotonicity against the Aux(D) of before
// the update: a group's violation state can only change if its row set
// does, an insertion only ever adds (distinct) rows and a deletion only
// removes them. So an insertion into a group already in Aux cannot
// clear it, and a deletion from a group not in Aux cannot create it;
// neither needs a recompute. (A group that both loses and gains rows is
// collected by whichever side can change it.)

// genKeysFromIns collects the keys ΔD⁺ touches that are not violating
// yet, but for the (tuple, pattern) pairs whose whole projection is a rep
// row: such a tuple agrees with every member of its clean group (the rep
// invariant, genRepRecompute), so the group stays clean.
func (d *Detector) genKeysFromIns() string {
	return d.genKeys(d.insTable+" t", "NOT "+d.auxProbe(d.auxTable)+"\n    AND NOT "+d.projProbe(d.repTable, "r", true))
}

// genKeysFromDel collects the keys of currently violating groups ΔD⁻
// touches. The doomed rows are reached from the staged RIDs through
// the data table's RID index — the join is driven by ΔD⁻, not by D.
func (d *Detector) genKeysFromDel() string {
	return d.genKeys(
		fmt.Sprintf("%s d, %s t", d.delTable, d.dataTable),
		fmt.Sprintf("t.%s = d.%s AND %s", ColRID, ColRID, d.auxProbe(d.auxTable)))
}

// auxMatch renders the column-wise equality of two Aux-shaped rows
// (alias a matching the bare table named target).
func (d *Detector) auxMatch(alias, target string) string {
	conds := []string{fmt.Sprintf("%s.CID = %s.CID", alias, target)}
	for _, at := range d.schema.Attrs {
		conds = append(conds, fmt.Sprintf("%s.%s_P = %s.%s_P", alias, at.Name, target, at.Name))
	}
	return strings.Join(conds, " AND ")
}

// genAuxDeleteAffected drops the Aux rows whose group key was touched;
// genAuxRecompute rebuilds exactly those groups from the current data.
func (d *Detector) genAuxDeleteAffected() string {
	return fmt.Sprintf("DELETE FROM %s WHERE EXISTS (SELECT 1 FROM %s k WHERE %s)",
		d.auxTable, d.keysTable, d.auxMatch("k", d.auxTable))
}

// genAuxSaveOld snapshots the touched Aux rows before the recompute so
// the insert path can tell groups that *became* violating apart from
// groups that already were.
func (d *Detector) genAuxSaveOld() string {
	return fmt.Sprintf("INSERT INTO %s SELECT %s FROM %s m0 WHERE EXISTS (SELECT 1 FROM %s k WHERE %s)",
		d.auxOldTable, strings.Join(d.projCols("m0", false), ", "), d.auxTable, d.keysTable, d.auxMatch("k", "m0"))
}

// genAuxNewCompute collects the recomputed groups that were not
// violating before: rows of Aux matching a touched key but absent from
// the snapshot. Only the members of these groups can need an MV flip
// among pre-existing tuples.
func (d *Detector) genAuxNewCompute() string {
	return fmt.Sprintf(
		"INSERT INTO %s SELECT %s FROM %s m0 WHERE EXISTS (SELECT 1 FROM %s k WHERE %s) AND NOT EXISTS (SELECT 1 FROM %s o WHERE %s)",
		d.auxNewTable, strings.Join(d.projCols("m0", false), ", "), d.auxTable,
		d.keysTable, d.auxMatch("k", "m0"),
		d.auxOldTable, d.auxMatch("o", "m0"))
}

// genRepDeleteAffected drops the rep rows of the touched keys:
// genRepRecompute writes them again from the recompute's result.
func (d *Detector) genRepDeleteAffected() string {
	return fmt.Sprintf("DELETE FROM %s WHERE EXISTS (SELECT 1 FROM %s k WHERE %s)",
		d.repTable, d.keysTable, d.auxMatch("k", d.repTable))
}

// genStageRecompute is the one pass over D that rebuilds the touched
// groups: the macro rows of the touched keys, each distinct (group, RHS)
// row once with its member count N. Aux and rep are derived from this
// stage, which holds a few rows per touched key.
func (d *Detector) genStageRecompute() string {
	cols := strings.Join(d.projCols("m", true), ", ")
	return fmt.Sprintf("INSERT INTO %s SELECT %s, COUNT(*) FROM (SELECT %s\n) m\nGROUP BY %s",
		d.stageTable, cols, d.macroRows(d.keysProbe()), cols)
}

// genAuxRecompute writes the touched groups that violate — more than one
// distinct RHS — into Aux: Qmv's grouping over the stage.
func (d *Detector) genAuxRecompute() string {
	g := strings.Join(d.projCols("s", false), ", ")
	return fmt.Sprintf("INSERT INTO %s SELECT %s FROM %s s GROUP BY %s HAVING COUNT(*) > 1",
		d.auxTable, g, d.stageTable, g)
}

// genRepRecompute writes the rep rows of the touched groups that are
// clean — not in Aux, so one distinct RHS — and hold at least three
// member rows. It keeps the rep invariant: every current member of a
// group outside Aux has its rep row's RHS. An agreeing insert keeps it,
// a deletion cannot break it (vacuously once the group is empty), and
// every other change to a group's members recomputes its key, whose rep
// row repDeleteAff dropped. Nothing ages a rep row out but a recompute or
// BatchDetect, so a row is written only where it pays: a singleton's next
// member is a recompute either way, and φ10's (AC, PN) groups — a tuple
// and its duplicate, at most — would add a row per duplicate that
// outlives both, about 200 rows per 1 000 generated 8+8 updates.
func (d *Detector) genRepRecompute() string {
	return fmt.Sprintf("INSERT INTO %s SELECT %s FROM %s s WHERE s.N > 2 AND NOT EXISTS (SELECT 1 FROM %s a WHERE %s)",
		d.repTable, strings.Join(d.projCols("s", true), ", "), d.stageTable, d.auxTable, d.auxMatch("a", "s"))
}

// keysProbe renders "the (c, t) pair projects onto a touched group
// key" — a decorrelated hash probe placed first in conjunctions so
// untouched pairs are dismissed in O(1).
func (d *Detector) keysProbe() string { return d.projProbe(d.keysTable, "k", false) }

// genMVSetNewRows flags freshly merged tuples (RID ≥ the ?-bound batch
// start) that match any Aux pattern. The RID range guard keeps the
// projection probes off the pre-existing rows entirely.
func (d *Detector) genMVSetNewRows() string {
	return fmt.Sprintf(
		"UPDATE %s t SET %s = 1 WHERE t.%s >= ? AND t.%s = 0 AND EXISTS (SELECT 1 FROM %s c WHERE %s)",
		d.dataTable, ColMV, ColRID, ColMV, d.encTable, d.auxProbe(d.auxTable))
}

// genMVSetOldRows flags pre-existing clean tuples whose group *became*
// violating — members of an aux_new group. A per-CID guard dismisses
// (tuple, pattern) pairs in O(1) when aux_new has nothing for the CID,
// which is the common case; with aux_new empty the statement degrades
// to one cheap probe per pair.
func (d *Detector) genMVSetOldRows() string {
	return fmt.Sprintf(
		"UPDATE %s t SET %s = 1 WHERE t.%s < ? AND t.%s = 0 AND EXISTS (SELECT 1 FROM %s c WHERE %s)",
		d.dataTable, ColMV, ColRID, ColMV, d.encTable, d.guardedAuxProbe(d.auxNewTable))
}

// genMVClear clears MV on tuples of groups that were violating before
// the update — members of an aux_old group — and match no Aux pattern
// at all now (they may still be violating through another group, which
// the NOT EXISTS over the full Aux preserves). Behind the per-CID guard
// the data is scanned only for the CIDs aux_old holds, and aux_old is
// empty unless the update touched a violating group.
//
// It clears exactly the rows a probe of every touched key would. A
// pre-existing row r flagged MV that matches no Aux group now matched a
// violating group G before the update (the MV invariant). r's
// projection onto G has not changed and untouched Aux rows survive the
// recompute, so G was touched; being in Aux and touched, auxSaveOld
// copied it, so r matches aux_old. Conversely aux_old holds touched
// keys only, so no other row is cleared; and the rows mvSetNew and
// mvSetOld flag match Aux, so neither form clears them.
func (d *Detector) genMVClear() string {
	return fmt.Sprintf(
		"UPDATE %s t SET %s = 0 WHERE t.%s = 1 AND EXISTS (SELECT 1 FROM %s c WHERE %s) AND NOT EXISTS (SELECT 1 FROM %s c WHERE %s)",
		d.dataTable, ColMV, ColMV, d.encTable, d.guardedAuxProbe(d.auxOldTable), d.encTable, d.auxProbe(d.auxTable))
}
