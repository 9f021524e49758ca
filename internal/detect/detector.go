// Package detect implements the paper's §V: SQL-based detection of
// eCFD violations. The set Σ of constraints is encoded as *data* — a
// relation enc describing which attributes each pattern tuple
// constrains and how, plus per-attribute set tables T_AL / T_AR holding
// the pattern sets (Fig. 3) — so that a single, fixed pair of SQL
// queries (Qsv, Qmv — Fig. 4) detects all violations of arbitrarily
// many eCFDs in two passes over the data.
//
// BatchDetect is the static algorithm; IncDetect maintains the
// violation flags and the auxiliary relation Aux(D) under tuple
// insertions and deletions, touching only the affected part of D.
//
// Everything runs through database/sql, exactly as it would against a
// production RDBMS.
package detect

import (
	"database/sql"
	"fmt"
	"regexp"
	"strings"

	"ecfd/internal/core"
	"ecfd/internal/relation"
	"ecfd/internal/sqldb"
)

// Reserved columns the detector adds to the data table.
const (
	// ColRID identifies rows so that deletions can name their targets.
	ColRID = "RID"
	// ColSV is the single-tuple violation flag (paper §V).
	ColSV = "SV"
	// ColMV is the multiple-tuple violation flag (paper §V).
	ColMV = "MV"
)

// blankMark is the '@' of the paper, used to blank out attributes
// irrelevant to an embedded FD: a value equal to it is harmless, since a
// pattern blanks a column in every row or in none. nullMark stands for
// NULL so that SQL grouping (where NULLs group together) matches the
// naive semantics; a TEXT value equal to it would group with NULL, so
// every batch entering the detector is checked for one (checkBatch).
const (
	blankMark = "@"
	nullMark  = "@NULL@"
)

// ReservedValueError refuses a batch holding a TEXT cell equal to the
// string the detector's SQL renders NULL as: that cell and a NULL would
// fall into one group where the eCFD semantics keep them apart.
type ReservedValueError struct {
	Row  int // 1-based position in the batch
	Attr string
}

func (e *ReservedValueError) Error() string {
	return fmt.Sprintf("detect: row %d of the batch: %s holds %q, which the detector reserves for NULL", e.Row, e.Attr, nullMark)
}

// checkBatch refuses a batch of another schema or holding a reserved
// value, before any of it is staged.
func (d *Detector) checkBatch(b *relation.Relation) error {
	if b.Schema.Name != d.schema.Name || b.Schema.Width() != d.schema.Width() {
		return fmt.Errorf("detect: batch schema %s does not match %s", b.Schema, d.schema)
	}
	for i, row := range b.Rows {
		for j, v := range row {
			if v.K == relation.KindText && v.S == nullMark {
				return &ReservedValueError{Row: i + 1, Attr: d.schema.Attrs[j].Name}
			}
		}
	}
	return nil
}

var identRE = regexp.MustCompile(`^[A-Za-z_][A-Za-z0-9_]*$`)

// Detector binds a schema and a set of eCFDs to a database/sql handle
// and owns the tables it creates there.
type Detector struct {
	db     *sql.DB
	schema *relation.Schema
	sigma  []*core.ECFD // split: one pattern tuple per constraint, CID = index+1

	// table names (derived from the schema name)
	dataTable   string
	encTable    string
	auxTable    string
	auxOldTable string // affected Aux rows saved before a recompute
	auxNewTable string // groups that became violating in this step
	keysTable   string
	insTable    string
	delTable    string

	nextRID int64

	// eng is the embedded engine behind db, set by BindEngine.
	// ParallelDetect requires it: it pins one MVCC snapshot per read
	// phase and serves every worker from it.
	eng *sqldb.DB

	// pre-generated statements (fixed count, independent of |Σ|)
	stmts statements
	// insertTexts holds the staging and load INSERT texts by target table
	// and row count (insertText).
	insertTexts map[insertShape]string
}

// insertShape is what the text of a parameterized multi-row INSERT into
// one of the detector's tables depends on.
type insertShape struct {
	table string
	rows  int
}

// maxInsertTexts bounds Detector.insertTexts: a request stream settles
// on a few batch sizes, and one that does not starts over.
const maxInsertTexts = 64

type statements struct {
	qsvSelect    string // Fig. 4 (top): violating tuples
	qsvUpdate    string // SV := 1
	qmvInsert    string // Fig. 4 (bottom) → Aux
	mvUpdate     string // MV := 1 for tuples matching Aux
	resetFlags   string
	keysFromIns  string
	keysFromDel  string
	auxDeleteAff string
	auxSaveOld   string
	auxNewComp   string
	auxRecompute string
	mvSetNew     string // parameterized by the first RID of the batch
	mvSetOld     string // parameterized likewise
	mvClear      string
	svOnIns      string
	mergeIns     string
	deleteRows   string
	delExisting  string // the staged ΔD⁻ RIDs that name a row
	// parallel (read-only) forms, parameterized by RID slice / CID range
	qsvRIDsSlice    string
	qmvGroupsCIDRng string
	mvRIDsSlice     string
	// advisory-check forms (Check): Qsv and the Aux probe over the
	// staging table alone — read cost, no merge.
	checkSVRIDs string
	checkMVRIDs string
	// sharded scatter-gather forms (ShardedDetector): the shards export
	// DISTINCT macro rows; the coordinator finishes the grouping in Go
	// and broadcasts the violating keys back.
	qmvMacroCIDRng string // DISTINCT macro rows of a CID range (params: lo, hi)
	shardBatchPre  string // per-shard batch phase: reset flags, Qsv, clear Aux
	// pipelined scripts: the fixed statement sequences of BatchDetect
	// and ApplyUpdates joined into one semicolon-separated text, so the
	// whole sequence goes through database/sql as a single prepared
	// round trip (one driver call, one plan-cache entry) instead of one
	// per statement. Parameter indexes run through the script in order.
	batchScript string
	incStmts    []string
	incScript   string
}

// New validates Σ against the schema and prepares a detector. The
// constraints are split into single-pattern-tuple form (§V: "we can
// always split an eCFD with multiple patterns"), and each split
// constraint gets a CID equal to its 1-based position.
func New(db *sql.DB, schema *relation.Schema, sigma []*core.ECFD) (*Detector, error) {
	if len(sigma) == 0 {
		return nil, fmt.Errorf("detect: empty constraint set")
	}
	if !identRE.MatchString(schema.Name) {
		return nil, fmt.Errorf("detect: schema name %q is not a SQL identifier", schema.Name)
	}
	for _, a := range schema.Attrs {
		if !identRE.MatchString(a.Name) {
			return nil, fmt.Errorf("detect: attribute %q is not a SQL identifier", a.Name)
		}
		switch strings.ToUpper(a.Name) {
		case ColRID, ColSV, ColMV:
			return nil, fmt.Errorf("detect: attribute %q collides with a detector column", a.Name)
		}
	}
	for _, e := range sigma {
		if e.Schema.Name != schema.Name {
			return nil, fmt.Errorf("detect: constraint %s is over %s, want %s", e.Name, e.Schema.Name, schema.Name)
		}
		if err := e.Validate(); err != nil {
			return nil, err
		}
	}
	d := &Detector{
		db:          db,
		schema:      schema,
		sigma:       core.Split(sigma),
		dataTable:   schema.Name + "_data",
		encTable:    schema.Name + "_enc",
		auxTable:    schema.Name + "_aux",
		auxOldTable: schema.Name + "_aux_old",
		auxNewTable: schema.Name + "_aux_new",
		keysTable:   schema.Name + "_keys",
		insTable:    schema.Name + "_ins",
		delTable:    schema.Name + "_del",
		insertTexts: make(map[insertShape]string),
	}
	d.generateSQL()
	return d, nil
}

// Sigma returns the split (single-pattern) constraints; the CID of
// Sigma()[i] is i+1.
func (d *Detector) Sigma() []*core.ECFD { return d.sigma }

// DataTable returns the name of the SV/MV-extended data table.
func (d *Detector) DataTable() string { return d.dataTable }

// BindEngine hands the detector the embedded sqldb engine behind its
// database/sql handle (sqldriver.Engine of the DSN the handle was
// opened with). ParallelDetect requires the binding: it pins one MVCC
// snapshot per read phase and runs every worker's statements directly
// against it (Prepared.QueryAt), and returns an error when no engine is
// bound. Nothing else reads it.
//
// Deprecated: only ParallelDetect reads the binding; it goes with it.
func (d *Detector) BindEngine(eng *sqldb.DB) { d.eng = eng }

// talName / tarName name the per-attribute pattern-set tables.
func (d *Detector) talName(attr string) string { return fmt.Sprintf("%s_t_%s_l", d.schema.Name, attr) }
func (d *Detector) tarName(attr string) string { return fmt.Sprintf("%s_t_%s_r", d.schema.Name, attr) }

func sqlKind(k relation.Kind) string {
	switch k {
	case relation.KindInt:
		return "INTEGER"
	case relation.KindFloat:
		return "REAL"
	case relation.KindBool:
		return "BOOLEAN"
	default:
		return "TEXT"
	}
}

// Install creates every table the detector needs and loads the
// encoding of Σ. Existing detector tables are dropped first.
func (d *Detector) Install() error {
	var ddl []string
	drop := func(name string) { ddl = append(ddl, "DROP TABLE IF EXISTS "+name) }
	drop(d.dataTable)
	drop(d.encTable)
	drop(d.auxTable)
	drop(d.auxOldTable)
	drop(d.auxNewTable)
	drop(d.keysTable)
	drop(d.insTable)
	drop(d.delTable)
	for _, a := range d.schema.Attrs {
		drop(d.talName(a.Name))
		drop(d.tarName(a.Name))
	}

	// Data table: RID + R + SV + MV. The _ins staging table shares the
	// layout so inserted batches can be analysed before merging.
	var cols []string
	cols = append(cols, ColRID+" INTEGER")
	for _, a := range d.schema.Attrs {
		cols = append(cols, a.Name+" "+sqlKind(a.Kind))
	}
	cols = append(cols, ColSV+" INTEGER", ColMV+" INTEGER")
	ddl = append(ddl,
		fmt.Sprintf("CREATE TABLE %s (%s)", d.dataTable, strings.Join(cols, ", ")),
		fmt.Sprintf("CREATE TABLE %s (%s)", d.insTable, strings.Join(cols, ", ")),
		fmt.Sprintf("CREATE TABLE %s (%s INTEGER)", d.delTable, ColRID),
	)

	// enc: CID + A_L, A_R per attribute (Fig. 3 top).
	encCols := []string{"CID INTEGER"}
	for _, a := range d.schema.Attrs {
		encCols = append(encCols, a.Name+"_L INTEGER", a.Name+"_R INTEGER")
	}
	ddl = append(ddl, fmt.Sprintf("CREATE TABLE %s (%s)", d.encTable, strings.Join(encCols, ", ")))

	// T_AL / T_AR: (CID, value) pairs (Fig. 3 bottom).
	for _, a := range d.schema.Attrs {
		ddl = append(ddl,
			fmt.Sprintf("CREATE TABLE %s (CID INTEGER, VAL %s)", d.talName(a.Name), sqlKind(a.Kind)),
			fmt.Sprintf("CREATE TABLE %s (CID INTEGER, VAL %s)", d.tarName(a.Name), sqlKind(a.Kind)),
		)
	}

	// Aux(D) and the affected-keys scratch table: CID + one blanked
	// column per attribute.
	auxCols := []string{"CID INTEGER"}
	for _, a := range d.schema.Attrs {
		auxCols = append(auxCols, a.Name+"_P TEXT")
	}
	ddl = append(ddl,
		fmt.Sprintf("CREATE TABLE %s (%s)", d.auxTable, strings.Join(auxCols, ", ")),
		fmt.Sprintf("CREATE TABLE %s (%s)", d.auxOldTable, strings.Join(auxCols, ", ")),
		fmt.Sprintf("CREATE TABLE %s (%s)", d.auxNewTable, strings.Join(auxCols, ", ")),
		fmt.Sprintf("CREATE TABLE %s (%s)", d.keysTable, strings.Join(auxCols, ", ")),
	)

	// Secondary indexes on every probe target: the engine's
	// decorrelated EXISTS probes then hit persistent hash indexes that
	// survive across statements (pattern-set tables never change after
	// Install, so they are built exactly once).
	for _, a := range d.schema.Attrs {
		ddl = append(ddl,
			fmt.Sprintf("CREATE INDEX idx_%s ON %s (CID, VAL)", d.talName(a.Name), d.talName(a.Name)),
			fmt.Sprintf("CREATE INDEX idx_%s ON %s (CID, VAL)", d.tarName(a.Name), d.tarName(a.Name)),
		)
	}
	probeCols := []string{"CID"}
	for _, a := range d.schema.Attrs {
		probeCols = append(probeCols, a.Name+"_P")
	}
	for _, tbl := range []string{d.auxTable, d.auxOldTable, d.auxNewTable, d.keysTable} {
		ddl = append(ddl, fmt.Sprintf("CREATE INDEX idx_%s ON %s (%s)", tbl, tbl, strings.Join(probeCols, ", ")))
	}

	// Ordered RID index on the data table: the parallel detector's
	// RID-slice tasks and the incremental path's RID-range statements
	// (mvSetNew/mvSetOld) prune to their slice through it instead of
	// scanning the whole table, and ORDER BY RID reads (Violations,
	// RIDs) iterate it in order with no sort. The engine maintains it
	// incrementally: appends merge at the tail (RIDs are monotone) and
	// SV/MV flag updates never touch it since RID is not among the set
	// columns.
	ddl = append(ddl, fmt.Sprintf("CREATE INDEX idx_%s_rid ON %s (%s)", d.dataTable, d.dataTable, ColRID))

	for _, q := range ddl {
		if _, err := d.db.Exec(q); err != nil {
			return fmt.Errorf("detect: install: %w", err)
		}
	}
	return d.loadEncoding()
}

// loadEncoding writes the Fig. 3 tables for Σ.
func (d *Detector) loadEncoding() error {
	for i, e := range d.sigma {
		cid := int64(i + 1)
		enc := EncodeConstraint(e, d.schema)
		cols := []string{"CID"}
		vals := []string{fmt.Sprint(cid)}
		for _, a := range d.schema.Attrs {
			cols = append(cols, a.Name+"_L", a.Name+"_R")
			vals = append(vals, fmt.Sprint(enc.L[a.Name]), fmt.Sprint(enc.R[a.Name]))
		}
		q := fmt.Sprintf("INSERT INTO %s (%s) VALUES (%s)", d.encTable, strings.Join(cols, ", "), strings.Join(vals, ", "))
		if _, err := d.db.Exec(q); err != nil {
			return fmt.Errorf("detect: encode CID %d: %w", cid, err)
		}
		for attr, set := range enc.SetsL {
			if err := d.insertSet(d.talName(attr), cid, set); err != nil {
				return err
			}
		}
		for attr, set := range enc.SetsR {
			if err := d.insertSet(d.tarName(attr), cid, set); err != nil {
				return err
			}
		}
	}
	return nil
}

func (d *Detector) insertSet(table string, cid int64, set []relation.Value) error {
	// Batched and parameterized like bulkInsert: large pattern sets
	// neither build unbounded statement strings nor lex their values.
	for start := 0; start < len(set); start += insertBatch {
		end := start + insertBatch
		if end > len(set) {
			end = len(set)
		}
		chunk := set[start:end]
		args := make([]any, 0, 2*len(chunk))
		for _, v := range chunk {
			args = append(args, cid, valueArg(v))
		}
		q := fmt.Sprintf("INSERT INTO %s (CID, VAL) VALUES %s",
			table, placeholderRows(len(chunk), 2))
		if _, err := d.db.Exec(q, args...); err != nil {
			return fmt.Errorf("detect: load set table %s: %w", table, err)
		}
	}
	return nil
}

// insertText returns "INSERT INTO table VALUES (?, …), …" for n rows of
// width placeholders: the same string for the same table and n, rendered
// once, so a repeated batch size costs neither the rendering nor — the
// text being the plan cache's key — a compilation. Check, LoadData and
// ApplyUpdates all stage through it; like them it is not for concurrent
// use on one Detector.
func (d *Detector) insertText(table string, n, width int) string {
	shape := insertShape{table, n}
	q, ok := d.insertTexts[shape]
	if !ok {
		if len(d.insertTexts) >= maxInsertTexts {
			clear(d.insertTexts)
		}
		q = "INSERT INTO " + table + " VALUES " + placeholderRows(n, width)
		d.insertTexts[shape] = q
	}
	return q
}

// placeholderRows renders "(?, ?), (?, ?), ..." for n rows of w
// placeholders each.
func placeholderRows(n, w int) string {
	row := "(" + strings.Repeat("?, ", w-1) + "?)"
	var b strings.Builder
	b.Grow(n * (len(row) + 2))
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(row)
	}
	return b.String()
}

// valueArg converts an engine value to a database/sql argument.
func valueArg(v relation.Value) any {
	switch v.K {
	case relation.KindNull:
		return nil
	case relation.KindInt:
		return v.I
	case relation.KindBool:
		return v.I != 0
	case relation.KindFloat:
		return v.F
	default:
		return v.S
	}
}

// LoadData inserts the instance into the data table in batches,
// assigning fresh RIDs and clear flags. It returns the assigned RIDs.
func (d *Detector) LoadData(inst *relation.Relation) ([]int64, error) {
	if err := d.checkBatch(inst); err != nil {
		return nil, err
	}
	var rids []int64
	err := d.runAtomic(func(ex execer) error {
		var err error
		rids, err = d.bulkInsert(ex, d.dataTable, inst)
		return err
	})
	if err != nil {
		return nil, err
	}
	return rids, nil
}

const insertBatch = 500

func (d *Detector) bulkInsert(ex execer, table string, inst *relation.Relation) ([]int64, error) {
	// Parameterized prepared inserts: the full-batch statement text is
	// constant, so after the first batch the engine's plan cache serves
	// the compiled insert and no data value is ever lexed. One prepared
	// handle per LoadData covers every full batch; the tail row count
	// varies but its text is shared across calls too.
	width := d.schema.Width() + 3 // RID + R + SV + MV
	rids := make([]int64, 0, inst.Len())
	args := make([]any, 0, insertBatch*width)
	appendRow := func(row relation.Tuple) {
		d.nextRID++
		rids = append(rids, d.nextRID)
		args = append(args, d.nextRID)
		for _, v := range row {
			args = append(args, valueArg(v))
		}
		args = append(args, 0, 0)
	}

	rows := inst.Rows
	nFull := len(rows) / insertBatch
	if nFull > 0 {
		stmt, err := ex.Prepare(d.insertText(table, insertBatch, width))
		if err != nil {
			return nil, fmt.Errorf("detect: load data: %w", err)
		}
		for i := 0; i < nFull; i++ {
			args = args[:0]
			for _, row := range rows[i*insertBatch : (i+1)*insertBatch] {
				appendRow(row)
			}
			if _, err := stmt.Exec(args...); err != nil {
				stmt.Close()
				return nil, fmt.Errorf("detect: load data: %w", err)
			}
		}
		stmt.Close()
	}
	if tail := rows[nFull*insertBatch:]; len(tail) > 0 {
		args = args[:0]
		for _, row := range tail {
			appendRow(row)
		}
		if _, err := ex.Exec(d.insertText(table, len(tail), width), args...); err != nil {
			return nil, fmt.Errorf("detect: load data: %w", err)
		}
	}
	return rids, nil
}

// Counts returns (DSV, DMV, |vio(D)|): tuples flagged SV, flagged MV,
// and flagged either way.
func (d *Detector) Counts() (sv, mv, total int64, err error) {
	q := fmt.Sprintf(`SELECT SUM(%[1]s), SUM(%[2]s), COUNT(*) FROM %[3]s WHERE %[1]s = 1 OR %[2]s = 1`,
		ColSV, ColMV, d.dataTable)
	var svN, mvN sql.NullInt64
	var tot int64
	if err := d.db.QueryRow(q).Scan(&svN, &mvN, &tot); err != nil {
		return 0, 0, 0, err
	}
	return svN.Int64, mvN.Int64, tot, nil
}

// Queryer is the minimal read surface the violation readers need;
// *sql.DB and *sql.Tx both satisfy it. Passing a read-only
// transaction (sql.TxOptions{ReadOnly: true}) pins one MVCC snapshot
// for the whole read, so the result is coherent even while
// LoadData/ApplyUpdates commit concurrently.
type Queryer interface {
	Query(query string, args ...any) (*sql.Rows, error)
}

// Violations returns the current violation set as (RID, SV, MV) plus
// the data columns, ordered by RID. It reads the published snapshot;
// use ViolationsVia with a read-only transaction to pin one snapshot
// across several reads.
func (d *Detector) Violations() (*relation.Relation, error) {
	return d.ViolationsVia(d.db)
}

// ViolationsVia is Violations reading through q.
func (d *Detector) ViolationsVia(q Queryer) (*relation.Relation, error) {
	cols := []string{ColRID}
	attrs := []relation.Attribute{{Name: ColRID, Kind: relation.KindInt}}
	for _, a := range d.schema.Attrs {
		cols = append(cols, a.Name)
		attrs = append(attrs, a)
	}
	cols = append(cols, ColSV, ColMV)
	attrs = append(attrs,
		relation.Attribute{Name: ColSV, Kind: relation.KindInt},
		relation.Attribute{Name: ColMV, Kind: relation.KindInt})
	schema, err := relation.NewSchema(d.schema.Name+"_vio", attrs...)
	if err != nil {
		return nil, err
	}
	query := fmt.Sprintf("SELECT %s FROM %s WHERE (%s = 1 OR %s = 1) ORDER BY %s",
		strings.Join(cols, ", "), d.dataTable, ColSV, ColMV, ColRID)
	rows, err := q.Query(query)
	if err != nil {
		return nil, err
	}
	defer rows.Close()
	out := relation.New(schema)
	for rows.Next() {
		ptrs := make([]any, len(attrs))
		cells := make([]sql.NullString, len(attrs))
		for i := range ptrs {
			ptrs[i] = &cells[i]
		}
		if err := rows.Scan(ptrs...); err != nil {
			return nil, err
		}
		t := make(relation.Tuple, len(attrs))
		for i, c := range cells {
			if !c.Valid {
				t[i] = relation.Null()
				continue
			}
			v, err := relation.ParseLiteral(c.String, attrs[i].Kind)
			if err != nil {
				return nil, err
			}
			t[i] = v
		}
		out.Rows = append(out.Rows, t)
	}
	return out, rows.Err()
}

// FlagsByRID returns the SV/MV flags of every row, keyed by RID. Tests
// use it to compare against the naive oracle.
func (d *Detector) FlagsByRID() (map[int64][2]bool, error) {
	q := fmt.Sprintf("SELECT %s, %s, %s FROM %s", ColRID, ColSV, ColMV, d.dataTable)
	rows, err := d.db.Query(q)
	if err != nil {
		return nil, err
	}
	defer rows.Close()
	out := make(map[int64][2]bool)
	for rows.Next() {
		var rid, sv, mv int64
		if err := rows.Scan(&rid, &sv, &mv); err != nil {
			return nil, err
		}
		out[rid] = [2]bool{sv == 1, mv == 1}
	}
	return out, rows.Err()
}
