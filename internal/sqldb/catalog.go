package sqldb

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"unsafe"

	"ecfd/internal/relation"
)

// DB is an in-memory SQL database organised as a chain of immutable
// epochs (multi-version concurrency control with copy-on-write tables).
//
// Readers never lock: a query pins the current epoch with an atomic
// load and runs its whole plan — scans, index probes, column-cache
// kernels — against that frozen epoch. Writers serialize on db.mu,
// build the next epoch off to the side (sharing every table, row
// array and index structure the statement did not touch) and publish
// it with a single pointer swap. A reader therefore observes exactly
// the catalog and row state of its pinned epoch for its whole
// execution, and a bulk writer streaming updates never stalls it.
//
// Statement-level isolation follows directly, as it did under the old
// reader/writer lock — but without the old failure mode where one
// multi-millisecond exclusive section blocked every concurrent SELECT.
type DB struct {
	// mu serializes writers (DML, DDL, transaction control, WAL
	// checkpointing). Readers never take it.
	mu sync.Mutex
	// cur is the published epoch: the snapshot new readers pin. Swapped
	// by publish() under db.mu; loaded by readers without any lock.
	cur atomic.Pointer[epoch]
	// curW is the writer's head epoch. The statements of the open
	// transaction build on it unpublished until the transaction ends, an
	// autocommit statement until it ends; outside both it is cur.
	// Guarded by db.mu.
	curW *epoch
	// tx is the open transaction, if any; txEnd (on mu) wakes the writers
	// waiting for it to end.
	tx    *Tx
	txEnd *sync.Cond
	// stmtCache maps statement text → *Prepared. It has its own mutex
	// so concurrent readers can hit the cache without touching the
	// writer lock (an LRU get mutates recency order).
	stmtMu    sync.Mutex
	stmtCache *lruCache
	// wal, when non-nil, is the durability layer: every commit appends
	// its unit before the epoch it describes publishes (see wal.go).
	// Databases from NewDB stay purely in-memory; Open
	// attaches a WAL.
	wal *walState
	// roErr, once set, freezes the database read-only: the WAL could
	// not record a mutation (write or fsync failure), so rather than
	// let memory and log diverge, every later DML/DDL returns
	// ErrReadOnly wrapping this cause while queries keep serving.
	// Written and read under mu.
	roErr error
	// recov records what recovery did at Open time.
	recov RecoveryStats
	// scratch is the writer's cells for new rows (rowScratch), under mu.
	scratch []relation.Value

	// epochMu guards the retired-epoch registry: superseded epochs
	// still pinned by in-flight readers, with their approximate byte
	// footprint. An epoch leaves the registry (and becomes garbage in
	// the ordinary Go sense) when its last reader unpins it.
	epochMu      sync.Mutex
	retired      map[*epoch]int64
	retiredBytes int64

	// work backs the work counters of Stats (env.publish adds to it).
	work [nWork]atomic.Int64
	// mode is the execution Mode (SetMode); zero is Planned.
	mode atomic.Int32
}

// epoch is one immutable version of the whole database: the table
// catalog plus, per table, the rows — column segments — and index
// structures current when the epoch was published. Nothing in an epoch
// is ever mutated after publication — writers fork a new epoch instead —
// except the lazily *extended* index structures, which grow monotonically
// under their own locks and are fenced by each reader's row count (see
// tableData).
type epoch struct {
	// seq increases by one per epoch; publish() uses it to never move
	// the published pointer backwards.
	seq uint64
	// ddlVersion counts catalog changes (CREATE/DROP TABLE, CREATE
	// INDEX, LoadRelation of a new table). Compiled plans record the
	// version they were built against and recompile on mismatch.
	// Starts at 1 so a zero version always means "never compiled".
	ddlVersion uint64
	// tables maps lower-cased name → handle. Shared wholesale between
	// epochs; DDL clones it.
	tables map[string]*Table
	// tds maps table handle → that table's data in this epoch.
	tds map[*Table]*tableData
	// pins counts readers currently executing against this epoch.
	pins atomic.Int64
}

// table looks a table up in this epoch's catalog.
func (ep *epoch) table(name string) (*Table, error) {
	t, ok := ep.tables[lowerName(name)]
	if !ok {
		return nil, fmt.Errorf("sql: no table %s", name)
	}
	return t, nil
}

// bytes bounds the epoch's heap footprint from above for the GC
// registry: every segment's columns at their real size — vectors,
// dictionaries and the strings those own (colVec.bytes, strBytes).
// Segments shared with other epochs are counted in each — the registry
// answers "how much could this pinned epoch be holding live", not an
// exact accounting.
func (ep *epoch) bytes() int64 {
	var b int64
	for _, td := range ep.tds {
		for _, sg := range td.segs {
			for i := range sg.cols {
				b += sg.cols[i].bytes() + sg.cols[i].strBytes()
			}
		}
	}
	return b
}

const valueBytes = int64(unsafe.Sizeof(relation.Value{}))

// Table is a stable handle for one base table: the name and the schema.
// Everything versioned — rows, indexes' built structures — lives in the
// per-epoch tableData, so the handle itself never changes and compiled
// plans can bind it across epochs.
type Table struct {
	Name   string
	Schema *relation.Schema
	// identity is the array every ident order of the table's indexes is a
	// prefix of (identPrefix): identity[i] == i, written once before it
	// is stored and never again.
	identity atomic.Pointer[[]int]
}

// Index is a stable handle for one secondary index: its column list
// in declared order, plus the rebuild counter. The built structures
// live in per-epoch indexData.
type Index struct {
	Name string
	Cols []int // column positions, in declared order
	// rebuilds counts full (non-incremental) builds of either index
	// structure across all epochs.
	rebuilds atomic.Int64
}

// tableData is one epoch's view of a table: its rows, held as the
// columns of its segments, plus the lazily built index structures valid
// for them. Rows are immutable (appends by a *newer* epoch may fill a
// tail's spare capacity beyond its length, which readers of this epoch
// never touch).
//
// Index structures are shared between epochs whenever the epoch
// transition preserves them (an append extends, a non-indexed UPDATE
// doesn't disturb an index, ...). Sharing is sound because the
// structures are *fenced*: every access passes the reader's row count
// f = td.n, and the structure answers for rows [0, f) only,
// extending itself under its own lock if it has not covered f yet.
// All epochs sharing a structure agree on the cell values it indexes
// over their common prefix, so extensions commute.
type tableData struct {
	rowSet
	// version distinguishes row states for per-env hash-build caching.
	version uint64
	indexes []indexSlot
}

// rowSet is a source's rows in position order: a base table's in one
// epoch, as segments of at most segRows rows whose columns are the only
// copy of them, or the rows a derived table materialized, as tuples
// (derivedRows) — transient, so never stored column-wise.
type rowSet struct {
	segs []segment
	n    int
	tups []relation.Tuple // a derived table's rows; segs is nil then
}

// derivedRows wraps materialized rows as a rowSet.
func derivedRows(rows []relation.Tuple) rowSet {
	return rowSet{tups: rows, n: len(rows)}
}

// ref binds the row at position p, looking for its segment from *si on
// and leaving it there: a caller walking positions in order passes the
// same hint every time.
func (rs *rowSet) ref(p int, si *int) rowRef {
	if rs.tups != nil {
		return rowRef{tup: rs.tups[p]}
	}
	*si = rs.segAt(p, *si)
	sg := &rs.segs[*si]
	return rowRef{cols: sg.cols, off: p - sg.start}
}

// rowRef is a bound row: a stored one as its segment's columns and its
// offset in them, any other — a derived table's, an aggregate's empty
// input, a streamed group's key — as a tuple. A frame holds one per FROM
// source, and compiled column references read through it (at).
type rowRef struct {
	cols []colVec
	off  int
	tup  relation.Tuple
}

// at returns column ci of the row.
func (r *rowRef) at(ci int) relation.Value {
	if r.tup != nil {
		return r.tup[ci]
	}
	return r.cols[ci].at(r.off)
}

// bound reports whether the ref names a row with at least one column.
func (r *rowRef) bound() bool { return len(r.cols) > 0 || len(r.tup) > 0 }

// same reports whether two refs name the same row of one statement's
// epoch: the same segment and offset, or the same tuple.
func (r *rowRef) same(o *rowRef) bool {
	if len(r.cols) > 0 {
		return len(o.cols) > 0 && &r.cols[0] == &o.cols[0] && r.off == o.off
	}
	return len(r.tup) > 0 && len(o.tup) > 0 && &r.tup[0] == &o.tup[0]
}

// tuple appends the row's width cells to dst: a row leaving stored form.
func (r *rowRef) tuple(dst relation.Tuple, width int) relation.Tuple {
	for ci := range width {
		dst = append(dst, r.at(ci))
	}
	return dst
}

type indexSlot struct {
	idx  *Index
	data *indexData
}

// indexData holds one epoch-lineage's built structures for an index:
//
//   - sorted, row positions ordered by the index-column values (ties
//     by position). sorted[:f] is a valid in-order view of rows
//     [0, f) for every fence f with sBase <= f <= len(sorted); an
//     append out of key order re-sorts the array at its reader's fence
//     and raises sBase to it, sending older pinned readers to a
//     transient sort. It serves range scans, ascending ORDER BY and —
//     by binary search — equality probes;
//   - m, a hash map from encoded key to ascending row positions,
//     covering rows [0, mCover) — answers equality probes in O(1). It
//     is built only for a reader sorted cannot serve (never built, or
//     rebased past the reader's fence): see lookupEq. A DELETE or
//     TRUNCATE fork carries m over only when sorted is not built, so a
//     table whose index is read in order never pays per-key bucket
//     upkeep. An UPDATE that assigns the index's columns forks both
//     never-built.
//
// An index whose order is position order — the detector's RID index:
// RIDs ascend on append, and DELETE keeps the order — is ident: sorted is
// then a prefix of the table's identity array (Table.identPrefix), which
// nothing writes, and its DELETE and TRUNCATE forks copy no position. An append
// out of key order ends ident and sorts the order into an array of its
// own.
//
// Both grow monotonically under mu; they are never shrunk or
// reordered in place, so a header snapshotted under RLock stays
// readable after release (growth only appends, and bucket arrays are
// replaced wholesale when forked).
type indexData struct {
	mu     sync.RWMutex
	m      map[string][]int
	mCover int
	sorted []int
	sBase  int
	ident  bool
}

// identPrefix returns the positions [0, n) in order, a prefix of the
// table's identity array, which it replaces by a longer one — by a
// segment's worth of slack, no more — when n runs past it.
func (t *Table) identPrefix(n int) []int {
	for {
		old := t.identity.Load()
		if old != nil && len(*old) >= n {
			return (*old)[:n:n]
		}
		ids := make([]int, (n/segRows+1)*segRows)
		for i := range ids {
			ids[i] = i
		}
		if t.identity.CompareAndSwap(old, &ids) {
			return ids[:n:n]
		}
	}
}

// segRows is the most rows a segment holds — one selection vector
// (batchChunk), so a batch kernel runs a whole segment at a time. A
// DELETE or UPDATE copies the columns of the segments it touches and
// shares the rest: on 40 000 gen rows with nine built columns an 8-row
// DELETE allocated 14.7 MB for the flat vectors this replaced
// (9 × 40 000 × 40 bytes, 89 % of an 8+8 ApplyUpdates), and at most one
// segment's columns per touched segment now.
const segRows = batchChunk

// segOffsets is every row offset of a segment, in order, never written:
// a full scan's selection vector starts as a copy of its prefix.
var segOffsets = func() (o [segRows]int) {
	for i := range o {
		o[i] = i
	}
	return o
}()

// segment is one epoch's entry for a run of consecutive positions: where
// the run starts in this epoch (a DELETE shifts the segments behind it
// without touching them), how many rows it holds, and its columns —
// cols[ci] is column ci of those rows, every column of the schema, and
// the only copy of them. The column headers are the epoch's own and never
// written once it is published; forks copy the headers of the segments
// they touch and share the rest. Only the tail's vectors grow, INSERT
// appending into their spare capacity — which only the writer head's
// lineage reaches — under a fresh header array; a rollback clips them
// (rowSet.restored). A segment that is not its table's tail, or is full,
// is sealed (colVec.seal) before its epoch is published. A table's
// segments are never empty, and no two neighbours fit in one
// (segsDeleted merges them), so n rows have at most 2·⌈n/segRows⌉+1.
type segment struct {
	start, n int
	cols     []colVec
}

// colVec is one column of a segment. A declared-TEXT column is
// dictionary-coded: codes[i] is 0 for NULL, else c for dict[c-1], the
// segment's distinct strings in first-seen order — every store coerces
// cells to their column's kind, so it holds nothing else. Any other column
// is a vector of values.
//
// Appending extends both codes and dictionary, through index once a scan
// is too long; index belongs to the writer, and no reader touches it.
// Forks share the dictionary (dictBounded).
//
// A sealed coded column sorts its dictionary (perm) and lists its rows by
// code (post), both immutable; post describes codes[:len(post.rows)], so
// cut keeps it only for the whole column, and whatever rewrites or
// appends codes drops it.
type colVec struct {
	vals  []relation.Value
	codes []uint16
	dict  []string
	perm  []uint16          // sorts dict[:len(perm)]; immutable once set
	index map[string]uint16 // string → code; the writer's
	post  *postings         // a pointer: every column view copies the header
}

// postings are a column's rows by code, in CSR layout: rows[at[c]:at[c+1]]
// are the ascending offsets of the rows whose code is c. strs is the size
// of the dictionary's strings, which nothing changes while postings stand.
type postings struct {
	rows, at []uint16
	strs     int64
}

// dictScanMax is the most strings a dictionary is searched by a plain
// scan: below it a column takes no map and no permutation — what
// Detector.Check's eight staged rows build.
const dictScanMax = 16

// newColVec returns an empty column for an attribute, coded if it is
// declared TEXT, with room for n cells.
func newColVec(a relation.Attribute, n int) colVec {
	if a.Kind == relation.KindText {
		return colVec{codes: make([]uint16, 0, n), dict: make([]string, 0, min(n, dictScanMax))}
	}
	return colVec{vals: make([]relation.Value, 0, n)}
}

func (v *colVec) len() int { return len(v.vals) + len(v.codes) }

// at decodes cell i.
func (v *colVec) at(i int) relation.Value {
	if v.codes == nil {
		return v.vals[i]
	}
	if c := v.codes[i]; c > 0 {
		return relation.Text(v.dict[c-1])
	}
	return relation.Value{}
}

// bytes is the column's heap size without the strings its dictionary
// holds (strBytes).
func (v *colVec) bytes() int64 {
	b := int64(len(v.vals))*valueBytes + 2*int64(len(v.codes)+len(v.perm)) + int64(len(v.dict))*int64(unsafe.Sizeof(""))
	if v.post != nil {
		b += 2 * int64(len(v.post.rows)+len(v.post.at))
	}
	return b
}

// strBytes is the size of the strings the column holds — only a TEXT
// column holds any, all in its dictionary — counted in every column
// holding one: summed when sealed, so pricing an epoch reads only its
// tails' dictionaries string by string.
func (v *colVec) strBytes() (b int64) {
	if v.post != nil {
		return v.post.strs
	}
	for _, w := range v.dict {
		b += int64(len(w))
	}
	return b
}

// cut is the column's first n cells, with headers no later append writes.
func (v *colVec) cut(n int) colVec {
	if v.codes == nil {
		return colVec{vals: v.vals[:n:n]}
	}
	c := colVec{codes: v.codes[:n:n], dict: v.dict[:len(v.dict):len(v.dict)], perm: v.perm}
	if n == len(v.codes) && v.post != nil && n == len(v.post.rows) {
		c.post = v.post
	}
	return c
}

// sealed reports whether the column is as seal leaves it.
func (v *colVec) sealed() bool {
	return v.index == nil && (len(v.dict) <= dictScanMax || len(v.perm) == len(v.dict)) &&
		(v.codes == nil || v.post != nil && len(v.post.rows) == len(v.codes))
}

// seal readies a column no append will reach: a sorted dictionary and the
// postings. The writer runs it on a header no reader sees yet.
func (v *colVec) seal() {
	if v.index = nil; v.sealed() {
		return
	}
	if len(v.dict) > dictScanMax && len(v.perm) < len(v.dict) {
		perm := make([]uint16, len(v.dict))
		for i := range perm {
			perm[i] = uint16(i)
		}
		slices.SortFunc(perm, func(a, b uint16) int { return strings.Compare(v.dict[a], v.dict[b]) })
		v.perm = perm
	}
	// A counting sort: at[c+1] counts code c, then becomes where its rows
	// end.
	n := len(v.codes)
	buf := make([]uint16, n+len(v.dict)+2)
	rows, at := buf[:n:n], buf[n:]
	for _, c := range v.codes {
		at[c+1]++
	}
	for c := 1; c < len(at); c++ {
		at[c] += at[c-1]
	}
	for i, c := range v.codes {
		rows[at[c]] = uint16(i)
		at[c]++
	}
	copy(at[1:], at)
	at[0] = 0
	v.post = nil
	v.post = &postings{rows: rows, at: at, strs: v.strBytes()}
}

// find returns the code of s if the dictionary holds it.
func (v *colVec) find(s string) (uint16, bool) {
	if v.index == nil && len(v.perm) < len(v.dict) && len(v.dict) > dictScanMax {
		v.index = make(map[string]uint16, len(v.dict))
		for i, w := range v.dict {
			v.index[w] = uint16(i + 1)
		}
	}
	switch {
	case v.index != nil:
		c, ok := v.index[s]
		return c, ok
	case len(v.perm) == len(v.dict):
		return v.search(s)
	}
	i := slices.Index(v.dict, s)
	return uint16(i + 1), i >= 0
}

// search is find by binary search in perm, which must sort the
// dictionary; it only reads, so readers may search their copy. Written
// out: slices.BinarySearchFunc's closure cost a third more per search.
func (v *colVec) search(s string) (uint16, bool) {
	lo, hi := 0, len(v.perm)
	for lo < hi {
		if m := int(uint(lo+hi) >> 1); v.dict[v.perm[m]] < s {
			lo = m + 1
		} else {
			hi = m
		}
	}
	if lo == len(v.perm) || v.dict[v.perm[lo]] != s {
		return 0, false
	}
	return v.perm[lo] + 1, true
}

// push appends a cell: as a code if the column is coded, else as a value.
func (v *colVec) push(cell relation.Value) {
	if v.codes == nil {
		v.vals = append(v.vals, cell)
		return
	}
	v.post = nil
	c, ok := uint16(0), cell.K == relation.KindNull
	if !ok {
		if c, ok = v.find(cell.S); !ok {
			v.dict = append(v.dict, cell.S)
			c = uint16(len(v.dict))
			if v.index != nil {
				v.index[cell.S] = c
			}
		}
	}
	v.codes = append(v.codes, c)
}

// dictBounded re-codes private codes in first-seen order once the
// dictionary a fork kept holds more than twice as many strings as the
// column has rows, so DELETE and UPDATE churn cannot grow it unbounded.
func (v *colVec) dictBounded() {
	if len(v.dict) <= 2*len(v.codes) {
		return
	}
	to := make([]uint16, len(v.dict)+1)
	var dict []string
	codes := make([]uint16, len(v.codes)) // v's may be shared
	for i, c := range v.codes {
		if c > 0 && to[c] == 0 {
			dict = append(dict, v.dict[c-1])
			to[c] = uint16(len(dict))
		}
		codes[i] = to[c]
	}
	v.codes, v.dict, v.perm, v.index, v.post = codes, dict, nil, nil, nil
}

func lowerName(s string) string { return strings.ToLower(s) }

// NewDB returns an empty database at epoch 1.
func NewDB() *DB {
	db := &DB{retired: make(map[*epoch]int64)}
	db.txEnd = sync.NewCond(&db.mu)
	ep := &epoch{
		seq:        1,
		ddlVersion: 1,
		tables:     make(map[string]*Table),
		tds:        make(map[*Table]*tableData),
	}
	db.cur.Store(ep)
	db.curW = ep
	return db
}

// --- epoch pinning, publication and retirement ---

// pin returns the current published epoch with its pin count
// incremented. The increment-then-revalidate loop makes the count
// exact with respect to retire(): if the published pointer moved
// between the load and the increment, the pin is released and the
// loop retries on the new epoch.
func (db *DB) pin() *epoch {
	for {
		ep := db.cur.Load()
		ep.pins.Add(1)
		if db.cur.Load() == ep {
			return ep
		}
		db.unpin(ep)
	}
}

// unpin releases a pinned epoch; the last unpin of a superseded epoch
// removes it from the retired registry.
func (db *DB) unpin(ep *epoch) {
	if ep.pins.Add(-1) == 0 && db.cur.Load() != ep {
		db.epochMu.Lock()
		if b, ok := db.retired[ep]; ok {
			db.retiredBytes -= b
			delete(db.retired, ep)
		}
		db.epochMu.Unlock()
	}
}

// publish makes the writer head the epoch new readers pin: the one step
// that makes a commit visible, taken once per commit unit after its WAL
// append. Callers hold db.mu.
func (db *DB) publish() {
	old := db.cur.Load()
	if old == db.curW {
		return
	}
	db.cur.Store(db.curW)
	db.work[wEpochsPublished].Add(1)
	db.retire(old)
}

// retire registers a superseded epoch still pinned by readers. The
// post-registration pins re-check closes the race with a reader whose
// final unpin ran before the epoch entered the registry.
func (db *DB) retire(old *epoch) {
	if old.pins.Load() == 0 {
		return
	}
	db.epochMu.Lock()
	b := old.bytes()
	db.retired[old] = b
	db.retiredBytes += b
	if old.pins.Load() == 0 {
		db.retiredBytes -= b
		delete(db.retired, old)
	}
	db.epochMu.Unlock()
}

// forkEpochW clones the writer head into a new epoch: next sequence
// number, shared catalog, shallow-copied table-data map. Callers hold
// db.mu and make the fork the writer head after editing it.
func (db *DB) forkEpochW() *epoch {
	old := db.curW
	ne := &epoch{
		seq:        old.seq + 1,
		ddlVersion: old.ddlVersion,
		tables:     old.tables,
		tds:        make(map[*Table]*tableData, len(old.tds)+1),
	}
	for t, td := range old.tds {
		ne.tds[t] = td
	}
	return ne
}

// installTD forks the writer head with one table's data replaced.
func (db *DB) installTD(t *Table, ntd *tableData) {
	ne := db.forkEpochW()
	ne.tds[t] = ntd
	db.curW = ne
}

// Snap is a pinned read snapshot: every query routed through it
// observes one epoch, regardless of concurrent commits. Close
// releases the pin (idempotent, single goroutine).
type Snap struct {
	db *DB
	ep *epoch
}

// PinSnapshot pins the current epoch until Close.
func (db *DB) PinSnapshot() *Snap {
	return &Snap{db: db, ep: db.pin()}
}

// Close releases the snapshot's epoch pin.
func (s *Snap) Close() {
	if s.ep != nil {
		s.db.unpin(s.ep)
		s.ep = nil
	}
}

// Stats is the operational counters surface: where the epoch chain
// is, how much superseded state pinned readers are holding live, and
// what recovery did at Open time.
type Stats struct {
	// EpochSeq is the published epoch's sequence number: it counts the
	// epochs writers built, published or not.
	EpochSeq uint64
	// EpochsPublished counts the epochs made visible to readers: one per
	// autocommit statement and per transaction that changed something — a
	// rolled-back one publishes its base's rows put back.
	EpochsPublished int64
	// LiveEpochs counts the published epoch plus retired epochs still
	// pinned by readers.
	LiveEpochs int
	// RetiredEpochs counts superseded epochs kept alive by pins.
	RetiredEpochs int
	// RetiredBytes bounds the heap those retired epochs hold from above:
	// their rows, as the column segments that store them, at their real
	// size — 40 bytes a value, 2 a dictionary code and 2 its posting, plus
	// per dictionary string its bytes, its header, a permutation entry and
	// a posting offset — what several of them share counted once for each.
	RetiredBytes int64
	// ProbeRows counts the candidate rows the batch probe kernels sent to
	// an exact probe — key encoded, hash build or index consulted — since
	// the database opened, each statement adding its share when it ends.
	// It is a work counter, not a clock: the same statements over the same
	// data always add the same amount.
	ProbeRows int64
	// RowsScanned counts the candidate rows handed to join levels — a
	// whole source, or what an index probe or range left of it — before
	// any filter, plus the rows read into hash builds; HashBuilds counts
	// those: the key sets of decorrelated EXISTS.
	RowsScanned, HashBuilds int64
	// RowsStepped counts the rows batch join levels handed from their
	// selection vectors to the per-row machinery: what the kernels, the OR
	// groups and the DISTINCT pre-filter's code stage left of the rows
	// they scanned.
	RowsStepped int64
	// SchedBuilds counts join-plan instances laid out (buildSchedule),
	// SchedReuses the selects an idle instance served instead: all a fixed
	// statement set adds to once it is warm.
	SchedBuilds, SchedReuses int64
	// CellsCopied counts the cells DML statements wrote while forking
	// their epochs — index positions, and column-segment cells appended,
	// copied, compacted or patched — and SegCellsCopied the segment cells
	// copied, compacted or patched: the part that depends on the rows a
	// statement touches and not on the size of its table.
	CellsCopied, SegCellsCopied int64
	// RowsMatched counts the rows UPDATE and DELETE statements selected,
	// RowsWritten the rows DML inserted, changed or removed: an UPDATE
	// whose new values are already in place matches a row without writing
	// it. TRUNCATE adds to neither.
	RowsMatched, RowsWritten int64
	// SetRows counts the rows value sets decided, PostingRows those of them
	// decided from a segment's postings without reading their cells, and
	// TextLookups the strings compared or hashed to decide those, or a
	// kernel over a coded column — per row, dictionary string or set
	// member. DistinctKeys counts the keys DISTINCT (raw pre-dedup,
	// aggregates) hashed, CodeRepeats the rows the raw pre-dedup skipped as
	// repeats by their segment codes alone, with no key, and Groups the
	// GROUP BY groups formed, streamed or not.
	SetRows, PostingRows, TextLookups, DistinctKeys, CodeRepeats, Groups int64
	// Recovery reports what WAL recovery did when the database opened.
	Recovery RecoveryStats
}

// Stats returns current epoch/GC counters and the recovery report.
func (db *DB) Stats() Stats {
	ep := db.cur.Load()
	db.epochMu.Lock()
	r := len(db.retired)
	b := db.retiredBytes
	db.epochMu.Unlock()
	return Stats{
		EpochSeq:        ep.seq,
		EpochsPublished: db.work[wEpochsPublished].Load(),
		LiveEpochs:      1 + r,
		RetiredEpochs:   r,
		RetiredBytes:    b,
		ProbeRows:       db.work[wProbeRows].Load(),
		RowsScanned:     db.work[wRowsScanned].Load(),
		RowsStepped:     db.work[wRowsStepped].Load(),
		HashBuilds:      db.work[wHashBuilds].Load(),
		SchedBuilds:     db.work[wSchedBuilds].Load(),
		SchedReuses:     db.work[wSchedReuses].Load(),
		CellsCopied:     db.work[wCellsCopied].Load(),
		SegCellsCopied:  db.work[wSegCellsCopied].Load(),
		RowsMatched:     db.work[wRowsMatched].Load(),
		RowsWritten:     db.work[wRowsWritten].Load(),
		SetRows:         db.work[wSetRows].Load(),
		PostingRows:     db.work[wPostingRows].Load(),
		TextLookups:     db.work[wTextLookups].Load(),
		DistinctKeys:    db.work[wDistinctKeys].Load(),
		CodeRepeats:     db.work[wCodeRepeats].Load(),
		Groups:          db.work[wGroups].Load(),
		Recovery:        db.recov,
	}
}

// --- DDL ---

// CreateTable registers a new table.
func (db *DB) CreateTable(name string, cols []ColumnDef, ifNotExists bool) error {
	db.lockW(nil)
	defer db.unlockW(nil)
	return db.createTable(name, cols, ifNotExists)
}

func (db *DB) createTable(name string, cols []ColumnDef, ifNotExists bool) error {
	if err := db.writable(); err != nil {
		return err
	}
	key := lowerName(name)
	if _, ok := db.curW.tables[key]; ok {
		if ifNotExists {
			return nil
		}
		return fmt.Errorf("sql: table %s already exists", name)
	}
	attrs := make([]relation.Attribute, len(cols))
	for i, c := range cols {
		attrs[i] = relation.Attribute{Name: c.Name, Kind: c.Kind}
	}
	schema, err := relation.NewSchema(name, attrs...)
	if err != nil {
		return fmt.Errorf("sql: %w", err)
	}
	if err := db.logCreateTable(schema); err != nil {
		return err
	}
	t := &Table{Name: name, Schema: schema}
	ne := db.forkEpochW()
	ne.tables = cloneTables(ne.tables)
	ne.tables[key] = t
	ne.tds[t] = newTableData(schema, nil, nil)
	ne.ddlVersion++
	db.curW = ne
	return nil
}

// DropTable removes a table.
func (db *DB) DropTable(name string, ifExists bool) error {
	db.lockW(nil)
	defer db.unlockW(nil)
	return db.dropTable(name, ifExists)
}

func (db *DB) dropTable(name string, ifExists bool) error {
	if err := db.writable(); err != nil {
		return err
	}
	key := lowerName(name)
	t, ok := db.curW.tables[key]
	if !ok {
		if ifExists {
			return nil
		}
		return fmt.Errorf("sql: no table %s", name)
	}
	if err := db.logDropTable(name); err != nil {
		return err
	}
	ne := db.forkEpochW()
	ne.tables = cloneTables(ne.tables)
	delete(ne.tables, key)
	delete(ne.tds, t)
	ne.ddlVersion++
	db.curW = ne
	return nil
}

func cloneTables(m map[string]*Table) map[string]*Table {
	out := make(map[string]*Table, len(m)+1)
	for k, v := range m {
		out[k] = v
	}
	return out
}

// newTableData stores rows of schema s into segments, with indexes
// nothing is built over yet.
func newTableData(s *relation.Schema, rows []relation.Tuple, indexes []indexSlot) *tableData {
	rs, _ := rowSet{}.appended(s, rows)
	return &tableData{rowSet: rs, indexes: indexes}
}

// table looks a table up in the writer head; callers hold db.mu.
// Reader paths resolve through their pinned epoch instead.
func (db *DB) table(name string) (*Table, error) {
	return db.curW.table(name)
}

// TableNames returns the catalog's table names, sorted. Lock-free:
// it reads the published epoch's immutable catalog.
func (db *DB) TableNames() []string {
	ep := db.cur.Load()
	out := make([]string, 0, len(ep.tables))
	for _, t := range ep.tables {
		out = append(out, t.Name)
	}
	sort.Strings(out)
	return out
}

// TableLen returns the row count of a table in the published epoch.
func (db *DB) TableLen(name string) (int, error) {
	ep := db.cur.Load()
	t, err := ep.table(name)
	if err != nil {
		return 0, err
	}
	return ep.tds[t].n, nil
}

// LoadRelation bulk-creates (or replaces the contents of) a table from
// an in-memory relation. It is the fast path the benchmarks use to
// install generated datasets without going through INSERT parsing, and
// it stores what INSERT would: every cell coerced to the kind of its
// column — the table's over an existing table, the relation's for a new
// one — or, if one cell cannot be, nothing. It commits on its own,
// waiting while a transaction is open.
func (db *DB) LoadRelation(r *relation.Relation) error {
	db.lockW(nil)
	defer db.unlockW(nil)
	if err := db.writable(); err != nil {
		return err
	}
	key := lowerName(r.Schema.Name)
	t, ok := db.curW.tables[key]
	schema := r.Schema
	if ok {
		if t.Schema.Width() != r.Schema.Width() {
			return fmt.Errorf("sql: LoadRelation: width mismatch for %s", r.Schema.Name)
		}
		schema = t.Schema
	}
	rows := make([]relation.Tuple, len(r.Rows))
	for i, row := range r.Rows {
		rows[i] = row.Clone()
		if err := coerceRow(schema, rows[i]); err != nil {
			return fmt.Errorf("sql: LoadRelation, row %d: %w", i, err)
		}
	}
	if err := db.logLoadRelation(r.Schema, rows); err != nil {
		return err
	}
	if ok {
		rs, _ := rowSet{}.appended(schema, rows)
		db.applyWholesale(t, rs)
		return nil
	}
	t = &Table{Name: r.Schema.Name, Schema: r.Schema}
	ne := db.forkEpochW()
	ne.tables = cloneTables(ne.tables)
	ne.tables[key] = t
	ne.tds[t] = newTableData(schema, rows, nil)
	ne.ddlVersion++
	db.curW = ne
	return nil
}

// Snapshot copies a table back out as a relation, from the published
// epoch — lock-free, concurrent writers proceed.
func (db *DB) Snapshot(name string) (*relation.Relation, error) {
	ep := db.cur.Load()
	t, err := ep.table(name)
	if err != nil {
		return nil, err
	}
	td := ep.tds[t]
	out := relation.New(t.Schema)
	out.Rows = make([]relation.Tuple, td.n)
	w := t.Schema.Width()
	cells := make([]relation.Value, 0, td.n*w)
	for p, si := 0, 0; p < td.n; p++ {
		r := td.ref(p, &si)
		cells = r.tuple(cells, w)
		out.Rows[p] = cells[p*w : (p+1)*w : (p+1)*w]
	}
	return out, nil
}

// CreateIndex registers a secondary index.
func (db *DB) CreateIndex(name, table string, cols []string) error {
	db.lockW(nil)
	defer db.unlockW(nil)
	return db.createIndex(name, table, cols)
}

func (db *DB) createIndex(name, table string, cols []string) error {
	if err := db.writable(); err != nil {
		return err
	}
	t, err := db.table(table)
	if err != nil {
		return err
	}
	idx := &Index{Name: name}
	for _, c := range cols {
		j := t.Schema.Index(c)
		if j < 0 {
			return fmt.Errorf("sql: no column %s in %s", c, table)
		}
		idx.Cols = append(idx.Cols, j)
	}
	td := db.curW.tds[t]
	for _, sl := range td.indexes {
		if sl.idx.Name == name {
			return fmt.Errorf("sql: index %s already exists on %s", name, table)
		}
	}
	if err := db.logCreateIndex(name, table, cols); err != nil {
		return err
	}
	nidx := make([]indexSlot, len(td.indexes)+1)
	copy(nidx, td.indexes)
	nidx[len(td.indexes)] = indexSlot{idx: idx, data: &indexData{}}
	ntd := &tableData{rowSet: td.rowSet, version: td.version, indexes: nidx}
	ne := db.forkEpochW()
	ne.tds[t] = ntd
	ne.ddlVersion++
	db.curW = ne
	return nil
}

// --- copy-on-write epoch transitions (DML) ---
//
// Each transition forks the writer head with one table's data
// replaced, sharing every structure the statement provably did not
// disturb. What the old in-place maintenance hooks (rowsAppended,
// updateBegin/End, rowsDeleted, truncated) did under the write lock
// is now the delta applied while building the fork; readers of older
// epochs keep their frozen view.

// applyAppend installs rows appended to t. Index structures are shared
// wholesale — appends are exactly what their lazy fenced extension
// absorbs — and the rows go into the segments' columns (rowSet.appended).
func (db *DB) applyAppend(t *Table, newRows []relation.Tuple) {
	td := db.curW.tds[t]
	rs, cells := td.appended(t.Schema, newRows)
	db.copied(cells, 0)
	db.installTD(t, &tableData{rowSet: rs, version: td.version + 1, indexes: td.indexes})
}

// appended returns the rows with newRows, of schema s, appended, and the
// cells it wrote. The tail takes rows until it holds segRows, its
// vectors appended in place while their capacity lasts: cells beyond
// their lengths are invisible to older epochs, and only the writer head's
// lineage appends to them (see segment). Rows beyond segRows start fresh
// segments. A segment that fills, or stops being the tail, is sealed.
func (rs rowSet) appended(s *relation.Schema, newRows []relation.Tuple) (rowSet, int) {
	out := rowSet{segs: rs.segs[:len(rs.segs):len(rs.segs)], n: rs.n + len(newRows)} // the epoch forked from lists the same array
	cells := 0
	if k := len(out.segs) - 1; k >= 0 && len(newRows) > 0 {
		out.segs = slices.Clone(out.segs)
		sg := &out.segs[k]
		if m := min(segRows-sg.n, len(newRows)); m > 0 {
			sg.cols = slices.Clone(sg.cols)
			cells += sg.push(newRows[:m])
			newRows = newRows[m:]
		}
		sg.seal(len(newRows) > 0)
	}
	for len(newRows) > 0 {
		m := min(segRows, len(newRows))
		sg := segment{start: out.n - len(newRows), cols: make([]colVec, s.Width())}
		for ci, a := range s.Attrs {
			sg.cols[ci] = newColVec(a, m)
		}
		cells += sg.push(newRows[:m])
		newRows = newRows[m:]
		sg.seal(len(newRows) > 0)
		out.segs = append(out.segs, sg)
	}
	return out, cells
}

// push appends rows to the segment's columns, which the caller owns,
// and returns the cells written.
func (sg *segment) push(rows []relation.Tuple) int {
	for ci := range sg.cols {
		v := &sg.cols[ci]
		for _, row := range rows {
			v.push(row[ci])
		}
	}
	sg.n += len(rows)
	return len(rows) * len(sg.cols)
}

// seal seals the segment's columns if it is full or, by more, not its
// table's tail: in place, so its header array must be the caller's —
// a sealed one is left as it is, and an unsealed one shared with an
// older epoch is copied first.
func (sg *segment) seal(more bool) {
	if !more && sg.n < segRows || sg.sealed() {
		return
	}
	sg.cols = slices.Clone(sg.cols)
	for ci := range sg.cols {
		sg.cols[ci].seal()
	}
}

func (sg *segment) sealed() bool {
	for ci := range sg.cols {
		if !sg.cols[ci].sealed() {
			return false
		}
	}
	return true
}

// copied adds what one DML fork wrote to the CellsCopied counters: cells
// in all, seg of them into column segments.
func (db *DB) copied(cells, seg int) {
	db.work[wCellsCopied].Add(int64(cells))
	db.work[wSegCellsCopied].Add(int64(seg))
}

// wrote adds one DML statement's selected and written rows to the
// RowsMatched / RowsWritten counters.
func (db *DB) wrote(matched, written int) {
	db.work[wRowsMatched].Add(int64(matched))
	db.work[wRowsWritten].Add(int64(written))
}

// applyUpdate installs an UPDATE of setCols at row positions pos
// (ascending); vals[i] holds pos[i]'s new values aligned to setCols.
// Indexes reading none of the assigned columns share their structures
// (this keeps the detector's SV/MV flag writes from ever disturbing the
// RID index); overlapping indexes restart never-built, as under
// applyWholesale, and the next probe rebuilds them. Segments holding no
// changed position are shared, the others fork: their assigned columns
// are copied and patched, the rest shared (segment.forkUpdated).
func (db *DB) applyUpdate(t *Table, pos []int, setCols []int, vals [][]relation.Value) {
	td := db.curW.tds[t]
	ntd := &tableData{rowSet: rowSet{segs: slices.Clone(td.segs), n: td.n}, version: td.version + 1}
	cells := 0
	for i, si := 0, 0; i < len(pos); {
		si = td.segAt(pos[i], si)
		sg := &ntd.segs[si]
		j := i + sort.SearchInts(pos[i:], sg.start+sg.n)
		cells += sg.forkUpdated(pos[i:j], setCols, vals[i:j], si < len(ntd.segs)-1)
		i = j
	}
	if len(td.indexes) > 0 {
		ntd.indexes = make([]indexSlot, len(td.indexes))
		for i, sl := range td.indexes {
			if overlaps(sl.idx.Cols, setCols) {
				sl.data = &indexData{}
			}
			ntd.indexes[i] = sl
		}
	}
	db.copied(cells, cells)
	db.installTD(t, ntd)
}

// applyDelete installs a DELETE of the rows at positions dels
// (ascending, pre-delete positions). Surviving positions shift down
// by the number of deleted positions below them; neither keys nor
// relative order change, so every built index structure forks by one
// filter-and-remap pass (none for an ident one), and the segments that
// lost rows are rebuilt (segsDeleted).
func (db *DB) applyDelete(t *Table, dels []int) {
	td := db.curW.tds[t]
	ntd := &tableData{version: td.version + 1}
	var seg int
	ntd.rowSet, seg = td.segsDeleted(t, dels)
	cells := seg
	if len(td.indexes) > 0 {
		ntd.indexes = make([]indexSlot, len(td.indexes))
		for i, sl := range td.indexes {
			nd, k := sl.data.forkDeleted(t, dels)
			ntd.indexes[i], cells = indexSlot{idx: sl.idx, data: nd}, cells+k
		}
	}
	db.copied(cells, seg)
	db.installTD(t, ntd)
}

// applyTruncate installs an empty row store with no segment. Built index
// structures fork to built-empty with fresh allocations (an in-place
// [:0] would alias backing arrays across lineages); never-built
// structures stay lazy so an unprobed index keeps costing nothing.
func (db *DB) applyTruncate(t *Table) {
	td := db.curW.tds[t]
	ntd := &tableData{version: td.version + 1}
	if len(td.indexes) > 0 {
		ntd.indexes = make([]indexSlot, len(td.indexes))
		for i, sl := range td.indexes {
			ntd.indexes[i] = indexSlot{idx: sl.idx, data: sl.data.forkTruncated(t)}
		}
	}
	db.installTD(t, ntd)
}

// applyWholesale installs a full row replacement (LoadRelation over
// an existing table, transaction rollback). No per-row delta exists,
// so every index forks to never-built and the next probe pays a full
// rebuild — the epoch version of mark-dirty-and-rebuild.
func (db *DB) applyWholesale(t *Table, rs rowSet) {
	td := db.curW.tds[t]
	ntd := &tableData{rowSet: rs, version: td.version + 1}
	if len(td.indexes) > 0 {
		ntd.indexes = make([]indexSlot, len(td.indexes))
		for i, sl := range td.indexes {
			ntd.indexes[i] = indexSlot{idx: sl.idx, data: &indexData{}}
		}
	}
	db.installTD(t, ntd)
}

// restored is rs for a rollback to reinstall: the same columns, with no
// spare capacity and no writer's index — the lineage rolled back may
// have appended into them, and a pinned reader may still see those rows.
func (rs rowSet) restored() rowSet {
	segs := slices.Clone(rs.segs)
	for i := range segs {
		cols := make([]colVec, len(segs[i].cols))
		for ci := range cols {
			cols[ci] = segs[i].cols[ci].cut(segs[i].n)
		}
		segs[i].cols = cols
	}
	return rowSet{segs: segs, n: rs.n}
}

// overlaps reports whether an index column list reads any of cols.
func overlaps(idxCols, cols []int) bool {
	for _, c := range cols {
		for _, ic := range idxCols {
			if c == ic {
				return true
			}
		}
	}
	return false
}

// --- segments: lookup and forks ---

// span returns the positions segment si covers in this epoch: n rows from
// base.
func (rs *rowSet) span(si int) (base, n int) {
	return rs.segs[si].start, rs.segs[si].n
}

// segAt returns the segment holding position p, trying hint first: a
// level's candidates mostly continue where the last one was.
func (rs *rowSet) segAt(p, hint int) int {
	if base, n := rs.span(hint); uint(p-base) < uint(n) {
		return hint
	}
	lo, hi := 0, len(rs.segs) // the last segment starting at or before p
	for hi-lo > 1 {
		if mid := int(uint(lo+hi) >> 1); rs.segs[mid].start <= p {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// forkUpdated forks the segment in place — sg is the new epoch's entry —
// for an UPDATE of setCols at positions pos inside it: the assigned
// columns are cloned and patched, a coded one appending new strings to
// its dictionary, and sealed again if the segment is full or inner — not
// its table's tail; the others are shared capacity-clipped. Returns the
// cells written.
func (sg *segment) forkUpdated(pos []int, setCols []int, vals [][]relation.Value, inner bool) int {
	cols, cells := make([]colVec, len(sg.cols)), 0
	for ci := range sg.cols {
		v := sg.cols[ci].cut(sg.n)
		if j := slices.Index(setCols, ci); j >= 0 {
			v.vals, v.codes, v.post = slices.Clone(v.vals), slices.Clone(v.codes), nil
			for i, ri := range pos {
				if v.codes == nil {
					v.vals[ri-sg.start] = vals[i][j]
				} else {
					v.codes = v.codes[:ri-sg.start] // push writes the cell in place
					v.push(vals[i][j])
					v.codes = v.codes[:sg.n]
				}
			}
			v.dictBounded()
			if inner || sg.n == segRows {
				v.seal()
			}
			cells += sg.n
		}
		cols[ci] = v
	}
	sg.cols = cols
	return cells
}

// segPart is one segment's contribution to a rebuilt one: its rows from
// position start on, in the epoch forked from, minus those at dels.
type segPart struct {
	segment
	dels []int
}

// segsDeleted forks the rows for a DELETE of positions dels (ascending).
// A segment that loses no row is shared, at its shifted start; one that
// loses all of them is dropped; the others are rebuilt, their columns
// compacted — each together with the neighbours it now fits in one
// segment with, which keeps the table within its bound (see segment)
// under any churn. Returns the cells written too.
func (td *tableData) segsDeleted(t *Table, dels []int) (rowSet, int) {
	out := rowSet{segs: make([]segment, 0, len(td.segs))}
	var parts []segPart // the segment being assembled: its parts and rows
	size, cells := 0, 0
	flush := func() {
		sg := segment{start: out.n, n: size}
		if len(parts) == 1 && len(parts[0].dels) == 0 {
			sg.cols = parts[0].cols
		} else {
			var k int
			sg.cols, k = rebuildSeg(t, parts, size)
			cells += k
		}
		out.segs, out.n, size, parts = append(out.segs, sg), out.n+size, 0, parts[:0]
	}
	for _, sg := range td.segs {
		k := sort.SearchInts(dels, sg.start+sg.n)
		if live := sg.n - k; live > 0 {
			if size+live > segRows {
				flush()
			}
			parts, size = append(parts, segPart{sg, dels[:k]}), size+live
		}
		dels = dels[k:]
	}
	if len(parts) > 0 {
		flush()
	}
	for i := range out.segs {
		out.segs[i].seal(i < len(out.segs)-1)
	}
	return out, cells
}

// rebuildSeg builds the columns of the segment holding what is left of
// parts, in order: n rows. A lone part whose survivors are one run — the
// oldest rows deleted, or the newest — shares its vectors cut to the run;
// otherwise the first part keeps its dictionary and the cells of the
// others are pushed onto it. Returns the cells written too.
func rebuildSeg(t *Table, parts []segPart, n int) ([]colVec, int) {
	cols := make([]colVec, t.Schema.Width())
	if lo, ok := parts[0].run(); ok && len(parts) == 1 {
		for ci := range cols {
			pv := &parts[0].cols[ci]
			if pv.codes == nil {
				cols[ci] = colVec{vals: pv.vals[lo : lo+n : lo+n]}
				continue
			}
			cols[ci] = colVec{codes: pv.codes[lo : lo+n : lo+n], dict: pv.dict[:len(pv.dict):len(pv.dict)], perm: pv.perm}
			cols[ci].dictBounded()
		}
		return cols, 0
	}
	for ci := range cols {
		v := &cols[ci]
		for pi, p := range parts {
			pv := p.cols[ci].cut(p.n)
			switch {
			case pi > 0: // a later part: pushed
				for i, dels := 0, p.dels; i < p.n; i++ {
					if len(dels) > 0 && dels[0] == p.start+i {
						dels = dels[1:]
					} else {
						v.push(pv.at(i))
					}
				}
			case pv.codes == nil: // the first part, compacted
				*v = colVec{vals: appendWithout(make([]relation.Value, 0, n), pv.vals, p.dels, p.start)}
			default: // the first part, compacted, its dictionary kept
				*v = colVec{dict: pv.dict, perm: pv.perm}
				v.codes = appendWithout(make([]uint16, 0, n), pv.codes, p.dels, p.start)
				v.dictBounded()
			}
		}
	}
	return cols, n * len(cols)
}

// run reports whether the part's surviving rows are one run of offsets,
// and the run's first offset: the deleted ones are a prefix and a suffix.
func (p *segPart) run() (int, bool) {
	lo := 0
	for lo < len(p.dels) && p.dels[lo] == p.start+lo {
		lo++
	}
	for i, d := range p.dels[lo:] {
		if d != p.start+p.n-len(p.dels)+lo+i {
			return 0, false
		}
	}
	return lo, true
}

// appendWithout appends v to out minus the elements at the ascending
// positions dels, which count from base (those beyond v are ignored),
// copying the surviving runs between deleted positions wholesale.
func appendWithout[T any](out, v []T, dels []int, base int) []T {
	from := 0
	for _, d := range dels[:sort.SearchInts(dels, base+len(v))] {
		out = append(out, v[from:d-base]...)
		from = d - base + 1
	}
	return append(out, v[from:]...)
}

// --- index structures: fenced access and forks ---

// indexData returns idx's structures in this epoch, or nil if the
// index does not exist here.
func (td *tableData) indexData(idx *Index) *indexData {
	for _, sl := range td.indexes {
		if sl.idx == idx {
			return sl.data
		}
	}
	return nil
}

// eqView is one reader's equality-probe access to an index: the
// in-order positions cut to the reader's fence when they serve it
// (s != nil), the hash map d otherwise. It is small on purpose — every
// probe kernel of every statement execution holds one.
type eqView struct {
	s   []int
	td  *tableData
	idx *Index
	d   *indexData
}

// ordered reports whether probes binary-search the in-order positions.
func (v *eqView) ordered() bool { return v.s != nil }

// lookupEq resolves how this epoch's equality probes on idx are
// answered, from what is already built: the equality map if it covers
// the fence; else the in-order positions if something ranged or
// ordered over the index built them and they serve the fence — by
// binary search, nothing encoded or hashed; else the map is built (or
// extended) now. Since DELETE and TRUNCATE forks keep only the order
// when both exist, an index that is read in order settles on the order
// and no per-key structure follows its table through DML, while an
// index only ever probed for equality keeps its O(1) map. Callers probe
// per row through the view, never holding the structure lock across
// expression evaluation.
func (td *tableData) lookupEq(t *Table, idx *Index) eqView {
	d := td.indexData(idx)
	f := td.n
	d.mu.RLock()
	s := d.sorted
	mapped := d.m != nil && d.mCover >= f
	ordered := !mapped && s != nil && d.sBase <= f
	d.mu.RUnlock()
	if ordered {
		if len(s) < f {
			s = td.orderedOf(t, idx) // appended since: extend to the fence
		}
		return eqView{s: s[:f], td: td, idx: idx}
	}
	if !mapped {
		d.extendEq(idx, &td.rowSet, f)
	}
	return eqView{td: td, idx: idx, d: d}
}

// probe returns the ascending row positions whose index columns equal
// vals — one value per index column, in index order, none NULL.
// keyBuf is the caller's scratch for the map path's key encoding.
func (v *eqView) probe(vals []relation.Value, keyBuf *[]byte) []int {
	if v.ordered() {
		return v.within(v.s, 0, vals)
	}
	key := relation.AppendKeyOf((*keyBuf)[:0], vals)
	*keyBuf = key
	return v.probeKey(key)
}

// probeKey is probe on the map path, for callers that encode the key
// themselves.
func (v *eqView) probeKey(key []byte) []int {
	return v.d.probe(key, v.td.n)
}

// within is eqRange over the view's index, on the ordered path.
func (v *eqView) within(s []int, k0 int, vals []relation.Value) []int {
	return eqRange(&v.td.rowSet, v.idx.Cols, s, k0, vals)
}

// eqRange narrows s — positions in index order that agree on the first
// k0 index columns — to those whose next len(vals) index columns
// compare equal to vals. Equality via Compare == 0 is Identical, which
// is what the map's key encoding implements: exact across numeric
// kinds, NaN self-equal. NULL rows sort outside every equal region of a
// non-NULL probe, and callers never probe with NULL.
func eqRange(rs *rowSet, cols []int, s []int, k0 int, vals []relation.Value) []int {
	// Two hand-rolled binary searches: this runs once per probed row,
	// and sort.Search would allocate its closure each time. Once the
	// searched range lies in one segment, the hint finds every row.
	si := 0
	cmp := func(ri int) int {
		row := rs.ref(ri, &si)
		for j := range vals {
			if c := relation.Compare(row.at(cols[k0+j]), vals[j]); c != 0 {
				return c
			}
		}
		return 0
	}
	lo, hi := 0, len(s)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if cmp(s[mid]) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	from := lo
	for hi = len(s); lo < hi; {
		mid := int(uint(lo+hi) >> 1)
		if cmp(s[mid]) <= 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return s[from:lo]
}

// extendEq builds (or grows) the equality map to cover fence f.
func (d *indexData) extendEq(idx *Index, rs *rowSet, f int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.m == nil {
		d.m = make(map[string][]int, f)
		idx.rebuilds.Add(1)
	}
	key := make([]relation.Value, len(idx.Cols))
	for ri, si := d.mCover, 0; ri < f; ri++ {
		row := rs.ref(ri, &si)
		for i, c := range idx.Cols {
			key[i] = row.at(c)
		}
		k := relation.KeyOf(key)
		d.m[k] = append(d.m[k], ri)
	}
	d.mCover = max(d.mCover, f)
}

// probe returns the ascending row positions matching an encoded key,
// cut to the caller's fence. The bucket header is snapshotted under
// RLock and used after release: bucket growth only appends positions
// >= every older fence at the end, and forks replace bucket arrays
// wholesale, so the snapshotted cells are stable.
func (d *indexData) probe(key []byte, fence int) []int {
	d.mu.RLock()
	b := d.m[string(key)] // no copy: a map index converts in place
	d.mu.RUnlock()
	if n := len(b); n == 0 || b[n-1] < fence {
		return b
	}
	return b[:sort.SearchInts(b, fence)]
}

// orderedOf returns this epoch's row positions in index order (column
// values ascending, ties by position). The returned slice is
// immutable to the caller.
func (td *tableData) orderedOf(t *Table, idx *Index) []int {
	d := td.indexData(idx)
	f := td.n
	d.mu.RLock()
	s, base := d.sorted, d.sBase
	d.mu.RUnlock()
	if s != nil && base <= f && len(s) >= f {
		return s[:f]
	}
	return d.extendOrdered(t, idx, &td.rowSet, f)
}

// extendOrdered builds or grows the in-order positions to fence f.
//
// The append fast path keeps every intermediate fence valid: when the
// appended rows are already in key order position by position, the
// positions are appended verbatim — an ident order takes a longer prefix
// of the identity instead — so sorted[:g] stays a permutation of [0, g)
// for every g up to the new length: this is the detector's monotone-RID
// append. Any other extension builds [0, f) afresh, as the first build
// does: ident if the rows are in key order, else sorted, in which case
// the array is only coherent at its own fence, so sBase rises and an
// older pinned reader falls back to a transient sort. Only a build that
// replaces positions counts as a rebuild: the rows appended to the
// built-empty order TRUNCATE leaves are its build.
func (d *indexData) extendOrdered(t *Table, idx *Index, rs *rowSet, f int) []int {
	d.mu.Lock()
	s := d.sorted
	if s != nil && f < d.sBase {
		d.mu.Unlock()
		// This reader pinned its epoch before a re-sort rebased the
		// shared structure past its fence: sort a private view, uncached
		// (rare — a racing writer appended out of key order).
		return sortedPositions(idx.Cols, rs, f)
	}
	defer d.mu.Unlock()
	switch {
	case s != nil && len(s) >= f:
		return s[:f]
	case s != nil && inKeyOrder(idx.Cols, rs, s, f):
		if d.ident {
			s = t.identPrefix(f)
		}
		for ri := len(s); ri < f; ri++ {
			s = append(s, ri)
		}
		d.sorted = s
		return s
	case s == nil || len(s) > 0:
		idx.rebuilds.Add(1)
	}
	if d.ident = inKeyOrder(idx.Cols, rs, nil, f); d.ident {
		d.sorted, d.sBase = t.identPrefix(f), 0
	} else {
		d.sorted, d.sBase = sortedPositions(idx.Cols, rs, f), f
	}
	return d.sorted
}

// inKeyOrder reports whether rows [len(s), f) follow the in-order
// positions s position by position, so appending them keeps the order.
func inKeyOrder(cols []int, rs *rowSet, s []int, f int) bool {
	si := 0
	var prev rowRef
	if len(s) > 0 {
		prev = rs.ref(s[len(s)-1], &si)
	}
	for ri := len(s); ri < f; ri++ {
		row := rs.ref(ri, &si)
		if prev.bound() && compareRows(cols, &row, &prev) < 0 {
			return false
		}
		prev = row
	}
	return true
}

// sortedPositions returns positions [0, f) of rs in index order: the
// sort keys are read out of the columns once.
func sortedPositions(cols []int, rs *rowSet, f int) []int {
	keys := make([]relation.Value, 0, f*len(cols))
	for p, si := 0, 0; p < f; p++ {
		row := rs.ref(p, &si)
		for _, c := range cols {
			keys = append(keys, row.at(c))
		}
	}
	w := len(cols)
	ns := make([]int, f)
	for i := range ns {
		ns[i] = i
	}
	sort.Slice(ns, func(a, b int) bool {
		ka, kb := keys[ns[a]*w:ns[a]*w+w], keys[ns[b]*w:ns[b]*w+w]
		for i := range ka {
			if c := relation.Compare(ka[i], kb[i]); c != 0 {
				return c < 0
			}
		}
		return ns[a] < ns[b]
	})
	return ns
}

// rangeOf returns the positions whose first index column lies between
// lo and hi (each optional), as a subslice of the in-order positions —
// zero-copy, and still sorted, so a range-pruned scan can also serve
// ORDER BY. Bounds are conservative: values comparing equal to a bound
// are included, and exclusivity is left to the retained filter
// predicates, which keeps the pruning semantics-free (NaN bounds,
// mixed numeric kinds and friends all fall out of relation.Compare the
// same way the filters do). skipNullLo additionally excludes the NULL
// rows sorting before every value — required when an upper-bound
// filter was elided with no lower bound present, since the elided
// filter would have rejected NULL (a non-NULL lo excludes them anyway,
// NULLs ranking below every bounded value).
func (td *tableData) rangeOf(t *Table, idx *Index, lo, hi relation.Value, hasLo, hasHi, skipNullLo bool) []int {
	s := td.orderedOf(t, idx)
	si, c0 := 0, idx.Cols[0]
	at := func(i int) relation.Value {
		r := td.ref(s[i], &si)
		return r.at(c0)
	}
	from, to := 0, len(s)
	switch {
	case hasLo:
		from = sort.Search(len(s), func(i int) bool { return relation.Compare(at(i), lo) >= 0 })
	case skipNullLo:
		from = sort.Search(len(s), func(i int) bool { return at(i).K != relation.KindNull })
	}
	if hasHi {
		to = sort.Search(len(s), func(i int) bool { return relation.Compare(at(i), hi) > 0 })
	}
	if to < from {
		to = from
	}
	return s[from:to]
}

// forkDeleted forks the structures for a DELETE: surviving positions
// are filtered and remapped in one pass — no key encoding, no re-sort,
// and for an index read in order no per-key work at all; an ident order
// stays ident, a shorter prefix. Returns the positions written too.
func (d *indexData) forkDeleted(t *Table, dels []int) (*indexData, int) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	nd := &indexData{}
	// below counts the deleted positions under ri; deleted reports
	// whether ri itself is one, given that count.
	below := func(ri int) int { return sort.SearchInts(dels, ri) }
	deleted := func(ri, i int) bool { return i < len(dels) && dels[i] == ri }
	switch {
	case d.ident:
		nd.sorted, nd.ident = t.identPrefix(len(d.sorted)-below(len(d.sorted))), true
		return nd, 0
	case d.sorted != nil:
		keep := make([]int, 0, len(d.sorted))
		for _, ri := range d.sorted {
			if i := below(ri); !deleted(ri, i) {
				keep = append(keep, ri-i)
			}
		}
		nd.sorted, nd.sBase = keep, len(keep)
		return nd, len(keep) // equality probes binary-search it: no map to carry
	case d.m != nil:
		nm := make(map[string][]int, len(d.m))
		for k, b := range d.m {
			var keep []int
			for _, ri := range b {
				if i := below(ri); !deleted(ri, i) {
					keep = append(keep, ri-i)
				}
			}
			if len(keep) > 0 {
				nm[k] = keep
			}
		}
		nd.m = nm
		nd.mCover = d.mCover - below(d.mCover)
	}
	return nd, nd.mCover // every covered row sits in one bucket
}

// forkTruncated forks the structures for TRUNCATE: a built order becomes
// the empty ident one, a built map a fresh empty one (an in-place [:0]
// would alias backing arrays across lineages); never-built stays
// never-built.
func (d *indexData) forkTruncated(t *Table) *indexData {
	d.mu.RLock()
	defer d.mu.RUnlock()
	nd := &indexData{}
	switch {
	case d.sorted != nil:
		nd.sorted, nd.ident = t.identPrefix(0), true
	case d.m != nil:
		nd.m = make(map[string][]int)
	}
	return nd
}

// compareRows compares two rows by the index columns.
func compareRows(cols []int, a, b *rowRef) int {
	for _, c := range cols {
		if cmp := relation.Compare(a.at(c), b.at(c)); cmp != 0 {
			return cmp
		}
	}
	return 0
}

// --- access-path finders (per-epoch: indexes are catalog state) ---

// findIndex returns an index whose column set is exactly cols (in any
// order), or nil. Callers probe through lookupEq.
func (td *tableData) findIndex(cols []int) *Index {
	want := append([]int(nil), cols...)
	sort.Ints(want)
	for _, sl := range td.indexes {
		have := append([]int(nil), sl.idx.Cols...)
		sort.Ints(have)
		if len(have) != len(want) {
			continue
		}
		same := true
		for i := range have {
			if have[i] != want[i] {
				same = false
				break
			}
		}
		if same {
			return sl.idx
		}
	}
	return nil
}

// findPrefixIndex returns an index whose column list starts with
// exactly cols (in order), or nil. Unlike findIndex, order matters:
// in-order iteration only serves ORDER BY for a prefix match.
func (td *tableData) findPrefixIndex(cols []int) *Index {
	for _, sl := range td.indexes {
		idx := sl.idx
		if len(idx.Cols) < len(cols) {
			continue
		}
		ok := true
		for i, c := range cols {
			if idx.Cols[i] != c {
				ok = false
				break
			}
		}
		if ok {
			return idx
		}
	}
	return nil
}

// findRangeIndex returns an index whose first column is col, or nil —
// the shape a single-column range conjunct can prune through.
func (td *tableData) findRangeIndex(col int) *Index {
	return td.findPrefixIndex([]int{col})
}
