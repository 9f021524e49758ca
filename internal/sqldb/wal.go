package sqldb

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"sync"

	"ecfd/internal/relation"
)

// Write-ahead log.
//
// Every committed mutation appends one commit unit to the current WAL
// file before it touches the in-memory catalog. A unit is framed as
//
//	[u32 payload length][u32 CRC-32 (IEEE) of payload][payload]
//
// with little-endian integers, and its payload is a sequence of
// logical row-level operations (opInsert, opUpdate, ...) — the
// deterministic deltas the DML executors computed anyway, so replay
// needs no planner and cannot re-decide anything. The unit is the
// atomicity grain: an autocommit statement is one unit, a transaction
// buffers its operations and writes them as one unit at Commit, so a
// torn tail can only ever drop whole statements or whole transactions.
//
// Framing before payload means recovery can classify damage precisely:
// a unit whose frame runs past end-of-file or whose CRC fails *at the
// tail* is the torn final write of a crash and is truncated away; the
// same damage followed by more data is silent corruption and fails
// recovery loudly with the offset (see recovery.go).

// FsyncPolicy controls when the WAL flushes to stable storage.
type FsyncPolicy int

const (
	// FsyncAlways syncs after every commit unit: an acknowledged
	// mutation survives any crash.
	FsyncAlways FsyncPolicy = iota
	// FsyncBatched syncs every fsyncEvery units: a crash loses at most
	// the unsynced suffix, but recovers to some committed prefix.
	FsyncBatched
	// FsyncOff never syncs explicitly; the OS decides. Same prefix
	// guarantee as batched, with a larger window.
	FsyncOff
)

func (p FsyncPolicy) String() string {
	switch p {
	case FsyncBatched:
		return "batched"
	case FsyncOff:
		return "off"
	default:
		return "always"
	}
}

// ParseFsyncPolicy maps the DSN/flag spelling to a policy.
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	switch s {
	case "", "always":
		return FsyncAlways, nil
	case "batched":
		return FsyncBatched, nil
	case "off":
		return FsyncOff, nil
	}
	return FsyncAlways, fmt.Errorf("sql: unknown fsync policy %q (want always, batched or off)", s)
}

const (
	walFileMagic  = "ECFDWAL1" // 8-byte header of every WAL file
	snapFileMagic = "ECFDSNP1" // 8-byte header of every snapshot file
	walFrameSize  = 8          // u32 length + u32 crc
	// maxWALRecord bounds a single unit; a length field beyond it is
	// treated as frame corruption rather than an allocation request.
	maxWALRecord = 1 << 30
	// defaultFsyncEvery is the batched policy's sync interval in units.
	defaultFsyncEvery = 32
)

// ErrReadOnly is the sentinel wrapped by every DML/DDL error after the
// database degraded to read-only: a WAL append or fsync failed, the
// in-memory state was left untouched, and only queries keep serving.
// Match with errors.Is(err, sqldb.ErrReadOnly).
var ErrReadOnly = errors.New("sql: database is read-only after a WAL failure")

// ErrCorrupt is the sentinel wrapped by every error for a commit unit or
// a snapshot that does not decode into operations its catalog admits —
// bytes no crash explains, which Open reports instead of guessing.
// Match with errors.Is(err, sqldb.ErrCorrupt).
var ErrCorrupt = errors.New("corrupt")

// walState is the per-DB durability state. All fields are guarded by
// db.mu (write): every mutation, and therefore every append, runs
// under the catalog write lock, which is exactly the "existing write
// lock" the WAL rides on.
type walState struct {
	fs     WALFS
	dir    string
	policy FsyncPolicy
	every  int   // FsyncBatched: sync every N units
	ckpt   int64 // checkpoint threshold in WAL bytes; 0 = never

	f        WALFile
	gen      uint64
	size     int64
	unsynced int

	// pend buffers the active transaction's operations in program
	// order. Commit concatenates them into one unit — the whole
	// transaction becomes atomic under a torn tail. Rollback keeps only
	// the DDL operations: the engine never rolls DDL back (a table
	// created inside a rolled-back transaction survives, empty), so the
	// log must not drop it either, while the rolled-back DML vanishes
	// from both memory and log.
	pend []pendOp

	// replaying suppresses logging while recovery re-applies the tail:
	// replayed mutations are already in the log.
	replaying bool

	buf []byte // frame assembly scratch

	// curPending, when non-nil, is the group-commit ticket of the
	// statement currently executing under db.mu: its unit is appended
	// but not yet fsynced, so its epoch must not publish until the
	// group leader (or an absorb) makes it durable. Set by walCommit,
	// taken by takePending before the statement releases db.mu —
	// outside a statement's critical section it is always nil.
	curPending *walPending

	// gc coordinates deferred group commit across statements.
	gc groupCommit
}

// walPending is one statement's deferred-durability ticket: the WAL
// size that must be fsynced before the statement may acknowledge, and
// the epoch to publish once it is.
type walPending struct {
	target int64
	f      WALFile // generation file holding the unit
	ep     *epoch  // assigned at takePending (end of statement)
	done   bool
	err    error
}

// groupCommit batches the fsyncs of concurrent autocommit DML under
// the always policy: each statement appends its unit under db.mu,
// registers a pending and releases the lock, then waits. The first
// waiter becomes the leader, issues one Sync covering every
// registered unit, and resolves the whole group — one disk flush
// amortized over all concurrent commits.
//
// Lock order is strictly db.mu → gc.mu; the leader holds neither
// during the Sync itself. syncedTo (durable bytes of the current
// generation) is guarded by db.mu — every writer of it holds db.mu —
// while pendings/syncing/maxTarget are guarded by gc.mu so waiters
// can block without db.mu.
type groupCommit struct {
	mu        sync.Mutex
	cond      *sync.Cond
	pendings  []*walPending
	syncing   bool
	maxTarget int64
	syncedTo  int64
}

func (gc *groupCommit) init() {
	if gc.cond == nil {
		gc.cond = sync.NewCond(&gc.mu)
	}
}

// writable returns nil when mutations are allowed, or the typed
// read-only error carrying the original I/O failure. Callers hold
// db.mu.
func (db *DB) writable() error {
	if db.roErr != nil {
		return fmt.Errorf("%w: %v", ErrReadOnly, db.roErr)
	}
	return nil
}

// ReadOnly reports whether the database has degraded to read-only,
// and the I/O failure that caused it.
func (db *DB) ReadOnly() (bool, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.roErr != nil, db.roErr
}

// Durable reports whether the database has a WAL attached.
func (db *DB) Durable() bool {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.wal != nil
}

// pendOp is one buffered operation of the active transaction.
type pendOp struct {
	op  []byte
	ddl bool
}

// logging reports whether mutations should append WAL operations.
// Callers hold db.mu (write).
func (db *DB) logging() bool { return db.wal != nil && !db.wal.replaying }

// walLog routes one encoded operation: buffered while a transaction is
// active, otherwise committed as its own unit. Callers hold db.mu and
// have already passed writable(); they must apply the in-memory
// mutation only if walLog returns nil — log-before-apply is what keeps
// a failed append from corrupting state.
func (db *DB) walLog(op []byte, ddl bool) error {
	w := db.wal
	if db.activeTx != nil {
		w.pend = append(w.pend, pendOp{op: op, ddl: ddl})
		return nil
	}
	return db.walCommit(op, false, !ddl)
}

// walCommit appends one commit unit and runs the fsync policy; on
// failure the database degrades to read-only and the typed error is
// returned.
//
// group selects deferred group commit: under the always policy an
// autocommit DML unit is appended without its own fsync, a pending is
// registered, and the statement's outer caller waits for the group
// leader to flush (awaitDurable) after releasing db.mu — so
// concurrent writers share one Sync. Everything else (DDL,
// LoadRelation, transaction commit, checkpoint-due units) first
// absorbs any outstanding group, then syncs inline as before.
//
// The threshold checkpoint must preserve the invariant that snapshot
// generation g captures exactly the units of WAL generations below g:
// with log-before-apply (autocommit DML, applied=false) memory does
// not yet reflect this unit, so a due checkpoint runs BEFORE the
// append and the unit lands in the fresh generation; at transaction
// commit (applied=true) memory is already ahead of the log, so the
// checkpoint runs AFTER the append, once snapshot state and logged
// units agree again. Either way the unit is never stranded in a
// generation whose snapshot misses it.
func (db *DB) walCommit(payload []byte, applied, group bool) error {
	if err := db.writable(); err != nil {
		return err
	}
	w := db.wal
	due := func() bool { return w.ckpt > 0 && w.size >= w.ckpt }
	if group && w.policy == FsyncAlways && !due() {
		pre := w.size
		if err := w.appendRaw(payload); err != nil {
			db.roErr = fmt.Errorf("wal append (gen %d): %v", w.gen, err)
			return db.writable()
		}
		if w.size == pre {
			return nil
		}
		p := &walPending{target: w.size, f: w.f}
		w.gc.init()
		w.gc.mu.Lock()
		w.gc.pendings = append(w.gc.pendings, p)
		if p.target > w.gc.maxTarget {
			w.gc.maxTarget = p.target
		}
		w.gc.mu.Unlock()
		w.curPending = p
		return nil
	}
	if err := db.absorbPendings(); err != nil {
		return db.writable()
	}
	if !applied && due() {
		if err := db.checkpointLocked(); err != nil {
			db.roErr = fmt.Errorf("checkpoint: %v", err)
			return db.writable()
		}
	}
	if err := w.appendUnit(payload); err != nil {
		db.roErr = fmt.Errorf("wal append (gen %d): %v", w.gen, err)
		return db.writable()
	}
	if applied && due() {
		if err := db.checkpointLocked(); err != nil {
			// The unit above is durable and applied; only future
			// mutations are refused.
			db.roErr = fmt.Errorf("checkpoint: %v", err)
		}
	}
	return nil
}

// takePending hands the statement its group-commit ticket, assigning
// the epoch the group leader publishes once the unit is durable.
// Called under db.mu at the very end of a mutating statement; the
// caller must invoke awaitDurable on the result after releasing
// db.mu.
func (db *DB) takePending() *walPending {
	if db.wal == nil || db.wal.curPending == nil {
		return nil
	}
	p := db.wal.curPending
	db.wal.curPending = nil
	p.ep = db.curW
	return p
}

// awaitDurable blocks until the pending's unit is fsynced (and its
// epoch published) or the group fails. The first waiter of an
// unsynced group becomes the leader. Callers hold no locks.
func (db *DB) awaitDurable(p *walPending) error {
	gc := &db.wal.gc
	gc.mu.Lock()
	for !p.done {
		if !gc.syncing {
			gc.syncing = true
			gc.mu.Unlock()
			db.leadSync(p.f)
			gc.mu.Lock()
			continue
		}
		gc.cond.Wait()
	}
	err := p.err
	gc.mu.Unlock()
	return err
}

// leadSync is the group leader: one Sync for every unit registered
// before it started, then resolution under db.mu → gc.mu. Pendings
// registered during the Sync stay queued; the broadcast wakes their
// waiters and one of them leads the next round.
func (db *DB) leadSync(f WALFile) {
	w := db.wal
	gc := &w.gc
	gc.mu.Lock()
	target := gc.maxTarget
	gc.mu.Unlock()
	err := f.Sync()
	db.mu.Lock()
	gc.mu.Lock()
	gc.syncing = false
	if len(gc.pendings) == 0 {
		// A checkpoint/Close/inline commit absorbed the group while we
		// were syncing; nothing left to resolve.
		gc.cond.Broadcast()
		gc.mu.Unlock()
		db.mu.Unlock()
		return
	}
	if err == nil {
		if target > gc.syncedTo {
			gc.syncedTo = target
		}
		w.unsynced = 0
		keep := gc.pendings[:0]
		for _, p := range gc.pendings {
			if p.target <= gc.syncedTo {
				db.publish(p.ep)
				p.done = true
			} else {
				keep = append(keep, p)
			}
		}
		gc.pendings = keep
	} else {
		db.failGroupLocked(fmt.Errorf("wal group fsync (gen %d): %v", w.gen, err))
	}
	gc.cond.Broadcast()
	gc.mu.Unlock()
	db.mu.Unlock()
}

// failGroupLocked handles a group fsync failure: the database
// degrades to read-only, the unsynced tail (whose durability is
// indeterminate) is truncated away, the writer head rewinds to the
// published epoch — discarding the never-published epochs of the
// failed units — and every pending resolves with the typed error.
// Callers hold db.mu and gc.mu.
func (db *DB) failGroupLocked(cause error) {
	w := db.wal
	gc := &w.gc
	db.roErr = cause
	w.discardTail(gc.syncedTo)
	db.curW = db.cur.Load()
	roe := db.writable()
	for _, p := range gc.pendings {
		p.err = roe
		p.done = true
	}
	gc.pendings = nil
}

// absorbPendings resolves any outstanding group with its own inline
// Sync instead of waiting for a leader (which may need the db.mu we
// hold — waiting would deadlock). Called under db.mu by every
// non-group commit path, by checkpoints before rotating the WAL, and
// by Close. A leader finishing afterwards finds the group empty and
// becomes a no-op.
func (db *DB) absorbPendings() error {
	w := db.wal
	if w == nil {
		return nil
	}
	gc := &w.gc
	gc.mu.Lock()
	n := len(gc.pendings)
	gc.mu.Unlock()
	if n == 0 {
		return nil
	}
	err := w.f.Sync()
	gc.mu.Lock()
	if err == nil {
		gc.syncedTo = w.size
		w.unsynced = 0
		for _, p := range gc.pendings {
			db.publish(p.ep)
			p.done = true
		}
		gc.pendings = nil
	} else {
		db.failGroupLocked(fmt.Errorf("wal group fsync (gen %d): %v", w.gen, err))
	}
	gc.cond.Broadcast()
	gc.mu.Unlock()
	return err
}

// appendUnit frames and writes one unit as a single Write call, then
// syncs per policy. On any failure the partial unit is truncated away
// (best-effort): the operation reported an error, so it must not
// silently reappear on the next recovery just because its bytes had
// already reached the page cache.
func (w *walState) appendUnit(payload []byte) error {
	pre := w.size
	if err := w.appendRaw(payload); err != nil {
		return err
	}
	if w.size == pre {
		return nil // empty payload
	}
	w.unsynced++
	switch w.policy {
	case FsyncAlways:
		w.unsynced = 0
		if err := w.f.Sync(); err != nil {
			w.discardTail(pre)
			return err
		}
		w.gc.syncedTo = w.size
	case FsyncBatched:
		if w.unsynced >= w.every {
			w.unsynced = 0
			if err := w.f.Sync(); err != nil {
				w.discardTail(pre)
				return err
			}
			w.gc.syncedTo = w.size
		}
	}
	return nil
}

// appendRaw frames and writes one unit without syncing.
func (w *walState) appendRaw(payload []byte) error {
	if len(payload) == 0 {
		return nil
	}
	if len(payload) > maxWALRecord {
		return fmt.Errorf("unit of %d bytes exceeds the %d-byte record limit", len(payload), maxWALRecord)
	}
	w.buf = w.buf[:0]
	w.buf = binary.LittleEndian.AppendUint32(w.buf, uint32(len(payload)))
	w.buf = binary.LittleEndian.AppendUint32(w.buf, crc32.ChecksumIEEE(payload))
	w.buf = append(w.buf, payload...)
	pre := w.size
	n, err := w.f.Write(w.buf)
	w.size += int64(n)
	if err == nil && n < len(w.buf) {
		err = fmt.Errorf("short write: %d of %d bytes", n, len(w.buf))
	}
	if err != nil {
		w.discardTail(pre)
		return err
	}
	return nil
}

// discardTail best-effort truncates the current WAL file back to pre,
// removing a unit whose append failed and whose durability is
// therefore indeterminate. If the truncate itself fails the database
// is degrading to read-only anyway and recovery's torn-tail handling
// owns the leftovers.
func (w *walState) discardTail(pre int64) {
	if w.size == pre {
		return
	}
	if err := w.fs.Truncate(w.walPath(w.gen), pre); err == nil {
		w.size = pre
	}
}

// --- operation encoding ---

// Operation codes. Each operation is [1 byte code][body]; a commit
// unit's payload is a concatenation of operations.
const (
	opInsert byte = iota + 1
	opDelete
	opUpdate
	opTruncate
	opCreateTable
	opDropTable
	opCreateIndex
	opLoadRelation
)

func appendUint(b []byte, x uint64) []byte { return binary.AppendUvarint(b, x) }

func appendStr(b []byte, s string) []byte {
	b = appendUint(b, uint64(len(s)))
	return append(b, s...)
}

// appendValue encodes one value as [1 byte kind][kind-specific body].
func appendValue(b []byte, v relation.Value) []byte {
	b = append(b, byte(v.K))
	switch v.K {
	case relation.KindNull:
	case relation.KindBool, relation.KindInt:
		b = binary.AppendVarint(b, v.I)
	case relation.KindFloat:
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v.F))
	case relation.KindText:
		b = appendStr(b, v.S)
	}
	return b
}

func appendTuple(b []byte, row relation.Tuple) []byte {
	b = appendUint(b, uint64(len(row)))
	for _, v := range row {
		b = appendValue(b, v)
	}
	return b
}

func appendSchema(b []byte, s *relation.Schema) []byte {
	b = appendStr(b, s.Name)
	b = appendUint(b, uint64(len(s.Attrs)))
	for _, a := range s.Attrs {
		b = appendStr(b, a.Name)
		b = append(b, byte(a.Kind))
		b = appendUint(b, uint64(len(a.Domain)))
		for _, v := range a.Domain {
			b = appendValue(b, v)
		}
	}
	return b
}

// logInsert records rows appended to a table.
func (db *DB) logInsert(table string, rows []relation.Tuple) error {
	if !db.logging() || len(rows) == 0 {
		return nil
	}
	op := []byte{opInsert}
	op = appendStr(op, table)
	op = appendUint(op, uint64(len(rows)))
	for _, r := range rows {
		op = appendTuple(op, r)
	}
	return db.walLog(op, false)
}

// logDelete records the removal of the rows at positions pos
// (ascending, pre-delete positions).
func (db *DB) logDelete(table string, pos []int) error {
	if !db.logging() || len(pos) == 0 {
		return nil
	}
	op := []byte{opDelete}
	op = appendStr(op, table)
	op = appendUint(op, uint64(len(pos)))
	for _, p := range pos {
		op = appendUint(op, uint64(p))
	}
	return db.walLog(op, false)
}

// logUpdate records an assignment of cols at row positions pos; vals
// holds one value slice per position, aligned with cols.
func (db *DB) logUpdate(table string, pos, cols []int, vals [][]relation.Value) error {
	if !db.logging() || len(pos) == 0 {
		return nil
	}
	op := []byte{opUpdate}
	op = appendStr(op, table)
	op = appendUint(op, uint64(len(cols)))
	for _, c := range cols {
		op = appendUint(op, uint64(c))
	}
	op = appendUint(op, uint64(len(pos)))
	for i, p := range pos {
		op = appendUint(op, uint64(p))
		for _, v := range vals[i] {
			op = appendValue(op, v)
		}
	}
	return db.walLog(op, false)
}

func (db *DB) logTruncate(table string) error {
	if !db.logging() {
		return nil
	}
	op := []byte{opTruncate}
	op = appendStr(op, table)
	return db.walLog(op, false)
}

func (db *DB) logCreateTable(s *relation.Schema) error {
	if !db.logging() {
		return nil
	}
	op := []byte{opCreateTable}
	op = appendSchema(op, s)
	return db.walLog(op, true)
}

func (db *DB) logDropTable(table string) error {
	if !db.logging() {
		return nil
	}
	op := []byte{opDropTable}
	op = appendStr(op, table)
	return db.walLog(op, true)
}

func (db *DB) logCreateIndex(name, table string, cols []string) error {
	if !db.logging() {
		return nil
	}
	op := []byte{opCreateIndex}
	op = appendStr(op, name)
	op = appendStr(op, table)
	op = appendUint(op, uint64(len(cols)))
	for _, c := range cols {
		op = appendStr(op, c)
	}
	return db.walLog(op, true)
}

func (db *DB) logLoadRelation(s *relation.Schema, rows []relation.Tuple) error {
	if !db.logging() {
		return nil
	}
	op := []byte{opLoadRelation}
	op = appendSchema(op, s)
	op = appendUint(op, uint64(len(rows)))
	for _, row := range rows {
		op = appendTuple(op, row)
	}
	return db.walLog(op, true)
}

// --- operation decoding ---

// walDecoder walks an encoded byte stream; the first malformed read
// latches err, which names the offset it failed at, and every later read
// returns zero values, so decode loops check err once at the end.
type walDecoder struct {
	b   []byte
	off int
	err error
}

func (d *walDecoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("offset %d: %s", d.off, fmt.Sprintf(format, args...))
	}
}

func (d *walDecoder) more() bool { return d.err == nil && d.off < len(d.b) }

func (d *walDecoder) byte() byte {
	if d.err != nil {
		return 0
	}
	if d.off >= len(d.b) {
		d.fail("truncated operation")
		return 0
	}
	v := d.b[d.off]
	d.off++
	return v
}

func (d *walDecoder) uint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		d.fail("bad uvarint")
		return 0
	}
	d.off += n
	return v
}

func (d *walDecoder) int() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b[d.off:])
	if n <= 0 {
		d.fail("bad varint")
		return 0
	}
	d.off += n
	return v
}

func (d *walDecoder) str() string {
	n := d.uint()
	if d.err != nil {
		return ""
	}
	if uint64(len(d.b)-d.off) < n {
		d.fail("truncated string")
		return ""
	}
	s := string(d.b[d.off : d.off+int(n)])
	d.off += int(n)
	return s
}

func (d *walDecoder) value() relation.Value {
	k := relation.Kind(d.byte())
	switch k {
	case relation.KindNull:
		return relation.Null()
	case relation.KindBool:
		return relation.Bool(d.int() != 0)
	case relation.KindInt:
		return relation.Int(d.int())
	case relation.KindFloat:
		if d.err != nil {
			return relation.Null()
		}
		if len(d.b)-d.off < 8 {
			d.fail("truncated float")
			return relation.Null()
		}
		bits := binary.LittleEndian.Uint64(d.b[d.off:])
		d.off += 8
		return relation.Float(math.Float64frombits(bits))
	case relation.KindText:
		return relation.Text(d.str())
	}
	d.fail("unknown value kind %d", k)
	return relation.Null()
}

func (d *walDecoder) tuple() relation.Tuple {
	n := d.uint()
	if d.err != nil || n > uint64(len(d.b)-d.off) {
		d.fail("implausible tuple width %d", n)
		return nil
	}
	row := make(relation.Tuple, n)
	for i := range row {
		row[i] = d.value()
	}
	return row
}

// row decodes a row of a table of schema s, held to what the table
// stores (coerceRow): replay and the executor index rows by schema
// position, and the column cache codes every TEXT column.
func (d *walDecoder) row(s *relation.Schema) relation.Tuple {
	row := d.tuple()
	if d.err == nil {
		if err := coerceRow(s, row); err != nil {
			d.fail("%v", err)
		}
	}
	return row
}

// cell decodes a value stored into the column of attribute a (coerce).
func (d *walDecoder) cell(a relation.Attribute) relation.Value {
	v := d.value()
	if d.err != nil {
		return v
	}
	v, err := coerce(v, a.Kind, a.Name)
	if err != nil {
		d.fail("%v", err)
	}
	return v
}

// below decodes an index into something of n elements.
func (d *walDecoder) below(n int, what string) int {
	v := d.uint()
	if d.err == nil && v >= uint64(n) {
		d.fail("%s %d out of range (%d)", what, v, n)
		return 0
	}
	return int(v)
}

func (d *walDecoder) schema() *relation.Schema {
	name := d.str()
	n := d.uint()
	if d.err != nil || n > uint64(len(d.b)-d.off) {
		d.fail("implausible attribute count %d", n)
		return nil
	}
	attrs := make([]relation.Attribute, n)
	for i := range attrs {
		attrs[i].Name = d.str()
		attrs[i].Kind = relation.Kind(d.byte())
		if dn := d.uint(); dn > 0 {
			if d.err != nil || dn > uint64(len(d.b)-d.off) {
				d.fail("implausible domain size %d", dn)
				return nil
			}
			attrs[i].Domain = make([]relation.Value, dn)
			for j := range attrs[i].Domain {
				attrs[i].Domain[j] = d.value()
			}
		}
	}
	if d.err != nil {
		return nil
	}
	s, err := relation.NewSchema(name, attrs...)
	if err != nil {
		d.fail("rebuilding schema %s: %v", name, err)
		return nil
	}
	return s
}
