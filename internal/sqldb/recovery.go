package sqldb

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"sort"
	"strings"

	"ecfd/internal/relation"
)

// WALOptions configures a durable database.
type WALOptions struct {
	// Dir is the directory holding WAL and snapshot files.
	Dir string
	// FS overrides the filesystem; nil means the OS filesystem. The
	// fault-injection tests pass a MemFS here.
	FS WALFS
	// Fsync selects the flush policy (always / batched / off).
	Fsync FsyncPolicy
	// FsyncEvery is the batched policy's interval in commit units;
	// 0 means the default (32).
	FsyncEvery int
	// CheckpointBytes triggers a snapshot + WAL rotation when the WAL
	// grows past this size; 0 disables automatic checkpoints
	// (Checkpoint() remains available).
	CheckpointBytes int64
}

// RecoveryStats describes what Open had to do; tests and operators
// read it to confirm a recovery path actually ran.
type RecoveryStats struct {
	// Gen is the WAL generation now receiving appends.
	Gen uint64
	// SnapshotGen is the snapshot generation the catalog was loaded
	// from; 0 when recovery started from an empty catalog.
	SnapshotGen uint64
	// FellBack reports that the newest snapshot was missing or damaged
	// and an older generation was used instead; Skipped then names that
	// snapshot's file and why it was passed over — for one that did not
	// decode, the offset where decoding stopped.
	FellBack bool
	Skipped  string
	// UnitsReplayed counts the WAL commit units applied on top of the
	// snapshot.
	UnitsReplayed int
	// TornTail reports that a torn final record was truncated away.
	TornTail bool
}

// RecoveryStats returns the stats recorded by Open. No lock: the
// stats are written once during Open, before the DB is shared.
func (db *DB) RecoveryStats() RecoveryStats {
	return db.recov
}

// restoreTable is the mutable shape recovery builds a table in before
// the state freezes into epoch 1: plain rows and index definitions,
// no derived structures (those rebuild lazily on first use). Replay
// runs single-threaded before the DB is shared, so in-place mutation
// here is safe — the copy-on-write discipline starts at the epoch
// boundary, not before it.
type restoreTable struct {
	t       *Table
	rows    []relation.Tuple
	indexes []*Index
}

// restoreState is the whole catalog mid-recovery, keyed by lowered
// table name.
type restoreState struct {
	tables map[string]*restoreTable
}

func newRestoreState() *restoreState {
	return &restoreState{tables: make(map[string]*restoreTable)}
}

func (rs *restoreState) table(name string) (*restoreTable, error) {
	rt, ok := rs.tables[lowerName(name)]
	if !ok {
		return nil, fmt.Errorf("no table %s", name)
	}
	return rt, nil
}

// finishRestore freezes the replayed state into the DB's epoch 1.
// The epoch NewDB created is still private, so it is populated in
// place; every derived structure starts empty and builds on demand.
func (db *DB) finishRestore(rs *restoreState) {
	ep := db.curW
	for key, rt := range rs.tables {
		ep.tables[key] = rt.t
		slots := make([]indexSlot, len(rt.indexes))
		for i, idx := range rt.indexes {
			slots[i] = indexSlot{idx: idx, data: &indexData{}}
		}
		ep.tds[rt.t] = newTableData(rt.t.Schema, rt.rows, slots)
	}
}

// Open opens (or creates) a durable database backed by opts.Dir:
// it loads the newest intact snapshot, replays the WAL tail on top,
// and leaves the WAL open for appends. Recovery tolerates exactly the
// damage a crash can cause and nothing more:
//
//   - a torn final record (the append interrupted by the crash) is
//     truncated away and recovery continues;
//   - a corrupt record with more data after it cannot be explained by
//     a crash — that is silent corruption, and Open fails loudly with
//     the file and offset rather than guess;
//   - a missing or damaged snapshot falls back to the previous
//     generation, whose snapshot plus both WAL files reproduce the
//     same state.
func Open(opts WALOptions) (*DB, error) {
	if opts.Dir == "" {
		return nil, fmt.Errorf("sql: Open: WAL directory required")
	}
	fs := opts.FS
	if fs == nil {
		fs = OSFS{}
	}
	if err := fs.MkdirAll(opts.Dir); err != nil {
		return nil, fmt.Errorf("sql: Open: mkdir %s: %v", opts.Dir, err)
	}
	every := opts.FsyncEvery
	if every <= 0 {
		every = defaultFsyncEvery
	}
	db := NewDB()
	w := &walState{
		fs:        fs,
		dir:       opts.Dir,
		policy:    opts.Fsync,
		every:     every,
		ckpt:      opts.CheckpointBytes,
		replaying: true,
	}
	db.wal = w

	names, err := fs.ReadDir(opts.Dir)
	if err != nil {
		return nil, fmt.Errorf("sql: Open: read %s: %v", opts.Dir, err)
	}
	var snapGens, walGens []uint64
	for _, name := range names {
		if strings.HasSuffix(name, ".tmp") {
			_ = fs.Remove(w.dir + "/" + name) // abandoned mid-checkpoint
			continue
		}
		gen, kind, ok := parseGenName(name)
		if !ok {
			continue
		}
		if kind == fileSnap {
			snapGens = append(snapGens, gen)
		} else {
			walGens = append(walGens, gen)
		}
	}
	sort.Slice(snapGens, func(i, j int) bool { return snapGens[i] < snapGens[j] })
	sort.Slice(walGens, func(i, j int) bool { return walGens[i] < walGens[j] })

	// Load the newest snapshot that decodes; anything newer that does
	// not is a fallback.
	rs := newRestoreState()
	var chosen uint64
	loaded := false
	for i := len(snapGens) - 1; i >= 0; i-- {
		g := snapGens[i]
		data, err := fs.ReadFile(w.snapPath(g))
		if err == nil {
			var tables map[string]*restoreTable
			if tables, err = decodeSnapshot(data, g); err == nil {
				rs.tables = tables
				chosen, loaded = g, true
				db.recov.SnapshotGen = g
				break
			}
		}
		if !db.recov.FellBack {
			db.recov.FellBack, db.recov.Skipped = true, fmt.Sprintf("%s: %v", w.snapPath(g), err)
		}
	}
	if !loaded && len(snapGens) > 0 {
		// Every snapshot is damaged; recovery from scratch needs the
		// full WAL history, which pruning only guarantees while a
		// snapshot covers it.
		if len(walGens) == 0 || walGens[0] != 1 {
			return nil, fmt.Errorf("sql: Open: no intact snapshot in %s and WAL history is incomplete (newest: %s)", opts.Dir, db.recov.Skipped)
		}
	}

	// Replay WAL generations >= the snapshot's, oldest first. A gap —
	// a missing generation with a later one present — cannot be
	// produced by a crash and fails loudly.
	replayFrom := chosen
	if replayFrom == 0 {
		replayFrom = 1
	}
	var replay []uint64
	for _, g := range walGens {
		if g >= replayFrom {
			replay = append(replay, g)
		}
	}
	if len(replay) > 0 {
		if chosen > 0 && replay[0] != chosen && replay[len(replay)-1] > chosen {
			return nil, fmt.Errorf("sql: Open: WAL generation %d missing in %s (have %d..%d)",
				chosen, opts.Dir, replay[0], replay[len(replay)-1])
		}
		for i := 1; i < len(replay); i++ {
			if replay[i] != replay[i-1]+1 {
				return nil, fmt.Errorf("sql: Open: WAL generation %d missing in %s", replay[i-1]+1, opts.Dir)
			}
		}
	}
	currentGen := replayFrom
	if len(replay) > 0 {
		currentGen = replay[len(replay)-1]
	}
	var currentSize int64 = -1
	for _, g := range replay {
		size, err := db.replayWALFile(rs, g)
		if err != nil {
			return nil, err
		}
		if g == currentGen {
			currentSize = size
		}
	}
	db.finishRestore(rs)

	// Leave the current generation's WAL open for appends, creating it
	// (with its header) when absent or fully torn.
	if currentSize < int64(len(walFileMagic)) {
		f, err := w.newWALFile(currentGen)
		if err != nil {
			return nil, fmt.Errorf("sql: Open: %v", err)
		}
		w.f = f
		currentSize = int64(len(walFileMagic))
	} else {
		f, err := fs.OpenAppend(w.walPath(currentGen))
		if err != nil {
			return nil, fmt.Errorf("sql: Open: wal gen %d: %v", currentGen, err)
		}
		w.f = f
	}
	w.gen = currentGen
	w.size = currentSize
	w.replaying = false
	db.recov.Gen = currentGen
	return db, nil
}

// Close flushes and detaches the WAL. The in-memory catalog stays
// queryable, but mutations are refused from here on.
func (db *DB) Close() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	w := db.wal
	if w == nil || w.f == nil {
		return nil
	}
	var err error
	if db.roErr == nil && w.unsynced > 0 {
		err = w.f.Sync()
	}
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	w.f = nil
	if db.roErr == nil {
		db.roErr = fmt.Errorf("database closed")
	}
	return err
}

// replayWALFile applies one WAL file's units on top of the current
// catalog and returns the file's valid size — the offset past the last
// intact unit, with any torn tail already truncated off on disk.
// A missing file is not an error (a crash between snapshot rename and
// WAL creation leaves exactly that); the caller then starts the file
// fresh.
func (db *DB) replayWALFile(rs *restoreState, gen uint64) (int64, error) {
	w := db.wal
	path := w.walPath(gen)
	data, err := w.fs.ReadFile(path)
	if err != nil {
		return -1, nil
	}
	if len(data) < len(walFileMagic) {
		// The header write itself tore; there are no units to lose.
		db.recov.TornTail = true
		if err := w.fs.Truncate(path, 0); err != nil {
			return 0, fmt.Errorf("sql: Open: truncate torn %s: %v", path, err)
		}
		return 0, nil
	}
	if string(data[:len(walFileMagic)]) != walFileMagic {
		return 0, fmt.Errorf("sql: wal %s: bad magic", path)
	}
	off := len(walFileMagic)
	for off < len(data) {
		rest := len(data) - off
		if rest < walFrameSize {
			return db.truncateTorn(path, off)
		}
		ln := int(binary.LittleEndian.Uint32(data[off:]))
		sum := binary.LittleEndian.Uint32(data[off+4:])
		if ln > maxWALRecord {
			if rest-walFrameSize < ln {
				return db.truncateTorn(path, off)
			}
			return 0, fmt.Errorf("sql: wal %s: corrupt record at offset %d: implausible length %d", path, off, ln)
		}
		if rest-walFrameSize < ln {
			return db.truncateTorn(path, off)
		}
		payload := data[off+walFrameSize : off+walFrameSize+ln]
		if crc32.ChecksumIEEE(payload) != sum {
			if off+walFrameSize+ln == len(data) {
				// The final record: a torn tail, not corruption.
				return db.truncateTorn(path, off)
			}
			return 0, fmt.Errorf("sql: wal %s: corrupt record at offset %d: CRC mismatch with %d bytes following", path, off, len(data)-off-walFrameSize-ln)
		}
		if err := applyWALUnit(rs, payload); err != nil {
			return 0, fmt.Errorf("sql: wal %s: record at offset %d: %w", path, off, err)
		}
		db.recov.UnitsReplayed++
		off += walFrameSize + ln
	}
	return int64(off), nil
}

// truncateTorn drops a torn tail at offset off and reports the valid
// size.
func (db *DB) truncateTorn(path string, off int) (int64, error) {
	db.recov.TornTail = true
	if err := db.wal.fs.Truncate(path, int64(off)); err != nil {
		return 0, fmt.Errorf("sql: Open: truncate torn %s at %d: %v", path, off, err)
	}
	return int64(off), nil
}

// applyWALUnit re-applies one commit unit's operations to the restore
// state. Replay mutates rows in place — every tuple here was freshly
// decoded, so nothing is shared yet.
func applyWALUnit(rs *restoreState, payload []byte) error {
	d := &walDecoder{b: payload}
	for d.more() {
		if err := applyWALOp(rs, d); err != nil {
			return fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
	}
	return nil // applyWALOp reports the decoder's error as its own
}

func applyWALOp(rs *restoreState, d *walDecoder) error {
	code := d.byte()
	switch code {
	case opInsert:
		rt, err := rs.table(d.str())
		if err != nil {
			return err
		}
		n := d.uint()
		if d.err != nil || n > uint64(len(d.b)) {
			return fmt.Errorf("implausible insert count %d", n)
		}
		for i := uint64(0); i < n && d.err == nil; i++ {
			if row := d.row(rt.t.Schema); d.err == nil {
				rt.rows = append(rt.rows, row)
			}
		}
	case opDelete:
		rt, err := rs.table(d.str())
		if err != nil {
			return err
		}
		n := d.uint()
		if d.err != nil || n > uint64(len(rt.rows)) {
			return fmt.Errorf("delete of %d rows from %d-row table", n, len(rt.rows))
		}
		pos := make([]int, n)
		for i := range pos {
			p := d.below(len(rt.rows), "delete position")
			if d.err == nil && i > 0 && p <= pos[i-1] {
				return fmt.Errorf("delete position %d out of order", p)
			}
			pos[i] = p
		}
		if d.err != nil {
			return d.err
		}
		keep := rt.rows[:0:0]
		di := 0
		for ri, row := range rt.rows {
			if di < len(pos) && pos[di] == ri {
				di++
				continue
			}
			keep = append(keep, row)
		}
		rt.rows = keep
	case opUpdate:
		rt, err := rs.table(d.str())
		if err != nil {
			return err
		}
		t := rt.t
		nc := d.uint()
		if d.err != nil || nc > uint64(t.Schema.Width()) {
			return fmt.Errorf("update of %d columns in %d-column table", nc, t.Schema.Width())
		}
		cols := make([]int, nc)
		for i := range cols {
			cols[i] = d.below(t.Schema.Width(), "update column")
		}
		np := d.uint()
		if d.err != nil || np > uint64(len(rt.rows)) {
			return fmt.Errorf("update of %d rows in %d-row table", np, len(rt.rows))
		}
		pos := make([]int, np)
		vals := make([][]relation.Value, np)
		for i := range pos {
			pos[i] = d.below(len(rt.rows), "update position")
			vals[i] = make([]relation.Value, nc)
			for j := range vals[i] {
				vals[i][j] = d.cell(t.Schema.Attrs[cols[j]])
			}
		}
		if d.err != nil {
			return d.err
		}
		for i, p := range pos {
			for j, c := range cols {
				rt.rows[p][c] = vals[i][j]
			}
		}
	case opTruncate:
		rt, err := rs.table(d.str())
		if err != nil {
			return err
		}
		rt.rows = rt.rows[:0]
	case opCreateTable:
		s := d.schema()
		if d.err != nil {
			return d.err
		}
		key := lowerName(s.Name)
		if _, ok := rs.tables[key]; ok {
			return fmt.Errorf("create of existing table %s", s.Name)
		}
		rs.tables[key] = &restoreTable{t: &Table{Name: s.Name, Schema: s}}
	case opDropTable:
		name := d.str()
		if d.err != nil {
			return d.err
		}
		key := lowerName(name)
		if _, ok := rs.tables[key]; !ok {
			return fmt.Errorf("drop of missing table %s", name)
		}
		delete(rs.tables, key)
	case opCreateIndex:
		name := d.str()
		rt, err := rs.table(d.str())
		if err != nil {
			return err
		}
		t := rt.t
		nc := d.uint()
		if d.err != nil || nc == 0 || nc > uint64(t.Schema.Width()) {
			return fmt.Errorf("implausible index width %d", nc)
		}
		idx := &Index{Name: name}
		for i := uint64(0); i < nc; i++ {
			c := d.str()
			j := t.Schema.Index(c)
			if d.err == nil && j < 0 {
				return fmt.Errorf("index %s on missing column %s", name, c)
			}
			idx.Cols = append(idx.Cols, j)
		}
		if d.err != nil {
			return d.err
		}
		rt.indexes = append(rt.indexes, idx)
	case opLoadRelation:
		s := d.schema()
		if d.err != nil {
			return d.err
		}
		n := d.uint()
		if d.err != nil || n > uint64(len(d.b)) {
			return fmt.Errorf("implausible load count %d", n)
		}
		key := lowerName(s.Name)
		rt, ok := rs.tables[key]
		if !ok {
			rt = &restoreTable{t: &Table{Name: s.Name, Schema: s}}
		} else if w := rt.t.Schema.Width(); w != s.Width() {
			return fmt.Errorf("load of %d-column rows into %d-column table %s", s.Width(), w, s.Name)
		}
		rows := make([]relation.Tuple, 0, n)
		for i := uint64(0); i < n && d.err == nil; i++ {
			rows = append(rows, d.row(rt.t.Schema)) // the kinds of the table it writes
		}
		if d.err != nil {
			return d.err
		}
		rs.tables[key], rt.rows = rt, rows
	default:
		return fmt.Errorf("unknown operation code %d", code)
	}
	return d.err
}
