package sqldb

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"path"
	"sort"

	"ecfd/internal/relation"
)

// Checkpoint snapshots.
//
// A snapshot file captures the whole catalog — every table's schema
// (with finite domains), rows and index definitions — at a generation
// boundary:
//
//	"ECFDSNP1" | uvarint generation | uvarint #tables |
//	  per table: schema, uvarint #rows, rows, uvarint #indexes,
//	             per index: name, uvarint #cols, column positions
//	| u32 CRC-32 (IEEE) of everything before it
//
// Generation g's snapshot holds the state at the moment WAL file g was
// created, so state(snap g) + replay(wal g) is always current — and
// because state(snap g) itself equals state(snap g-1) + replay(wal
// g-1), recovery can fall back one generation when snap g is missing
// or damaged, replaying wal g-1 then wal g. Checkpoint therefore keeps
// generations g and g-1 on disk and deletes anything older.
//
// The snapshot is written to a .tmp file, synced, renamed into place
// and the directory synced — a crash mid-checkpoint leaves either the
// old generation set or the new one, never a half-written snapshot
// under the final name (a leftover .tmp is deleted at open).

func snapName(gen uint64) string { return fmt.Sprintf("snap-%016d.snapshot", gen) }
func walName(gen uint64) string  { return fmt.Sprintf("wal-%016d.log", gen) }

func (w *walState) snapPath(gen uint64) string { return path.Join(w.dir, snapName(gen)) }
func (w *walState) walPath(gen uint64) string  { return path.Join(w.dir, walName(gen)) }

// Checkpoint forces a snapshot + WAL rotation now. It takes the
// catalog write lock, so it serializes with DML like any mutation.
func (db *DB) Checkpoint() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.wal == nil {
		return fmt.Errorf("sql: Checkpoint: database has no WAL")
	}
	if err := db.writable(); err != nil {
		return err
	}
	if err := db.checkpointLocked(); err != nil {
		db.roErr = fmt.Errorf("checkpoint: %v", err)
		return db.writable()
	}
	return nil
}

// checkpointLocked writes snapshot generation g+1, starts WAL file
// g+1, and prunes generations <= g-1. Callers hold db.mu (write); on
// error the caller degrades the DB to read-only — the old generation
// on disk is still complete, so nothing is lost, but a WAL file the
// rotation abandoned must not keep receiving appends.
func (db *DB) checkpointLocked() error {
	w := db.wal
	// Commits still parked in the group-commit window must hit disk
	// before their WAL file is superseded: the snapshot about to be
	// written includes their effects (they are in curW), so losing
	// their log bytes to rotation would be fine for THIS generation —
	// but a fallback to the previous generation replays the old WAL,
	// which must therefore be complete.
	if err := db.absorbPendings(); err != nil {
		return err
	}
	newGen := w.gen + 1

	payload := encodeSnapshot(db.curW, newGen)
	tmp := w.snapPath(newGen) + ".tmp"
	f, err := w.fs.Create(tmp)
	if err != nil {
		return fmt.Errorf("create %s: %v", tmp, err)
	}
	n, err := f.Write(payload)
	if err == nil && n < len(payload) {
		err = fmt.Errorf("short write: %d of %d bytes", n, len(payload))
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("write %s: %v", tmp, err)
	}
	if err := w.fs.Rename(tmp, w.snapPath(newGen)); err != nil {
		return fmt.Errorf("rename snapshot: %v", err)
	}
	if err := w.fs.SyncDir(w.dir); err != nil {
		return fmt.Errorf("sync dir: %v", err)
	}

	nf, err := w.newWALFile(newGen)
	if err != nil {
		return err
	}
	if w.f != nil {
		_ = w.f.Close()
	}
	w.f = nf
	w.gen = newGen
	w.size = int64(len(walFileMagic))
	w.unsynced = 0
	// Fresh file: its synced header is all that exists, so the group
	// commit ledger restarts there.
	w.gc.syncedTo = w.size

	w.pruneGenerations(newGen)
	return nil
}

// newWALFile creates WAL file gen with its header, synced.
func (w *walState) newWALFile(gen uint64) (WALFile, error) {
	nf, err := w.fs.Create(w.walPath(gen))
	if err != nil {
		return nil, fmt.Errorf("create wal gen %d: %v", gen, err)
	}
	n, err := nf.Write([]byte(walFileMagic))
	if err == nil && n < len(walFileMagic) {
		err = fmt.Errorf("short write")
	}
	if err == nil {
		err = nf.Sync()
	}
	if err == nil {
		err = w.fs.SyncDir(w.dir)
	}
	if err != nil {
		_ = nf.Close()
		return nil, fmt.Errorf("wal gen %d header: %v", gen, err)
	}
	return nf, nil
}

// pruneGenerations removes snapshots and WAL files older than
// newGen-1. Best effort — a leftover file only wastes space — except
// that a generation's WAL must never outlive its snapshot's removal
// failing: recovery may fall back to any snapshot still present and
// then requires that generation's WAL, so the snapshot goes first and
// a failure there keeps the WAL too.
func (w *walState) pruneGenerations(newGen uint64) {
	if newGen < 2 {
		return
	}
	names, err := w.fs.ReadDir(w.dir)
	if err != nil {
		return
	}
	for _, name := range names {
		gen, kind, ok := parseGenName(name)
		if !ok || gen >= newGen-1 || kind != fileSnap {
			continue
		}
		if w.fs.Remove(w.snapPath(gen)) == nil {
			_ = w.fs.Remove(w.walPath(gen))
		}
	}
	// WAL files with no snapshot at all (generation 1, or a snapshot
	// already pruned in an earlier pass) still need to go eventually.
	for _, name := range names {
		gen, kind, ok := parseGenName(name)
		if !ok || gen >= newGen-1 || kind != fileWAL {
			continue
		}
		if _, err := w.fs.ReadFile(w.snapPath(gen)); err != nil {
			// No snapshot for this generation: safe to drop only if a
			// later snapshot covers it, which newGen's just-written one
			// does.
			_ = w.fs.Remove(w.walPath(gen))
		}
	}
}

const (
	fileSnap = "snapshot"
	fileWAL  = "wal"
)

// parseGenName decodes "snap-<gen>.snapshot" / "wal-<gen>.log" names.
func parseGenName(name string) (gen uint64, kind string, ok bool) {
	var g uint64
	if n, err := fmt.Sscanf(name, "snap-%d.snapshot", &g); err == nil && n == 1 {
		return g, fileSnap, true
	}
	if n, err := fmt.Sscanf(name, "wal-%d.log", &g); err == nil && n == 1 {
		return g, fileWAL, true
	}
	return 0, "", false
}

// encodeSnapshot serializes one epoch's catalog. The epoch is
// immutable, so this needs no lock beyond the caller's db.mu (held to
// keep the writer head still while the generation rotates).
func encodeSnapshot(ep *epoch, gen uint64) []byte {
	keys := make([]string, 0, len(ep.tables))
	for k := range ep.tables {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	b := []byte(snapFileMagic)
	b = appendUint(b, gen)
	b = appendUint(b, uint64(len(keys)))
	for _, k := range keys {
		t := ep.tables[k]
		td := ep.tds[t]
		b = appendSchema(b, t.Schema)
		b = appendUint(b, uint64(td.n))
		for _, sg := range td.segs {
			for _, row := range sg.rows {
				b = appendTuple(b, row)
			}
		}
		b = appendUint(b, uint64(len(td.indexes)))
		for _, sl := range td.indexes {
			b = appendStr(b, sl.idx.Name)
			b = appendUint(b, uint64(len(sl.idx.Cols)))
			for _, c := range sl.idx.Cols {
				b = appendUint(b, uint64(c))
			}
		}
	}
	return binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b))
}

// decodeSnapshot validates and rebuilds a snapshot file's catalog
// into recovery's mutable restore shape. Every error is ErrCorrupt and
// names the offset into data where decoding stopped.
func decodeSnapshot(data []byte, wantGen uint64) (map[string]*restoreTable, error) {
	d := &walDecoder{b: data}
	if len(data) < len(snapFileMagic)+4 {
		d.fail("truncated snapshot (%d bytes)", len(data))
		return nil, fmt.Errorf("%w: snapshot %v", ErrCorrupt, d.err)
	}
	body := data[:len(data)-4]
	var tables map[string]*restoreTable
	switch d.b = body; {
	case crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(data[len(body):]):
		d.off = len(body)
		d.fail("CRC mismatch")
	case string(body[:len(snapFileMagic)]) != snapFileMagic:
		d.fail("bad magic")
	default:
		d.off = len(snapFileMagic)
		tables = d.snapshotTables(wantGen)
	}
	if d.err == nil && d.off != len(body) {
		d.fail("%d trailing bytes", len(body)-d.off)
	}
	if d.err != nil {
		return nil, fmt.Errorf("%w: snapshot %v", ErrCorrupt, d.err)
	}
	return tables, nil
}

// snapshotTables decodes a snapshot body past its magic: the generation,
// which must be wantGen, and every table.
func (d *walDecoder) snapshotTables(wantGen uint64) map[string]*restoreTable {
	if gen := d.uint(); d.err == nil && gen != wantGen {
		d.fail("generation %d under the name of generation %d", gen, wantGen)
	}
	nTables := d.uint()
	if d.err == nil && nTables > uint64(len(d.b)) {
		d.fail("implausible table count %d", nTables)
	}
	tables := make(map[string]*restoreTable)
	for i := uint64(0); i < nTables && d.err == nil; i++ {
		s := d.schema()
		if s == nil {
			break
		}
		rt := &restoreTable{t: &Table{Name: s.Name, Schema: s}}
		nRows := d.uint()
		if d.err != nil || nRows > uint64(len(d.b)) {
			d.fail("implausible row count %d", nRows)
			break
		}
		rt.rows = make([]relation.Tuple, 0, nRows)
		for r := uint64(0); r < nRows && d.err == nil; r++ {
			rt.rows = append(rt.rows, d.row(s))
		}
		nIdx := d.uint()
		if d.err != nil || nIdx > uint64(len(d.b)) {
			d.fail("implausible index count %d", nIdx)
			break
		}
		for j := uint64(0); j < nIdx && d.err == nil; j++ {
			idx := &Index{Name: d.str()}
			nc := d.uint()
			if d.err != nil || nc == 0 || nc > uint64(s.Width()) {
				d.fail("implausible index width %d", nc)
				break
			}
			for c := uint64(0); c < nc; c++ {
				idx.Cols = append(idx.Cols, d.below(s.Width(), "index column"))
			}
			rt.indexes = append(rt.indexes, idx)
		}
		tables[lowerName(rt.t.Name)] = rt
	}
	return tables
}
