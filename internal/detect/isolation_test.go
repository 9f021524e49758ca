package detect

import (
	"context"
	"database/sql"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"ecfd/internal/core"
	"ecfd/internal/gen"
	"ecfd/internal/relation"
)

// boundaryOracle lists what readers may see of a workload's detector:
// the violation set (boundaryKey) and Counts after each update the
// workload will apply, as core.NaiveDetect decides them over a mirror of
// D that replays the same updates.
type boundaryOracle struct {
	vio    map[string]bool
	counts map[[3]int64]bool
	last   string
}

// newBoundaryOracle replays the given number of 8+8 updates on w's rows:
// the eight oldest out, gen.Updates batch u in, as applyWorkload.apply
// does.
func newBoundaryOracle(t *testing.T, w *applyWorkload, updates int) *boundaryOracle {
	t.Helper()
	o := &boundaryOracle{vio: map[string]bool{}, counts: map[[3]int64]bool{}}
	data := gen.Dataset(w.cfg)
	rids := slices.Clone(w.live)
	nextRID := rids[len(rids)-1]
	for u := 0; ; u++ {
		naive, err := core.NaiveDetect(data, w.d.Sigma())
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		var c [3]int64
		for i, rid := range rids {
			sv, mv := naive.SV[i], naive.MV[i]
			if sv || mv {
				fmt.Fprintf(&b, "%d:%v:%v;", rid, sv, mv)
				c[2]++
			}
			if sv {
				c[0]++
			}
			if mv {
				c[1]++
			}
		}
		o.last = b.String()
		o.vio[o.last], o.counts[c] = true, true
		if u == updates {
			return o
		}
		ins := gen.Updates(w.cfg, 8, int64(u))
		data.Rows = append(slices.Clone(data.Rows[8:]), ins.Rows...)
		rids = slices.Clone(rids[8:])
		for range ins.Rows {
			nextRID++
			rids = append(rids, nextRID)
		}
	}
}

// boundaryKey renders a violation set as boundaryOracle lists it.
func boundaryKey(vio *relation.Relation) string {
	var b strings.Builder
	w := vio.Schema.Width()
	for _, r := range vio.Rows {
		fmt.Fprintf(&b, "%d:%v:%v;", r[0].I, r[w-2].I == 1, r[w-1].I == 1)
	}
	return b.String()
}

// TestReadersSeeWholeUpdates runs readers beside a writer that applies
// 200 8+8 ApplyUpdates to 2 000 rows, with a BatchDetect after every
// twentieth: a read-only transaction reading |D| and the violation set
// from one snapshot, Violations and Counts. Every read must see |D|
// rows and exactly the violations core.NaiveDetect finds at some update
// boundary. A reader that sees a statement of the incremental script
// without the rest of it — Aux(D) recomputed but MV not yet set, or
// BatchDetect's flags reset — fails it.
func TestReadersSeeWholeUpdates(t *testing.T) {
	const rows, updates, batchEvery = 2000, 200, 20
	w, cleanup := newApplyWorkload(t, rows)
	defer cleanup()
	o := newBoundaryOracle(t, w, updates)
	if o.vio[""] {
		t.Fatal("a boundary has no violations: flags read while BatchDetect resets them would pass")
	}
	d := w.d

	countQ := "SELECT COUNT(*) FROM " + d.DataTable()
	readers := []func() error{
		func() error {
			tx, err := d.db.BeginTx(context.Background(), &sql.TxOptions{ReadOnly: true})
			if err != nil {
				return err
			}
			defer tx.Rollback()
			var n int
			if err := tx.QueryRow(countQ).Scan(&n); err != nil {
				return err
			}
			vio, err := d.ViolationsVia(tx)
			if err != nil {
				return err
			}
			if k := boundaryKey(vio); n != rows || !o.vio[k] {
				return fmt.Errorf("a snapshot holds %d rows and %d violations no update boundary has", n, vio.Len())
			}
			return nil
		},
		func() error {
			vio, err := d.Violations()
			if err == nil && !o.vio[boundaryKey(vio)] {
				err = fmt.Errorf("Violations returned %d rows no update boundary has", vio.Len())
			}
			return err
		},
		func() error {
			sv, mv, total, err := d.Counts()
			if err == nil && !o.counts[[3]int64{sv, mv, total}] {
				err = fmt.Errorf("Counts returned SV %d, MV %d, total %d, which no update boundary has", sv, mv, total)
			}
			return err
		},
	}
	stop := make(chan struct{})
	var reads, torn atomic.Int64
	var wg sync.WaitGroup
	for _, read := range readers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				reads.Add(1)
				if err := read(); err != nil {
					if torn.Add(1) <= 3 {
						t.Error(err)
					}
				}
			}
		}()
	}
	for u := 0; u < updates; u++ {
		w.apply(t, 0, 1, 2, 3, 4, 5, 6, 7)
		if (u+1)%batchEvery == 0 {
			if _, err := d.BatchDetect(); err != nil {
				t.Fatal(err)
			}
		}
	}
	close(stop)
	wg.Wait()
	t.Logf("%d reads beside %d updates, %d torn", reads.Load(), updates, torn.Load())
	if torn.Load() > 0 {
		t.Fatalf("%d of %d reads saw no update boundary", torn.Load(), reads.Load())
	}
	vio, err := d.Violations()
	if err != nil {
		t.Fatal(err)
	}
	if boundaryKey(vio) != o.last {
		t.Fatal("the detector ended away from the oracle's last boundary")
	}
}

// TestOneEpochPerDetectorCall: every mutating detector call publishes
// exactly one epoch, however many statements it runs — BatchDetect's
// five and ApplyUpdates' staging plus fifteen alike — at 10 000 and
// 40 000 rows (sqldb.Stats.EpochsPublished).
func TestOneEpochPerDetectorCall(t *testing.T) {
	for _, rows := range []int{10_000, 40_000} {
		w, cleanup := newApplyWorkload(t, rows)
		calls := []struct {
			name string
			run  func() error
		}{
			{"BatchDetect", func() error { _, err := w.d.BatchDetect(); return err }},
			{"ApplyUpdates", func() error { w.apply(t, 0, 1, 2, 3, 4, 5, 6, 7); return nil }},
			{"LoadData", func() error { _, err := w.d.LoadData(gen.Updates(w.cfg, 8, 1<<20)); return err }},
			{"InsertRaw", func() error { _, err := w.d.InsertRaw(gen.Updates(w.cfg, 8, 1<<20)); return err }},
			{"DeleteRaw", func() error { return w.d.DeleteRaw(w.live[:8]) }},
		}
		for _, c := range calls {
			before := engOf(w.d).Stats().EpochsPublished
			if err := c.run(); err != nil {
				t.Fatal(err)
			}
			if n := engOf(w.d).Stats().EpochsPublished - before; n != 1 {
				t.Errorf("%d rows: %s published %d epochs, want 1", rows, c.name, n)
			}
		}
		cleanup()
	}
}
