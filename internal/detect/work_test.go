package detect

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"ecfd/internal/gen"
	"ecfd/internal/sqldb"
)

// workCounters lists the work counters of sqldb.Stats by reflection, so a
// counter added to Stats joins the ledger without an edit here: its int64
// fields but RetiredBytes, which with the int-typed epoch counts and
// Recovery describes the epoch registry's state rather than work.
func workCounters() []string {
	var names []string
	st := reflect.TypeOf(sqldb.Stats{})
	for i := 0; i < st.NumField(); i++ {
		if f := st.Field(i); f.Type.Kind() == reflect.Int64 && f.Name != "RetiredBytes" {
			names = append(names, f.Name)
		}
	}
	return names
}

// incNames names the incremental script's statements for the ledger, in
// the order IncrementalSQL runs them.
func incNames(d *Detector) map[string]string {
	s := &d.stmts
	return map[string]string{
		s.svOnIns:                         "svOnIns",
		"TRUNCATE TABLE " + d.keysTable:   "truncateKeys",
		s.keysFromDel:                     "keysFromDel",
		s.keysFromIns:                     "keysFromIns",
		"TRUNCATE TABLE " + d.auxOldTable: "truncateAuxOld",
		s.auxSaveOld:                      "auxSaveOld",
		s.auxDeleteAff:                    "auxDeleteAff",
		s.repDeleteAff:                    "repDeleteAff",
		s.deleteRows:                      "deleteRows",
		s.mergeIns:                        "mergeIns",
		"TRUNCATE TABLE " + d.stageTable:  "truncateStage",
		s.stageRecomp:                     "stageRecomp",
		s.auxRecompute:                    "auxRecompute",
		s.repRecompute:                    "repRecompute",
		"TRUNCATE TABLE " + d.auxNewTable: "truncateAuxNew",
		s.auxNewComp:                      "auxNewComp",
		s.mvSetNew:                        "mvSetNew",
		s.mvSetOld:                        "mvSetOld",
		s.mvClear:                         "mvClear",
	}
}

// deltaSizes are the update sizes k of the ledger's k+k units.
var deltaSizes = []int{64, 512, 2048}

// warmUpdates is how many 8+8 updates (deleting the oldest rows) fill rep
// to within 5 % of its plateau at 10 000 and at 40 000 gen rows (seed
// 611): about 2 820 rows after 8 000 updates at either size, 2 693 and
// 2 785 after these 4 000.
const warmUpdates = 4_000

// firstN returns 0, 1, …, n-1.
func firstN(n int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = i
	}
	return s
}

// batchNames names the batch script's statements for the ledger, in the
// order BatchDetect runs them.
var batchNames = []string{"resetFlags", "qsvUpdate", "truncateAux", "truncateRep", "qmvInsert", "mvUpdate"}

// TestWorkLedger records what each unit of the benchmark's workloads
// costs the engine in counters — every work counter of sqldb.Stats, at
// 10 000, 40 000 and 160 000 rows (seed 611) — in
// testdata/work.golden, one line per (unit, counter, |D|). The units
// are a warm BatchDetect, each statement of its batch script, a warm
// 8+8 ApplyUpdates, each statement of the next update's incremental
// script, a warm 8-tuple Check and Counts; and at 10 000 rows only, a
// k+k ApplyUpdates and each statement of one, for k = 64, 512 and 2 048,
// each right after a BatchDetect: the cold path, with rep empty; and at
// 10 000 and 40 000 rows, last, a warm 8+8 ApplyUpdates and each statement
// of one after warmUpdates more updates (ApplyUpdatesWarm), when rep is
// near its plateau and the statements that probe it pay for its size. A
// stepped script is stepped once unrecorded first, so that its
// statements, like the whole script's, run on warm plan instances. The counters count work, not time, so every line is exact: a
// change that moves work moves lines of the diff, and the ratio of a
// line's 160 000-row value to its 40 000-row one is the paper's
// incremental bound (work in |ΔD|, not |D|) read in counters.
// Allocations are not counters of the engine and stay with the budget
// tests. `go test ./internal/detect -run TestWorkLedger -update`
// rewrites the file after an intended change.
func TestWorkLedger(t *testing.T) {
	counters := workCounters()
	type key struct{ unit, counter string }
	ledger := map[key][]int64{}
	var units []string
	record := func(unit string, before, after sqldb.Stats) {
		if _, seen := ledger[key{unit, counters[0]}]; !seen {
			units = append(units, unit)
		}
		b, a := reflect.ValueOf(before), reflect.ValueOf(after)
		for _, c := range counters {
			k := key{unit, c}
			ledger[k] = append(ledger[k], a.FieldByName(c).Int()-b.FieldByName(c).Int())
		}
	}
	measure := func(w *applyWorkload, unit string, op func()) {
		t.Helper()
		before := engOf(w.d).Stats()
		op()
		record(unit, before, engOf(w.d).Stats())
	}
	sizes := []int{10_000, 40_000, 160_000}
	for _, rows := range sizes {
		w, cleanup := newApplyWorkload(t, rows) // loaded and detected once
		d := w.d
		measure(w, "BatchDetect", func() {
			if _, err := d.BatchDetect(); err != nil {
				t.Fatal(err)
			}
		})
		// The same script one statement at a time, as stepApply steps the
		// incremental one.
		script := strings.Split(d.stmts.batchScript, ";\n")
		if len(script) != len(batchNames) {
			t.Fatalf("the batch script has %d statements, the ledger names %d", len(script), len(batchNames))
		}
		for _, record := range []bool{false, true} {
			for i, q := range script {
				step := func() {
					if _, err := d.db.Exec(q); err != nil {
						t.Fatalf("%v\n%s", err, q)
					}
				}
				if !record {
					step()
					continue
				}
				measure(w, fmt.Sprintf("BatchDetect/%02d-%s", i+1, batchNames[i]), step)
			}
		}
		oldest := []int{0, 1, 2, 3, 4, 5, 6, 7}
		for i := 0; i < 2; i++ {
			w.apply(t, oldest...) // the first updates build what the statements read
		}
		measure(w, "ApplyUpdates", func() { w.apply(t, oldest...) })
		names := incNames(d)
		// stepped steps the next k+k update, recording its statements under
		// unit unless unit is empty.
		stepped := func(unit string, k int) {
			seq := 0
			w.stepApply(t, gen.Updates(w.cfg, k, w.batch), w.live[:k:k], func(q string, before, after sqldb.Stats) {
				seq++
				name, ok := names[q]
				if !ok {
					t.Fatalf("incremental statement %d has no ledger name:\n%s", seq, q)
				}
				if unit != "" {
					record(fmt.Sprintf("%s/%02d-%s", unit, seq, name), before, after)
				}
			})
			w.batch++
		}
		stepped("", 8)
		stepped("ApplyUpdates", 8)
		cand := gen.Updates(w.cfg, 8, w.batch)
		check := func() {
			if _, err := d.Check(cand); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 3; i++ {
			check()
		}
		measure(w, "Check", check)
		measure(w, "Counts", func() {
			if _, _, _, err := d.Counts(); err != nil {
				t.Fatal(err)
			}
		})
		for _, k := range deltaSizes {
			if rows != sizes[0] {
				break
			}
			batch := func() {
				if _, err := d.BatchDetect(); err != nil {
					t.Fatal(err)
				}
			}
			unit := fmt.Sprintf("ApplyUpdates%d", k)
			batch()
			measure(w, unit, func() { w.apply(t, firstN(k)...) })
			batch()
			stepped(unit, k)
		}
		if rows <= 40_000 {
			for i := 0; i < warmUpdates; i++ {
				w.apply(t, oldest...)
			}
			measure(w, "ApplyUpdatesWarm", func() { w.apply(t, oldest...) })
			stepped("", 8)
			stepped("ApplyUpdatesWarm", 8)
		}
		cleanup()
	}

	var got bytes.Buffer
	fmt.Fprintf(&got, "# unit counter |D|=%v: work per call (go test ./internal/detect -run TestWorkLedger -update)\n", sizes)
	for _, u := range units {
		for _, c := range counters {
			for i, v := range ledger[key{u, c}] {
				fmt.Fprintf(&got, "%-28s %-16s %6d %d\n", u, c, sizes[i], v)
			}
		}
	}
	path := filepath.Join("testdata", "work.golden")
	if *updateGolden {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (rerun with -update to create it)", err)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	g, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	moved := 0
	for i := 0; i < max(len(g), len(wl)); i++ {
		var gi, wi string
		if i < len(g) {
			gi = g[i]
		}
		if i < len(wl) {
			wi = wl[i]
		}
		if gi != wi {
			if moved++; moved <= 20 {
				t.Errorf("line %d:\n got %s\nwant %s", i+1, gi, wi)
			}
		}
	}
	t.Errorf("%d ledger lines differ from %s (rerun with -update after an intended change)", moved, path)
}
