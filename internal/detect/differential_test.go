package detect

import (
	"bytes"
	"context"
	"database/sql"
	"flag"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"ecfd/internal/core"
	"ecfd/internal/gen"
	"ecfd/internal/relation"
	"ecfd/internal/sqldb"
	"ecfd/internal/sqldriver"
)

// TestDetectThreeWayDifferential drives three detectors over identical
// random DML sequences and asserts byte-identical violation sets after
// every step:
//
//   - d_inc runs BatchDetect once, then maintains flags and Aux
//     incrementally (ApplyUpdates) — the §V-B path;
//   - d_batch applies the same changes raw (no maintenance) and
//     recomputes with BatchDetect after each step;
//   - d_dur runs the incremental path on a durable engine over a
//     fault-injected filesystem: every step arms a crash at a random
//     upcoming I/O point, and when it fires the "process" restarts —
//     reopen, Resume, redo the update if its commit unit did not make
//     it to the log — and must still land byte-identical.
//
// All legs assign identical RID sequences (same insert batches in the
// same order), so Violations() must render to the same bytes — not
// just the same multiset — and the incremental leg's flags must equal
// the naive §II oracle's on the same rows: the legs share the generated
// SQL, so a wrong guard in it would move them all together. The whole
// differential runs with every engine in sqldb.Planned, pinning every
// kernel path end to end, over four workloads (diffWorkloads), and again
// in sqldb.Reference (nested loops, every EXISTS re-executed per row) on
// every workload but gen-5k; the mode belongs to an engine, so the seven
// runs go side by side. -seed reseeds the workloads (`make difffuzz`).
func TestDetectThreeWayDifferential(t *testing.T) {
	var recoveries atomic.Int64
	run := func(t *testing.T, w diffWorkload, mode sqldb.Mode) {
		rng := rand.New(rand.NewSource(diffSeed(t, w.seed)))
		for trial := 0; trial < w.trials; trial++ {
			inst, sigma := w.instance(rng)
			dInc := newDetectorIn(t, mode, sigma, inst)
			dBatch := newDetectorIn(t, mode, sigma, inst)
			if _, err := dInc.BatchDetect(); err != nil {
				t.Fatal(err)
			}

			// The durable leg: updates on a MemFS-backed WAL,
			// fsync'd every commit so an acknowledged update is never
			// lost, with a small checkpoint threshold so crashes also
			// land mid-rotation.
			fs := sqldb.NewMemFS(int64(9000 + trial))
			walOpts := sqldb.WALOptions{Dir: "/wal", FS: fs, Fsync: sqldb.FsyncAlways, CheckpointBytes: 8 << 10}
			dsn := fmt.Sprintf("detect_durable_%d", dsnSeq.Add(1))
			eng, err := sqldb.Open(walOpts)
			if err != nil {
				t.Fatal(err)
			}
			eng.SetMode(mode)
			sqldriver.RegisterDB(dsn, eng)
			dbDur, err := sql.Open(sqldriver.DriverName, dsn)
			if err != nil {
				t.Fatal(err)
			}
			dDur, err := New(dbDur, inst.Schema, sigma)
			if err != nil {
				t.Fatal(err)
			}
			if err := dDur.Install(); err != nil {
				t.Fatal(err)
			}
			if _, err := dDur.LoadData(inst); err != nil {
				t.Fatal(err)
			}
			if _, err := dDur.BatchDetect(); err != nil {
				t.Fatal(err)
			}

			for step := 0; step < 4; step++ {
				batch, doomed := w.update(t, rng, dInc, sigma, step)

				// Fourth leg — MVCC snapshot stability: a reader that pinned
				// its snapshot (read-only transaction) before the update
				// must render the pre-update violation set byte for byte,
				// however its reads interleave with the concurrent
				// ApplyUpdates running on another goroutine.
				preTx, err := dInc.db.BeginTx(context.Background(), &sql.TxOptions{ReadOnly: true})
				if err != nil {
					t.Fatal(err)
				}
				before := violationCSVVia(t, dInc, preTx)
				incDone := make(chan error, 1)
				go func() {
					_, _, err := dInc.ApplyUpdates(batch, doomed)
					incDone <- err
				}()
				for probe := 0; probe < 3; probe++ {
					if during := violationCSVVia(t, dInc, preTx); !bytes.Equal(before, during) {
						t.Fatalf("trial %d step %d probe %d: pinned snapshot drifted under concurrent ApplyUpdates\nbefore:\n%s\nduring:\n%s",
							trial, step, probe, before, during)
					}
				}
				if err := <-incDone; err != nil {
					t.Fatalf("trial %d step %d incremental: %v", trial, step, err)
				}
				// The pin outlives the commit; the frozen view must still
				// be intact after the writer won.
				if after := violationCSVVia(t, dInc, preTx); !bytes.Equal(before, after) {
					t.Fatalf("trial %d step %d: pinned snapshot drifted after ApplyUpdates committed\nbefore:\n%s\nafter:\n%s",
						trial, step, before, after)
				}
				preTx.Rollback()
				if err := dBatch.DeleteRaw(doomed); err != nil {
					t.Fatal(err)
				}
				if batch != nil {
					if _, err := dBatch.InsertRaw(batch); err != nil {
						t.Fatal(err)
					}
				}
				if _, err := dBatch.BatchDetect(); err != nil {
					t.Fatalf("trial %d step %d batch: %v", trial, step, err)
				}

				// Durable leg: crash at a random point inside (or just
				// after) the update's I/O, then recover and reconcile.
				savedRID := dDur.nextRID
				fs.Arm(sqldb.FaultCrash, 1+rng.Intn(5))
				if _, _, err := dDur.ApplyUpdates(batch, doomed); err == nil {
					fs.Disarm()
				} else {
					recoveries.Add(1)
					fs.Crash()
					dbDur.Close()
					if eng, err = sqldb.Open(walOpts); err != nil {
						t.Fatalf("trial %d step %d: recovery open: %v", trial, step, err)
					}
					eng.SetMode(mode)
					sqldriver.RegisterDB(dsn, eng)
					if dbDur, err = sql.Open(sqldriver.DriverName, dsn); err != nil {
						t.Fatal(err)
					}
					if dDur, err = New(dbDur, inst.Schema, sigma); err != nil {
						t.Fatal(err)
					}
					if err := dDur.Resume(); err != nil {
						t.Fatalf("trial %d step %d: resume: %v", trial, step, err)
					}
					// Resume restores the allocator from MAX(RID), which
					// under-counts when deletions removed the maximal
					// rows; pin it to the dead process's value — the
					// legs must assign identical RID sequences for the
					// byte-differential to be meaningful.
					dDur.nextRID = savedRID
					if durStepApplied(t, dbDur, dDur, batch, doomed, savedRID) {
						if batch != nil {
							dDur.nextRID = savedRID + int64(batch.Len())
						}
					} else if _, _, err := dDur.ApplyUpdates(batch, doomed); err != nil {
						t.Fatalf("trial %d step %d: redo after recovery: %v", trial, step, err)
					}
				}

				assertMatchesNaive(t, dInc, sigma, fmt.Sprintf("%s trial %d step %d", w.name, trial, step))
				vInc := violationCSV(t, dInc)
				vBatch := violationCSV(t, dBatch)
				vDur := violationCSV(t, dDur)
				if !bytes.Equal(vInc, vBatch) {
					t.Fatalf("trial %d step %d: incremental vs batch violation sets differ\nsigma: %s\ninc:\n%s\nbatch:\n%s",
						trial, step, sigmaString(sigma), vInc, vBatch)
				}
				if !bytes.Equal(vInc, vDur) {
					t.Fatalf("trial %d step %d: incremental vs durable violation sets differ\nsigma: %s\ninc:\n%s\ndur:\n%s",
						trial, step, sigmaString(sigma), vInc, vDur)
				}
			}
			dbDur.Close()
			sqldriver.Unregister(dsn)
		}
	}
	for _, w := range diffWorkloads {
		t.Run(w.name+"/kernels=on", func(t *testing.T) { t.Parallel(); run(t, w, sqldb.Planned) })
		if !w.plannedOnly {
			t.Run(w.name+"/reference", func(t *testing.T) { t.Parallel(); run(t, w, sqldb.Reference) })
		}
	}
	t.Cleanup(func() { // runs once the parallel subtests above have finished
		if recoveries.Load() == 0 {
			t.Error("no crash ever fired: the durable leg exercised no recovery")
		}
		t.Logf("durable leg: %d crash recoveries across both execution modes", recoveries.Load())
	})
}

// seedFlag reseeds the detector differential (`make difffuzz`). 0 keeps
// every workload on its own fixed seed, so plain `go test` runs stay
// reproducible.
var seedFlag = flag.Int64("seed", 0, "reseed the detector differential's workloads (0 = each workload's fixed seed)")

// diffSeed returns fixed, or the -seed flag offset by it so the workloads
// still draw different sequences; the log line names the seed to rerun.
func diffSeed(t *testing.T, fixed int64) int64 {
	t.Helper()
	if *seedFlag == 0 {
		return fixed
	}
	t.Logf("rerun with -seed %d", *seedFlag)
	return *seedFlag + fixed
}

// diffWorkload is one source of instances, constraint sets and update
// sequences for TestDetectThreeWayDifferential.
type diffWorkload struct {
	name     string
	seed     int64
	trials   int
	instance func(rng *rand.Rand) (*relation.Relation, []*core.ECFD)
	// update draws step's combined update ΔD = (ΔD⁺, ΔD⁻) against the
	// incremental leg's current state. A non-empty ΔD⁻ must lead with a
	// RID that exists (durStepApplied probes it).
	update func(t *testing.T, rng *rand.Rand, d *Detector, sigma []*core.ECFD, step int) (*relation.Relation, []int64)
	// plannedOnly skips the Reference leg, whose nested loops are slow at
	// this size; the naive oracle checks every step anyway.
	plannedOnly bool
}

var diffWorkloads = []diffWorkload{
	{
		// Every constraint carries an embedded FD; a random subset of
		// the current RIDs leaves, a random batch arrives.
		name: "random", seed: 157, trials: 6,
		instance: func(rng *rand.Rand) (*relation.Relation, []*core.ECFD) {
			return randomInstanceAndSigma(rng, 45)
		},
		update: func(t *testing.T, rng *rand.Rand, d *Detector, _ []*core.ECFD, _ int) (*relation.Relation, []int64) {
			rids, err := d.RIDs()
			if err != nil {
				t.Fatal(err)
			}
			var doomed []int64
			if len(rids) > 0 && rng.Intn(4) > 0 {
				k := 1 + rng.Intn(len(rids)/3+1)
				for _, i := range rng.Perm(len(rids))[:k] {
					doomed = append(doomed, rids[i])
				}
			}
			var batch *relation.Relation
			if rng.Intn(5) > 0 {
				batch = randomRows(rng, d.schema, 1+rng.Intn(12))
			}
			return batch, doomed
		},
	},
	{
		// Where the FD guard and the monotone key pruning could go wrong:
		// Σ is mostly Yp-only patterns around a single embedded FD
		// (sigma[0]), cells are NULL one time in seven, ΔD⁻ repeats RIDs
		// and names RIDs that do not exist, and every other step empties
		// a violating group and refills it in the same update.
		name: "yp-only+nulls", seed: 163, trials: 4,
		instance: func(rng *rand.Rand) (*relation.Relation, []*core.ECFD) {
			inst, _ := randomInstanceAndSigma(rng, 45)
			punchNulls(rng, inst)
			s := inst.Schema
			attrs := []string{"A", "B", "C", "D"}
			perm := rng.Perm(len(attrs))
			fd := &core.ECFD{Name: "fd", Schema: s, X: []string{attrs[perm[0]]}, Y: []string{attrs[perm[1]]},
				Tableau: []core.PatternTuple{{LHS: []core.Pattern{core.Any()}, RHS: []core.Pattern{core.Any()}}}}
			sigma := []*core.ECFD{fd}
			for i := 0; i < 3+rng.Intn(3); i++ {
				perm := rng.Perm(len(attrs))
				e := &core.ECFD{Name: fmt.Sprintf("yp%d", i+1), Schema: s, X: []string{attrs[perm[0]]}, YP: []string{attrs[perm[1]]}}
				for j := 0; j < 1+rng.Intn(3); j++ {
					e.Tableau = append(e.Tableau, core.PatternTuple{
						LHS: []core.Pattern{randomPattern(rng)}, RHS: []core.Pattern{randomPattern(rng)}})
				}
				sigma = append(sigma, e)
			}
			return inst, sigma
		},
		update: func(t *testing.T, rng *rand.Rand, d *Detector, sigma []*core.ECFD, step int) (*relation.Relation, []int64) {
			rids, err := d.RIDs()
			if err != nil {
				t.Fatal(err)
			}
			data, err := d.currentData()
			if err != nil {
				t.Fatal(err)
			}
			flags, err := d.FlagsByRID()
			if err != nil {
				t.Fatal(err)
			}
			batch := randomRows(rng, d.schema, 1+rng.Intn(8))
			punchNulls(rng, batch)
			var doomed []int64
			xi, yi := d.schema.Index(sigma[0].X[0]), d.schema.Index(sigma[0].Y[0])
			refill := -1
			if step%2 == 1 {
				for i, rid := range rids {
					if flags[rid][1] {
						refill = i
						break
					}
				}
			}
			if refill >= 0 {
				// Every row of the MV-flagged row's group leaves; rows with
				// the same X value arrive — agreeing on Y (the group comes
				// back clean) or not (it comes back violating).
				x := data.Rows[refill][xi]
				for i, row := range data.Rows {
					if relation.Identical(row[xi], x) {
						doomed = append(doomed, rids[i])
					}
				}
				split := rng.Intn(2) == 0
				for i := 0; i < 3; i++ {
					row := batch.Rows[0].Clone()
					row[xi], row[yi] = x, relation.Text("u")
					if split && i == 2 {
						row[yi] = relation.Text("v")
					}
					batch.Rows = append(batch.Rows, row)
				}
			} else if len(rids) > 0 {
				for _, i := range rng.Perm(len(rids))[:1+rng.Intn(len(rids)/4+1)] {
					doomed = append(doomed, rids[i])
				}
			}
			if len(doomed) > 0 {
				doomed = append(doomed, doomed[0], doomed[len(doomed)-1], 0, rids[len(rids)-1]+1000)
			}
			return batch, doomed
		},
	},
	{
		// Both MV transitions in every step, under the FDs A → B and
		// C → D: a violating A group loses the rows off its most common B
		// and keeps the rest, whose flags must clear (mvClear); a clean A
		// group of two or more gains a row with another B, whose members
		// must be flagged (mvSetOld). The groups that move are A = k0…k7,
		// four violating and four clean at the start; their C and D are
		// theirs alone, so no other group flags them. Random rows around
		// them violate either FD at random.
		name: "transitions", seed: 181, trials: 3,
		instance: func(rng *rand.Rand) (*relation.Relation, []*core.ECFD) {
			inst, _ := randomInstanceAndSigma(rng, 20)
			for g := 0; g < 8; g++ {
				n := 2 + rng.Intn(3)
				for i := 0; i < n; i++ {
					b := "u"
					if g%2 == 0 && i == n-1 {
						b = "v"
					}
					inst.Rows = append(inst.Rows, relation.Tuple{relation.Text(fmt.Sprintf("k%d", g)), relation.Text(b),
						relation.Text(fmt.Sprintf("c%d", g)), relation.Text(fmt.Sprintf("d%d", g))})
				}
			}
			fd := func(x, y string) *core.ECFD {
				return &core.ECFD{Name: x + y, Schema: inst.Schema, X: []string{x}, Y: []string{y},
					Tableau: []core.PatternTuple{{LHS: []core.Pattern{core.Any()}, RHS: []core.Pattern{core.Any()}}}}
			}
			return inst, []*core.ECFD{fd("A", "B"), fd("C", "D")}
		},
		update: func(t *testing.T, rng *rand.Rand, d *Detector, _ []*core.ECFD, _ int) (*relation.Relation, []int64) {
			rids, err := d.RIDs()
			if err != nil {
				t.Fatal(err)
			}
			data, err := d.currentData()
			if err != nil {
				t.Fatal(err)
			}
			// groups[a][b] lists the positions of the rows with A = a, B = b,
			// for the A groups that move.
			groups := make(map[string]map[string][]int)
			var as []string
			for i, row := range data.Rows {
				a, b := row[0].String(), row[1].String()
				if !strings.HasPrefix(a, "k") {
					continue
				}
				if groups[a] == nil {
					groups[a] = make(map[string][]int)
					as = append(as, a)
				}
				groups[a][b] = append(groups[a][b], i)
			}
			var violating, clean []string
			for _, a := range as {
				if len(groups[a]) > 1 {
					violating = append(violating, a)
				} else if len(slices.Collect(maps.Values(groups[a]))[0]) > 1 {
					clean = append(clean, a)
				}
			}
			if len(violating) == 0 || len(clean) == 0 {
				t.Fatalf("no group left to move: %d violating, %d clean of two or more", len(violating), len(clean))
			}
			heal := groups[violating[rng.Intn(len(violating))]]
			bs := slices.Sorted(maps.Keys(heal))
			keep := bs[0]
			for _, b := range bs {
				if len(heal[b]) > len(heal[keep]) {
					keep = b
				}
			}
			var doomed []int64
			for _, b := range bs {
				if b != keep {
					for _, i := range heal[b] {
						doomed = append(doomed, rids[i])
					}
				}
			}
			split := slices.Collect(maps.Values(groups[clean[rng.Intn(len(clean))]]))[0]
			row := data.Rows[split[0]].Clone()
			row[1] = relation.Text(row[1].String() + "'")
			batch := randomRows(rng, d.schema, rng.Intn(3))
			batch.Rows = append(batch.Rows, row)
			return batch, doomed
		},
	},
	{
		// The benchmark's shape on a data table large enough that the
		// engine's probe kernels answer the touched-keys and Aux probes
		// from per-entry value sets (sqldb's candidate threshold is 4096
		// rows; the two workloads above stay far below it): the generated
		// customer data under gen.Constraints, small ΔD⁺ / ΔD⁻ against it.
		name: "gen-5k", seed: 173, trials: 1, plannedOnly: true,
		instance: func(rng *rand.Rand) (*relation.Relation, []*core.ECFD) {
			return gen.Dataset(gen.Config{Rows: 5000, Noise: 5, Seed: rng.Int63()}), gen.Constraints()
		},
		update: func(t *testing.T, rng *rand.Rand, d *Detector, _ []*core.ECFD, step int) (*relation.Relation, []int64) {
			rids, err := d.RIDs()
			if err != nil {
				t.Fatal(err)
			}
			batch := gen.Updates(gen.Config{Noise: 5, Seed: rng.Int63()}, 1+rng.Intn(12), int64(step))
			return batch, gen.DeleteSample(rng, rids, 1+rng.Intn(12))
		},
	},
}

// punchNulls replaces about one cell in seven by NULL.
func punchNulls(rng *rand.Rand, r *relation.Relation) {
	for _, row := range r.Rows {
		for j := range row {
			if rng.Intn(7) == 0 {
				row[j] = relation.Null()
			}
		}
	}
}

// assertMatchesNaive compares d's flags with the naive oracle's on the
// rows d currently holds.
func assertMatchesNaive(t *testing.T, d *Detector, sigma []*core.ECFD, where string) {
	t.Helper()
	data, err := d.currentData()
	if err != nil {
		t.Fatal(err)
	}
	rids, err := d.RIDs()
	if err != nil {
		t.Fatal(err)
	}
	flags, err := d.FlagsByRID()
	if err != nil {
		t.Fatal(err)
	}
	naive, err := core.NaiveDetect(data, sigma)
	if err != nil {
		t.Fatal(err)
	}
	for i, rid := range rids {
		if got := flags[rid]; got[0] != naive.SV[i] || got[1] != naive.MV[i] {
			t.Fatalf("%s: RID %d %v: SQL (SV=%v MV=%v) vs naive (SV=%v MV=%v)\nsigma: %s",
				where, rid, data.Rows[i], got[0], got[1], naive.SV[i], naive.MV[i], sigmaString(sigma))
		}
	}
}

func durStepApplied(t *testing.T, db *sql.DB, d *Detector, batch *relation.Relation, doomed []int64, savedRID int64) bool {
	t.Helper()
	switch {
	case batch != nil && batch.Len() > 0:
		var m sql.NullInt64
		if err := db.QueryRow("SELECT MAX(" + ColRID + ") FROM " + d.insTable).Scan(&m); err != nil {
			t.Fatal(err)
		}
		return m.Valid && m.Int64 == savedRID+int64(batch.Len())
	case len(doomed) > 0:
		var n int64
		q := fmt.Sprintf("SELECT COUNT(*) FROM %s WHERE %s = %d", d.dataTable, ColRID, doomed[0])
		if err := db.QueryRow(q).Scan(&n); err != nil {
			t.Fatal(err)
		}
		return n == 0
	}
	return false
}

// TestBatchDetectStatementsFullyBatched is the EXPLAIN acceptance for
// the kernelized closure tail: none of the five BatchDetect statements
// may contain a `[row]` scan source — every scan level with predicate
// work runs kernels or OR groups, and pure join drivers carry no
// evaluation-mode marker at all.
func TestBatchDetectStatementsFullyBatched(t *testing.T) {
	dsn := fmt.Sprintf("detect_batched_%d", dsnSeq.Add(1))
	db, err := sql.Open(sqldriver.DriverName, dsn)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	defer sqldriver.Unregister(dsn)
	d, err := New(db, gen.Schema(), gen.Constraints())
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Install(); err != nil {
		t.Fatal(err)
	}
	if _, err := d.LoadData(gen.Dataset(gen.Config{Rows: 1000, Noise: 5, Seed: 23})); err != nil {
		t.Fatal(err)
	}
	if _, err := d.BatchDetect(); err != nil {
		t.Fatal(err)
	}
	eng := sqldriver.Engine(dsn)
	stmts := map[string]string{
		"resetFlags": d.stmts.resetFlags,
		"qsvUpdate":  d.stmts.qsvUpdate,
		"qmvInsert":  d.stmts.qmvInsert,
		"mvUpdate":   d.stmts.mvUpdate,
		"truncAux":   "TRUNCATE TABLE " + d.auxTable,
	}
	for name, q := range stmts {
		plan, err := eng.Explain(q)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if strings.Contains(plan, "[row]") {
			t.Fatalf("%s still has a [row] scan source:\n%s", name, plan)
		}
	}
	// And the pattern-predicate scans run OR-group kernels, not just
	// marker-free drivers.
	for _, name := range []string{"qsvUpdate", "qmvInsert", "mvUpdate"} {
		plan, _ := eng.Explain(stmts[name])
		if !strings.Contains(plan, "or-group(") {
			t.Fatalf("%s carries no OR-group kernels:\n%s", name, plan)
		}
	}
	// The Qmv grouping must stream the macro's DISTINCT rows into its
	// groups: the 10-column group key (CID + 9 blanked-LHS columns) leads
	// the 19-column dedup key, and no macro row is materialised to be
	// grouped and, all but ~150 of 42 000 at 40k rows, thrown away; and
	// since HAVING COUNT(*) > 1 fails every group of one row, no such
	// group's row is even keyed.
	if plan, _ := eng.Explain(stmts["qmvInsert"]); !strings.Contains(plan, "[streamed: distinct source feeds 10-col groups, no rows materialised, groups of one row never keyed]") {
		t.Fatalf("qmvInsert grouping does not stream its distinct source:\n%s", plan)
	}
}

// TestIncrementalStatementsDeltaDriven is the EXPLAIN acceptance for
// the incremental script: every statement starts from ΔD. Only the
// recompute of the touched groups scans the whole data table under the
// FD guard, once per FD-bearing pattern tuple — the guard is decided on
// the pattern tuple, above the data scan, and the scan's touched-keys
// probe (alias k) is one whose entries answer from the value sets of the
// few touched keys (TestApplyUpdatesProbeRowsBounded counts what is
// left). The MV clearing scans it only below its aux_old guard (alias
// g), decided per pattern tuple too, which lets no pattern through on an
// update that touches no violating group (TestMVClearOnTransitionsOnly);
// the two statements that start from ΔD⁻ reach their rows from the
// staged RIDs through the RID index.
func TestIncrementalStatementsDeltaDriven(t *testing.T) {
	dsn := fmt.Sprintf("detect_delta_%d", dsnSeq.Add(1))
	db, err := sql.Open(sqldriver.DriverName, dsn)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	defer sqldriver.Unregister(dsn)
	d, err := New(db, gen.Schema(), gen.Constraints())
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Install(); err != nil {
		t.Fatal(err)
	}
	cfg := gen.Config{Rows: 1000, Noise: 5, Seed: 23}
	rids, err := d.LoadData(gen.Dataset(cfg))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.BatchDetect(); err != nil {
		t.Fatal(err)
	}
	// One update leaves the staging tables at their working size: the
	// plans below are the ones the next update runs.
	if _, _, err := d.ApplyUpdates(gen.Updates(cfg, 8, 0), rids[:8]); err != nil {
		t.Fatal(err)
	}
	eng := sqldriver.Engine(dsn)
	wholeData := fmt.Sprintf("(%d rows)", len(rids))
	fdGuard := fmt.Sprintf("or-group(%d terms)", d.schema.Width())
	ridProbe := fmt.Sprintf("index probe t via idx_%s_rid", d.dataTable)

	stmts := d.IncrementalSQL()
	if len(stmts) > 19 {
		t.Fatalf("the incremental script grew to %d statements", len(stmts))
	}
	for i, q := range stmts {
		plan, err := eng.Explain(q)
		if err != nil {
			t.Fatalf("statement %d: %v\n%s", i, err, q)
		}
		fdGuarded, oldGuarded := false, false
		for _, line := range strings.Split(plan, "\n") {
			line = strings.TrimSpace(line)
			if strings.HasPrefix(line, "scan c ") {
				fdGuarded = fdGuarded || strings.Contains(line, fdGuard)
				oldGuarded = oldGuarded || strings.Contains(line, "value-set probe g")
			}
			if !strings.HasPrefix(line, "scan ") || !strings.Contains(line, wholeData) {
				continue
			}
			switch {
			case q == d.stmts.mvClear:
				if !oldGuarded {
					t.Errorf("statement %d scans the data table above the aux_old guard:\n%s", i, plan)
				}
			case q != d.stmts.stageRecomp:
				t.Errorf("statement %d scans the whole data table:\n%s", i, plan)
			case !fdGuarded:
				t.Errorf("statement %d scans the data table above the FD guard:\n%s", i, plan)
			case !strings.Contains(line, "value-set probe k"):
				t.Errorf("statement %d: the touched-keys probe of the data scan cannot answer from value sets:\n%s", i, plan)
			}
		}
		if (q == d.stmts.keysFromDel || q == d.stmts.deleteRows) && !strings.Contains(plan, ridProbe) {
			t.Errorf("statement %d does not reach its rows through the RID index:\n%s", i, plan)
		}
	}
}

// TestApplyUpdatesProbeRowsBounded pins, on the engine's deterministic
// work counter, that an update's probes are paid for by the groups it
// touches, not by |D|: the recompute still visits the data table once
// per FD-bearing pattern tuple, and the MV clearing once per pattern
// tuple holding a group that was violating, but they decide nearly
// every (tuple, pattern) pair from the value sets of the few touched
// keys, and at most 15 % of the pairs reach an exact probe of the keys
// table or of Aux. Sending every pair there, as the probe kernel did
// before it built value sets, reads above 100 %.
func TestApplyUpdatesProbeRowsBounded(t *testing.T) {
	dsn := fmt.Sprintf("detect_proberows_%d", dsnSeq.Add(1))
	db, err := sql.Open(sqldriver.DriverName, dsn)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	defer sqldriver.Unregister(dsn)
	sigma := gen.Constraints()
	d, err := New(db, gen.Schema(), sigma)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Install(); err != nil {
		t.Fatal(err)
	}
	cfg := gen.Config{Rows: 6000, Noise: 5, Seed: 29} // above sqldb's 4096-candidate threshold
	rids, err := d.LoadData(gen.Dataset(cfg))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.BatchDetect(); err != nil {
		t.Fatal(err)
	}
	var fdPatterns int64
	if err := db.QueryRow(fmt.Sprintf("SELECT COUNT(*) FROM %s c WHERE %s", d.encTable, d.fdGuard())).Scan(&fdPatterns); err != nil {
		t.Fatal(err)
	}
	eng := sqldriver.Engine(dsn)
	before := eng.Stats().ProbeRows
	if _, _, err := d.ApplyUpdates(gen.Updates(cfg, 8, 0), rids[:8]); err != nil {
		t.Fatal(err)
	}
	probed := eng.Stats().ProbeRows - before
	pairs := fdPatterns * int64(len(rids))
	t.Logf("%d of %d (FD-bearing pattern, tuple) pairs reached an exact probe", probed, pairs)
	if probed > pairs*15/100 {
		t.Errorf("one 8+8 update sent %d rows to an exact probe, over 15%% of the %d × %d (FD-bearing pattern, tuple) pairs",
			probed, fdPatterns, len(rids))
	}
	assertMatchesNaive(t, d, sigma, "after the update")
}
