// Command ecfddetect finds eCFD violations in CSV data with the
// SQL-based detector of §V, running on the embedded in-memory engine
// through database/sql.
//
//	ecfddetect -spec sigma.ecfd -data data.csv                # batch
//	ecfddetect -spec sigma.ecfd -data data.csv -insert dplus.csv
//	ecfddetect -spec sigma.ecfd -data data.csv -delete 5,9,23
//
// With -insert/-delete, the tool first runs BatchDetect on the base
// data, then applies the updates with the incremental algorithm and
// reports both the incremental time and the final violation counts.
// Violating tuples go to -o (default stdout) as CSV with RID, SV, MV.
package main

import (
	"database/sql"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"ecfd"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole process: 0 on success, 1 when detection fails, 2 on
// a command line it cannot accept. Violations go to stdout (or -o),
// everything else to stderr.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ecfddetect", flag.ContinueOnError)
	fs.SetOutput(stderr)
	specPath := fs.String("spec", "", "constraint file (tables + eCFDs)")
	dataPath := fs.String("data", "", "CSV instance of the constrained table")
	insertPath := fs.String("insert", "", "CSV batch to insert incrementally")
	deleteList := fs.String("delete", "", "comma-separated RIDs to delete incrementally")
	out := fs.String("o", "-", "violation output CSV ('-' = stdout)")
	quiet := fs.Bool("quiet", false, "suppress the violation listing, print summary only")
	walDir := fs.String("wal", "", "write-ahead-log directory: persist the session and recover it on restart")
	fsync := fs.String("fsync", "", "WAL fsync policy: always (default), batched, off")
	checkpoint := fs.Int64("checkpoint", 4<<20, "WAL bytes between checkpoint snapshots (0 = never; needs -wal)")
	resume := fs.Bool("resume", false, "resume a persisted session from -wal instead of installing and loading -data")
	if err := fs.Parse(args); errors.Is(err, flag.ErrHelp) {
		return 0
	} else if err != nil {
		return 2
	}
	if *specPath == "" || (*dataPath == "" && !*resume) {
		fmt.Fprintln(stderr, "ecfddetect: -spec and -data are required (-data optional with -resume)")
		return 2
	}
	if *resume && *walDir == "" {
		fmt.Fprintln(stderr, "ecfddetect: -resume needs -wal")
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "ecfddetect:", err)
		return 1
	}

	src, err := os.ReadFile(*specPath)
	if err != nil {
		return fail(err)
	}
	spec, err := ecfd.ParseSpec(string(src), nil)
	if err != nil {
		return fail(err)
	}
	if len(spec.Constraints) == 0 {
		return fail(fmt.Errorf("no constraints in %s", *specPath))
	}
	schema := spec.Constraints[0].Schema
	for _, e := range spec.Constraints {
		if e.Schema.Name != schema.Name {
			return fail(fmt.Errorf("all constraints must target one table; got %s and %s", schema.Name, e.Schema.Name))
		}
	}

	var inst *ecfd.Relation
	if *dataPath != "" {
		if inst, err = readCSV(*dataPath, schema); err != nil {
			return fail(err)
		}
	}

	var db *sql.DB
	dsn := "ecfddetect"
	if *walDir != "" {
		db, dsn, err = ecfd.OpenDurable("ecfddetect", *walDir, *fsync, *checkpoint)
	} else {
		db, err = ecfd.OpenMemory(dsn)
	}
	if err != nil {
		return fail(err)
	}
	defer ecfd.CloseMemory(dsn)
	defer db.Close()

	d, err := ecfd.NewDetector(db, schema, spec.Constraints)
	if err != nil {
		return fail(err)
	}
	if *resume {
		if err := d.Resume(); err != nil {
			return fail(err)
		}
		st, _ := ecfd.StatsOf(dsn) // opened above
		r := st.Recovery
		fmt.Fprintf(stderr,
			"resume: wal gen %d (snapshot gen %d, units replayed %d, torn tail %v, fell back %v); epoch %d, %d live / %d retired epochs, %d retired bytes\n",
			r.Gen, r.SnapshotGen, r.UnitsReplayed, r.TornTail, r.FellBack,
			st.EpochSeq, st.LiveEpochs, st.RetiredEpochs, st.RetiredBytes)
		if r.Skipped != "" {
			fmt.Fprintf(stderr, "resume: skipped %s\n", r.Skipped)
		}
	} else if err := d.Install(); err != nil {
		return fail(err)
	}
	nRows := 0
	if inst != nil {
		if _, err := d.LoadData(inst); err != nil {
			return fail(fmt.Errorf("%s: %w", *dataPath, err))
		}
		nRows = inst.Len()
	}

	st, err := d.BatchDetect()
	if err != nil {
		return fail(err)
	}
	fmt.Fprintf(stderr, "batch: %d rows, %d violations (SV %d, MV %d) in %v\n",
		nRows, st.Total, st.SV, st.MV, st.Elapsed.Round(1e6))

	if *insertPath != "" {
		batch, err := readCSV(*insertPath, schema)
		if err != nil {
			return fail(err)
		}
		_, ist, err := d.InsertTuples(batch)
		if err != nil {
			return fail(fmt.Errorf("%s: %w", *insertPath, err))
		}
		fmt.Fprintf(stderr, "incremental insert: %d tuples in %v\n", ist.Applied, ist.Elapsed.Round(1e6))
	}
	if *deleteList != "" {
		var rids []int64
		for _, s := range strings.Split(*deleteList, ",") {
			rid, err := strconv.ParseInt(strings.TrimSpace(s), 10, 64)
			if err != nil {
				return fail(fmt.Errorf("bad RID %q: %w", s, err))
			}
			rids = append(rids, rid)
		}
		ist, err := d.DeleteTuples(rids)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(stderr, "incremental delete: %d tuples in %v\n", ist.Applied, ist.Elapsed.Round(1e6))
	}

	if *insertPath != "" || *deleteList != "" {
		sv, mv, total, err := d.Counts()
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(stderr, "after updates: %d violations (SV %d, MV %d)\n", total, sv, mv)
	}

	if *quiet {
		return 0
	}
	vio, err := d.Violations()
	if err != nil {
		return fail(err)
	}
	if *out == "-" {
		if err := vio.WriteCSV(stdout); err != nil {
			return fail(err)
		}
		return 0
	}
	f, err := os.Create(*out)
	if err != nil {
		return fail(err)
	}
	if err := vio.WriteCSV(f); err != nil {
		f.Close()
		return fail(err)
	}
	if err := f.Close(); err != nil {
		return fail(err)
	}
	return 0
}

func readCSV(path string, schema *ecfd.Schema) (*ecfd.Relation, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ecfd.ReadCSV(f, schema)
}
