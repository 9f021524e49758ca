package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"ecfd"
)

// The paper's running example: cust, and φ1 / φ2 of Fig. 2.
const fig2Spec = `
table cust (AC text, PN text, NM text, STR text, CT text, ZIP text)

ecfd phi1 on cust: [CT] -> [AC] {
  (!{NYC, LI} || _)
  ({Albany, Troy, Colonie} || {'518'})
}
ecfd phi2 on cust: [CT] -> [] ; [AC] {
  ({NYC} || {'212', '718', '646', '347', '917'})
}
`

// D0 of Fig. 1 (RIDs 1–6), and a ΔD⁺ (RIDs 7–9): an Albany tuple that
// disagrees with t1 on AC, a clean NYC tuple, and a Troy tuple off 518
// that splits Troy's group.
const (
	fig1CSV = `AC,PN,NM,STR,CT,ZIP
718,1111111,Mike,Tree Ave.,Albany,12238
518,2222222,Joe,Elm Str.,Colonie,12205
518,2222222,Jim,Oak Ave.,Troy,12181
100,1111111,Rick,8th Ave.,NYC,10001
212,3333333,Ben,5th Ave.,NYC,10016
646,4444444,Ian,High St.,NYC,10011
`
	insertCSV = `AC,PN,NM,STR,CT,ZIP
518,5555555,Ann,Lark St.,Albany,12210
917,6666666,Sue,Canal St.,NYC,10013
212,7777777,Tom,River St.,Troy,12180
`
)

// runCLI is run with captured streams. Every invocation uses the one
// engine name "ecfddetect", so these tests must not run in parallel.
func runCLI(args ...string) (code int, stdout, stderr string) {
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

func writeFiles(t *testing.T) (spec, data, ins string) {
	t.Helper()
	dir := t.TempDir()
	write := func(name, body string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	return write("sigma.ecfd", fig2Spec), write("data.csv", fig1CSV), write("dplus.csv", insertCSV)
}

// wantViolations renders what ecfddetect must print for the instance
// whose i-th row carries rids[i]: the naive oracle's flagged rows as
// RID, attributes, SV, MV.
func wantViolations(t *testing.T, inst *ecfd.Relation, rids []int64) string {
	t.Helper()
	spec, err := ecfd.ParseSpec(fig2Spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	vio, err := ecfd.Detect(inst, spec.Constraints)
	if err != nil {
		t.Fatal(err)
	}
	bit := map[bool]int{true: 1}
	var b strings.Builder
	b.WriteString("RID," + strings.Join(inst.Schema.Names(), ",") + ",SV,MV\n")
	for i, row := range inst.Rows {
		if !vio.SV[i] && !vio.MV[i] {
			continue
		}
		fmt.Fprintf(&b, "%d", rids[i])
		for _, v := range row {
			b.WriteString("," + v.String())
		}
		fmt.Fprintf(&b, ",%d,%d\n", bit[vio.SV[i]], bit[vio.MV[i]])
	}
	return b.String()
}

// TestBatchInsertDelete drives the paper's example through batch
// detection, an incremental insert and an incremental delete, and
// requires the violation CSV to be the naive oracle's on the final
// instance.
func TestBatchInsertDelete(t *testing.T) {
	specPath, dataPath, insPath := writeFiles(t)
	spec, err := ecfd.ParseSpec(fig2Spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	schema := spec.Constraints[0].Schema
	read := func(csv string) *ecfd.Relation {
		r, err := ecfd.ReadCSV(strings.NewReader(csv), schema)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	base := read(fig1CSV)

	code, out, errs := runCLI("-spec", specPath, "-data", dataPath)
	if code != 0 {
		t.Fatalf("batch: exit %d\n%s", code, errs)
	}
	if want := wantViolations(t, base, []int64{1, 2, 3, 4, 5, 6}); out != want {
		t.Errorf("batch violations:\n%s\nwant:\n%s", out, want)
	}
	if !strings.Contains(errs, "batch: 6 rows,") {
		t.Errorf("batch summary missing: %s", errs)
	}

	// Final instance: RIDs 1–9 without 1 (t1, whose leaving heals the
	// Albany group) and 5.
	final := ecfd.NewRelation(schema)
	var rids []int64
	for i, row := range append(base.Rows, read(insertCSV).Rows...) {
		if rid := int64(i + 1); rid != 1 && rid != 5 {
			final.Rows = append(final.Rows, row)
			rids = append(rids, rid)
		}
	}
	code, out, errs = runCLI("-spec", specPath, "-data", dataPath, "-insert", insPath, "-delete", "1, 5")
	if code != 0 {
		t.Fatalf("incremental: exit %d\n%s", code, errs)
	}
	if want := wantViolations(t, final, rids); out != want {
		t.Errorf("violations after -insert/-delete:\n%s\nwant:\n%s", out, want)
	}
	for _, line := range []string{"incremental insert: 3 tuples", "incremental delete: 2 tuples", "after updates:"} {
		if !strings.Contains(errs, line) {
			t.Errorf("summary lacks %q:\n%s", line, errs)
		}
	}
}

// TestDeleteReportsRowsRemoved: the incremental delete line counts the
// rows removed, not the RIDs named — a repeated RID and one naming no
// row remove nothing.
func TestDeleteReportsRowsRemoved(t *testing.T) {
	specPath, dataPath, _ := writeFiles(t)
	code, _, errs := runCLI("-spec", specPath, "-data", dataPath, "-delete", "1, 1, 999", "-quiet")
	if code != 0 {
		t.Fatalf("exit %d\n%s", code, errs)
	}
	if !strings.Contains(errs, "incremental delete: 1 tuples") {
		t.Errorf("summary does not count one removed row:\n%s", errs)
	}
}

// TestUsageErrors: what the command line refuses exits 2 — the two
// retired detector flags as undefined, like any other.
func TestUsageErrors(t *testing.T) {
	specPath, dataPath, _ := writeFiles(t)
	for _, c := range []struct {
		name string
		args []string
		want string
	}{
		{"parallel", []string{"-spec", specPath, "-data", dataPath, "-parallel", "8"}, "flag provided but not defined: -parallel"},
		{"shards", []string{"-spec", specPath, "-data", dataPath, "-shards", "4"}, "flag provided but not defined: -shards"},
		{"resume without wal", []string{"-spec", specPath, "-resume"}, "-resume needs -wal"},
		{"no data", []string{"-spec", specPath}, "-spec and -data are required"},
	} {
		if code, out, errs := runCLI(c.args...); code != 2 || out != "" || !strings.Contains(errs, c.want) {
			t.Errorf("%s: exit %d, stdout %q, stderr %q; want 2 and %q", c.name, code, out, errs, c.want)
		}
	}
	code, _, usage := runCLI("-h")
	if code != 0 || !strings.Contains(usage, "-spec") || strings.Contains(usage, "-parallel") || strings.Contains(usage, "-shards") {
		t.Errorf("-h: exit %d, usage:\n%s", code, usage)
	}
}

// TestReservedValueRefused: a CSV cell holding the string the detector
// reserves for NULL fails the run with exit 1, naming the file, the row
// and the attribute, whether it comes in through -data or -insert.
func TestReservedValueRefused(t *testing.T) {
	specPath, dataPath, _ := writeFiles(t)
	bad := filepath.Join(t.TempDir(), "bad.csv")
	if err := os.WriteFile(bad, []byte(insertCSV+"@NULL@,8888888,Kim,Lark St.,Albany,12210\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{"-spec", specPath, "-data", bad},
		{"-spec", specPath, "-data", dataPath, "-insert", bad},
	} {
		code, _, errs := runCLI(args...)
		if code != 1 || !strings.Contains(errs, bad+": detect: row 4 of the batch: AC holds \"@NULL@\"") {
			t.Errorf("%v: exit %d, stderr %q; want 1 naming %s, row 4, AC", args, code, errs, bad)
		}
	}
}

// TestWALResume: a -wal run persists the session; -resume recovers it
// without -data and reports the same violations.
func TestWALResume(t *testing.T) {
	specPath, dataPath, insPath := writeFiles(t)
	wal := filepath.Join(t.TempDir(), "wal")
	code, first, errs := runCLI("-spec", specPath, "-data", dataPath, "-insert", insPath, "-wal", wal)
	if code != 0 {
		t.Fatalf("-wal run: exit %d\n%s", code, errs)
	}
	counts := regexp.MustCompile(`\d+ violations \(SV \d+, MV \d+\)`)
	want := counts.FindAllString(errs, -1) // the batch line's, then "after updates"
	code, resumed, errs := runCLI("-spec", specPath, "-wal", wal, "-resume")
	if code != 0 {
		t.Fatalf("-resume run: exit %d\n%s", code, errs)
	}
	if got := counts.FindString(errs); len(want) != 2 || got != want[1] || !strings.Contains(errs, "resume: wal gen") {
		t.Errorf("resumed counts %q, the persisted run reported %q:\n%s", got, want, errs)
	}
	if resumed != first || strings.Count(first, "\n") < 2 {
		t.Errorf("resumed violations:\n%s\nfirst run:\n%s", resumed, first)
	}
}
