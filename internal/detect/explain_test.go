package detect

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/plans.golden and testdata/work.golden")

// TestPlansGolden pins the plans of the detector's fixed statement set —
// what `ecfdbench -explain` prints — to testdata/plans.golden: a change
// to the planner or to the generated SQL that moves a plan shows up as a
// diff here. `go test ./internal/detect -run TestPlansGolden -update`
// rewrites the file after an intended change.
func TestPlansGolden(t *testing.T) {
	var got bytes.Buffer
	if err := ExplainPlans(&got, 42); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "plans.golden")
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
	// Name the first line that moved; the whole output is short enough to
	// compare by eye with the -update rewrite.
	g, w := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	i := 0
	for i < len(g) && i < len(w) && g[i] == w[i] {
		i++
	}
	at := func(lines []string) string {
		if i < len(lines) {
			return lines[i]
		}
		return "(end of output)"
	}
	t.Errorf("plans differ from %s at line %d (rerun with -update after an intended change):\n got %s\nwant %s",
		path, i+1, at(g), at(w))
}
