package core

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ecfd/internal/relation"
)

// FuzzParseSpec: the eCFD spec language never panics, and every
// constraint of a spec it accepts passes Validate. The cust schema is
// predeclared, as the CLI tools' callers may, so bare constraint sources
// parse too. Seeded with the example of Spec's doc comment (read from
// spec.go, so the two cannot drift), the test sources of this package,
// Fig. 2 and Example 3.1 rendered, and every *.ecfd file under examples/.
func FuzzParseSpec(f *testing.F) {
	src, err := os.ReadFile("spec.go")
	if err != nil {
		f.Fatal(err)
	}
	var doc []string
	for _, line := range strings.Split(string(src), "\n") {
		if strings.HasPrefix(line, "type Spec struct") {
			break
		}
		if rest, ok := strings.CutPrefix(line, "//\t"); ok {
			doc = append(doc, rest)
		}
	}
	if len(doc) == 0 {
		f.Fatal("no example in Spec's doc comment")
	}
	f.Add(strings.Join(doc, "\n"))
	f.Add(specSrc)
	f.Add(fig2Source)
	for _, e := range append(Fig2Constraints(), Example31Unsatisfiable()) {
		f.Add(e.String())
	}
	files, err := filepath.Glob("../../examples/*/*.ecfd")
	if err != nil {
		f.Fatal(err)
	}
	for _, name := range files {
		b, err := os.ReadFile(name)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(b))
	}
	f.Fuzz(func(t *testing.T, src string) {
		spec, err := ParseSpec(src, map[string]*relation.Schema{"cust": CustSchema()})
		if err != nil {
			return
		}
		for _, e := range spec.Constraints {
			if err := e.Validate(); err != nil {
				t.Fatalf("accepted %q, whose constraint %s fails Validate: %v", src, e, err)
			}
		}
	})
}
