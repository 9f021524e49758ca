// Command ecfdgen generates the synthetic cust datasets of the paper's
// experimental study (§VI) as CSV, and can emit the matching constraint
// file in the textual eCFD language.
//
// Usage:
//
//	ecfdgen -rows 10000 -noise 5 -seed 42 -o data.csv
//	ecfdgen -constraints -o sigma.ecfd
//	ecfdgen -constraints -tableau 200 -o sigma200.ecfd
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"ecfd/internal/gen"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole process: 0 on success, 1 when writing fails, 2 on a
// command line it cannot accept.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ecfdgen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	rows := fs.Int("rows", 10_000, "number of tuples")
	noise := fs.Float64("noise", 5, "percentage of corrupted tuples (0-100)")
	seed := fs.Int64("seed", 42, "generator seed")
	out := fs.String("o", "-", "output file ('-' = stdout)")
	constraints := fs.Bool("constraints", false, "emit the Σ of 10 eCFDs instead of data")
	tableau := fs.Int("tableau", 0, "grow φ1's pattern tableau to this many rows (with -constraints)")
	if err := fs.Parse(args); errors.Is(err, flag.ErrHelp) {
		return 0
	} else if err != nil {
		return 2
	}
	cfg := gen.Config{Rows: *rows, Noise: *noise, Seed: *seed}
	if err := cfg.Validate(); err != nil && !*constraints {
		fmt.Fprintln(stderr, "ecfdgen:", err)
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "ecfdgen:", err)
		return 1
	}

	w := stdout
	if *out != "-" {
		f, err := os.Create(*out)
		if err != nil {
			return fail(err)
		}
		defer f.Close()
		w = f
	}

	if *constraints {
		sigma := gen.Constraints()
		if *tableau > 0 {
			sigma = gen.ConstraintsScaled(*tableau, *seed)
		}
		var b strings.Builder
		s := gen.Schema()
		b.WriteString("table " + s.Name + " (")
		for i, a := range s.Attrs {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(a.Name + " text")
		}
		b.WriteString(")\n\n")
		for _, e := range sigma {
			b.WriteString(e.String())
			b.WriteString("\n")
		}
		if _, err := io.WriteString(w, b.String()); err != nil {
			return fail(err)
		}
		return 0
	}

	if err := gen.Dataset(cfg).WriteCSV(w); err != nil {
		return fail(err)
	}
	return 0
}
