package main

import (
	"bytes"
	"strings"
	"testing"
)

func runCLI(args ...string) (code int, stdout, stderr string) {
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// TestUsageErrors: parameters gen.Dataset cannot honour are a usage error
// — exit 2, nothing written — not a panic halfway through the CSV.
func TestUsageErrors(t *testing.T) {
	for _, c := range []struct {
		name string
		args []string
		want string
	}{
		{"noise above 100", []string{"-rows", "10", "-noise", "150"}, "noise must be a percentage in [0, 100]"},
		{"negative noise", []string{"-rows", "10", "-noise", "-1"}, "noise must be a percentage in [0, 100]"},
		{"negative rows", []string{"-rows", "-3"}, "rows must be >= 0"},
		{"unknown flag", []string{"-bogus"}, "flag provided but not defined: -bogus"},
	} {
		if code, out, errs := runCLI(c.args...); code != 2 || out != "" || !strings.Contains(errs, c.want) {
			t.Errorf("%s: exit %d, stdout %q, stderr %q; want 2 and %q", c.name, code, out, errs, c.want)
		}
	}
}

// TestGenerates: the edges of the range still generate, and -constraints
// emits the schema line and ten constraints.
func TestGenerates(t *testing.T) {
	for _, noise := range []string{"0", "100"} {
		code, out, errs := runCLI("-rows", "20", "-noise", noise, "-seed", "3")
		if code != 0 || strings.Count(out, "\n") != 21 {
			t.Errorf("-noise %s: exit %d, %d lines, stderr %q; want 0 and a header plus 20 rows", noise, code, strings.Count(out, "\n"), errs)
		}
	}
	code, out, errs := runCLI("-constraints")
	if code != 0 || !strings.HasPrefix(out, "table cust (") || strings.Count(out, "ecfd ") < 10 {
		t.Errorf("-constraints: exit %d, stderr %q, output:\n%s", code, errs, out)
	}
}
