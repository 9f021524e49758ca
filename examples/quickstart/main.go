// Quickstart: the paper's running example end to end.
//
// We read φ1 and φ2 of Fig. 2 over the cust schema from fig2.ecfd,
// check the Fig. 1 instance D0 in memory, then run the same detection
// through SQL (BatchDetect) and show that both find exactly the
// violations of Example 2.2: t1 (Albany with area code 718) and t4 (NYC
// with area code 100).
//
// Run with: go run ./examples/quickstart
package main

import (
	_ "embed"
	"fmt"
	"log"

	"ecfd"
)

//go:embed fig2.ecfd
var fig2Spec string

func main() {
	spec, err := ecfd.ParseSpec(fig2Spec, nil)
	if err != nil {
		log.Fatal(err)
	}
	schema := spec.Schemas["cust"]
	sigma := spec.Constraints
	inst := ecfd.Fig1Instance()

	fmt.Println("Constraints (Fig. 2):")
	for _, e := range sigma {
		fmt.Print(e)
	}

	// 1. Direct, in-memory semantics (§II).
	v, err := ecfd.Detect(inst, sigma)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nNaive detection: %d violations (SV %d, MV %d)\n",
		v.Count(), v.CountSV(), v.CountMV())
	for _, i := range v.Violating() {
		fmt.Printf("  t%d: %v\n", i+1, inst.Rows[i])
	}

	// 2. The same through SQL (§V): encode Σ as data tables, run the
	// fixed Qsv/Qmv query pair via database/sql on the embedded engine.
	db, err := ecfd.OpenMemory("quickstart")
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()
	defer ecfd.CloseMemory("quickstart")

	d, err := ecfd.NewDetector(db, schema, sigma)
	if err != nil {
		log.Fatal(err)
	}
	if err := d.Install(); err != nil {
		log.Fatal(err)
	}
	if _, err := d.LoadData(inst); err != nil {
		log.Fatal(err)
	}
	st, err := d.BatchDetect()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nSQL BatchDetect: %d violations (SV %d, MV %d) in %v\n",
		st.Total, st.SV, st.MV, st.Elapsed.Round(1e6))

	vio, err := d.Violations()
	if err != nil {
		log.Fatal(err)
	}
	for _, row := range vio.Rows {
		fmt.Printf("  RID %v: %v\n", row[0], row[1:])
	}

	// 3. A peek at the generated SQL (Fig. 4).
	qsv, _, qmv, _ := d.SQL()
	fmt.Printf("\nGenerated Qsv (Fig. 4 top):\n%s\n", qsv)
	fmt.Printf("\nGenerated Qmv (Fig. 4 bottom, materialized into Aux):\n%s\n", qmv)
}
