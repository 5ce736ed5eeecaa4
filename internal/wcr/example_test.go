package wcr_test

import (
	"fmt"

	"repro/internal/wcr"
)

// ExampleForMin computes the paper's own Table 1 values: eq. 6 against the
// 20 ns T_DQ specification minimum.
func ExampleForMin() {
	for _, row := range []struct {
		name string
		tdq  float64
	}{
		{"March", 32.3},
		{"Random", 28.5},
		{"NNGA", 22.1},
	} {
		w := wcr.ForMin(row.tdq, 20)
		fmt.Printf("%-7s WCR %.3f → %s\n", row.name, w, wcr.Classify(w))
	}
	// Output:
	// March   WCR 0.619 → pass
	// Random  WCR 0.702 → pass
	// NNGA    WCR 0.905 → weakness
}

// ExampleRanking bands measurements as fig. 6 does and picks the worst.
func ExampleRanking() {
	r := wcr.NewRanking(20, true)
	r.Add("calm", 33.0)
	r.Add("aggressive", 21.0)
	r.Add("violating", 19.0)
	for _, e := range r.Entries {
		fmt.Printf("%s: %.2f (%s)\n", e.Name, e.WCR, e.Class)
	}
	worst, _ := r.Worst()
	fmt.Println("worst:", worst.Name)
	// Output:
	// calm: 0.61 (pass)
	// aggressive: 0.95 (weakness)
	// violating: 1.05 (fail)
	// worst: violating
}
