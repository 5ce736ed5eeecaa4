package fuzzy_test

import (
	"fmt"

	"repro/internal/fuzzy"
	"repro/internal/wcr"
)

// ExampleTripPointCoder encodes a measured trip point into the severity
// grades the neural networks learn, decodes the severity back and places
// it in its fig. 6 WCR band.
func ExampleTripPointCoder() {
	// T_DQ: specification minimum 20 ns (eq. 6 direction).
	coder, err := fuzzy.NewTripPointCoder(wcr.Spec{Limit: 20, Min: true}, fuzzy.CodingFuzzy)
	if err != nil {
		panic(err)
	}
	for _, trip := range []float64{32.3, 22.1} {
		enc := coder.Encode(trip)
		sev := coder.Severity(enc)
		fmt.Printf("%.1f ns → severity %.3f (%s)\n", trip, sev, wcr.Classify(sev))
	}
	// Output:
	// 32.3 ns → severity 0.619 (pass)
	// 22.1 ns → severity 0.905 (weakness)
}

// ExampleEngine builds the paper's "if A and B and C, then D is quite
// close to the limit" rule shape with the Mamdani engine.
func ExampleEngine() {
	activity, _ := fuzzy.AutoPartition("activity", 0, 1, []string{"low", "high"})
	noise, _ := fuzzy.AutoPartition("noise", 0, 1, []string{"low", "high"})
	margin, _ := fuzzy.AutoPartition("margin", 0, 1, []string{"safe", "close", "beyond"})

	e, _ := fuzzy.NewEngine(margin)
	_ = e.AddInput(activity)
	_ = e.AddInput(noise)
	_ = e.AddRule(fuzzy.Rule{
		If:   []fuzzy.Clause{{Variable: "activity", Term: "high"}, {Variable: "noise", Term: "high"}},
		Then: fuzzy.Clause{Variable: "margin", Term: "beyond"},
	})
	_ = e.AddRule(fuzzy.Rule{
		If:   []fuzzy.Clause{{Variable: "activity", Term: "low"}},
		Then: fuzzy.Clause{Variable: "margin", Term: "safe"},
	})

	// Infer gives the margin's term grades; the centroid defuzzifies them.
	calmGrades, _ := e.Infer(map[string]float64{"activity": 0.1, "noise": 0.1})
	hotGrades, _ := e.Infer(map[string]float64{"activity": 0.95, "noise": 0.9})
	calm := margin.CentroidDefuzzify(calmGrades, 0)
	hot := margin.CentroidDefuzzify(hotGrades, 0)
	fmt.Printf("calm margin %.2f < hot margin %.2f: %v\n", calm, hot, calm < hot)
	// Output: calm margin 0.26 < hot margin 0.78: true
}
