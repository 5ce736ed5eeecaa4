// Shmoo: regenerates the fig. 8 worst-case device parameter variation
// analysis — many tests overlaid in one Vdd-vs-T_DQ shmoo plot.
//
// The all-pass region ('*') is bounded by the *worst* test at every supply
// point; the partial band (digits) is exactly the test-dependent trip point
// variation the multiple-trip-point concept exists to expose. A crafted
// high-activity test is overlaid last to show how a worst-case test pushes
// the boundary further left than any of the random tests.
//
// Run with: go run ./examples/shmoo
package main

import (
	"fmt"
	"log"

	"repro/internal/ate"
	"repro/internal/dut"
	"repro/internal/shmoo"
	"repro/internal/testgen"
)

func main() {
	log.SetFlags(0)

	dev, err := dut.NewDevice(dut.DefaultGeometry(), dut.NewDie(0, dut.CornerTypical))
	if err != nil {
		log.Fatal(err)
	}
	tester := ate.New(dev, 11)
	cond := testgen.NominalConditions()
	gen := testgen.NewRandomGenerator(12, dev.Geometry().Words(), testgen.DefaultConditionLimits())
	gen.FixedConditions = &cond

	plot, err := shmoo.NewPlot(shmoo.DefaultTDQAxis(), shmoo.DefaultVddAxis())
	if err != nil {
		log.Fatal(err)
	}

	// A coordinated worst-case pattern (what the paper's NN+GA flow
	// discovers), overlaid last: adjacent complementary write pairs
	// alternating between complementary base addresses.
	worst, err := testgen.BusThrash(dev.Geometry().Words(), 400, cond)
	if err != nil {
		log.Fatal(err)
	}
	worst.Name = "WORST"

	const overlay = 200
	fmt.Printf("sweeping %d random tests over the Vdd × T_DQ grid…\n", overlay)
	if err := plot.AddTestsOn(nil, tester, append(gen.Batch(overlay), worst), 11); err != nil {
		log.Fatal(err)
	}

	fmt.Println()
	fmt.Print(plot.Render())
	fmt.Printf("\nworst-case trip point variation: %.2f ns\n", plot.WorstCaseVariation())

	// Show the boundary spread at the nominal supply row.
	nominalRow := 0
	bestDiff := 1e9
	for yi := 0; yi < plot.Y.Steps; yi++ {
		if d := abs(plot.Y.Value(yi) - 1.8); d < bestDiff {
			bestDiff, nominalRow = d, yi
		}
	}
	allPass, anyPass, ok := plot.BoundarySpread(nominalRow)
	if ok {
		fmt.Printf("at Vdd %.2f V: every test passes to %.1f ns, the best-margin test to %.1f ns\n",
			plot.Y.Value(nominalRow), allPass, anyPass)
		fmt.Printf("→ a production strobe set between those values ships escapes; only the\n")
		fmt.Printf("  worst-case test (leftmost boundary) bounds the true specification.\n")
	}
	s := tester.Stats()
	fmt.Printf("\ntester: %d measurements, %.1f s simulated test time\n", s.Measurements, s.TestTimeSec)
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
