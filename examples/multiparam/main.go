// Multiparam: the production-shaped end-to-end session — everything after
// the headline experiment. One NN per parameter (§5), fuzzy rule-base
// diagnosis of each worst case, functional screening of the database,
// minimization of the dominant weakness test for wafer-probe analysis,
// drift detection under device self-heating, and finally lot screening
// plus environmental spec extraction.
//
// Run with: go run ./examples/multiparam
package main

import (
	"fmt"
	"log"

	"repro/internal/ate"
	"repro/internal/charspec"
	"repro/internal/core"
	"repro/internal/dut"
	"repro/internal/search"
	"repro/internal/testgen"
	"repro/internal/trippoint"
)

func main() {
	log.SetFlags(0)

	geom := dut.DefaultGeometry()
	dev, err := dut.NewDevice(geom, dut.NewDie(0, dut.CornerTypical))
	if err != nil {
		log.Fatal(err)
	}
	tester := ate.New(dev, 3)
	tester.Heating = ate.DefaultThermal() // realistic self-heating session

	// --- One flow per parameter (§5) --------------------------------------
	cfg := core.DefaultConfig(3)
	cfg.LearnTests = 200 // three flows; keep each lean
	nominal := testgen.NominalConditions()
	cfg.FixedConditions = &nominal

	fmt.Println("characterizing T_DQ, Fmax and Vddmin with one NN per parameter…")
	rep, err := core.MultiCharacterize(cfg, tester, []ate.Parameter{ate.TDQ, ate.Fmax, ate.VddMin})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println()
	fmt.Print(rep.Format())

	worst, _ := rep.WorstOverall()

	// --- Functional screen (§6: failures stored separately) ---------------
	fails, err := core.FunctionalScreen(tester, worst.Database)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nfunctional screen: %d of the worst-case tests provoke value failures\n", fails)

	// --- Minimize the dominant weakness for failure analysis --------------
	char, err := core.NewCharacterizer(withParam(cfg, worst.Parameter), tester)
	if err != nil {
		log.Fatal(err)
	}
	defer char.Close()
	min, err := char.Minimize(worst.Worst.Test, core.DefaultMinimizeConfig())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("minimized %s: %d → %d vectors (%.1f×) at WCR %.3f → %.3f\n",
		worst.Worst.Test.Name, len(min.Original.Seq), len(min.Minimized.Seq),
		min.ReductionFactor(), min.OriginalWCR, min.MinimizedWCR)

	// --- Drift check under self-heating ------------------------------------
	tester.Heating.Reset() // fresh insertion: watch the warm-up drift
	runner := trippoint.NewRunner(tester, worst.Parameter)
	runner.Searcher = &search.SUTP{Refine: true} // full resolution to resolve the drift
	for i := 0; i < 40; i++ {
		if _, err := runner.Measure(min.Minimized); err != nil {
			log.Fatal(err)
		}
	}
	drift := runner.DSV().DetectDrift()
	fmt.Printf("thermal drift over 40 repeats: slope %+.4f %s/test (significant: %v, junction +%.1f °C)\n",
		drift.Slope, worst.Parameter.Unit(), drift.Significant, tester.Heating.RiseC())

	// --- Lot screen + spec extraction --------------------------------------
	lot := dut.NewDieLot(9, 8)
	screen, err := core.ScreenLotStream(worst.Parameter, []testgen.Test{min.Minimized, worst.Worst.Test},
		dut.LotSlice(lot), geom, 9, core.LotOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println()
	fmt.Print(screen.Format())

	worstDie := lot[screen.WorstDie.DieID]
	specDev, err := dut.NewDevice(geom, worstDie)
	if err != nil {
		log.Fatal(err)
	}
	specTester := ate.New(specDev, 99)
	spec, err := charspec.Extract(specTester, worst.Parameter,
		[]testgen.Test{worst.Worst.Test}, charspec.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println()
	fmt.Printf("spec extraction on worst die #%d (%s): worst corner %s, recommended limit %.3f %s (meets spec: %v)\n",
		worstDie.ID, worstDie.Corner, spec.WorstCorner, spec.RecommendedLimit,
		worst.Parameter.Unit(), spec.MeetsSpec)
}

func withParam(cfg core.Config, p ate.Parameter) core.Config {
	cfg.Parameter = p
	return cfg
}
