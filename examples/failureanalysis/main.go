// Failureanalysis: what happens after the CI flow finds a worst-case test —
// the detailed-analysis and manufacturing handoff the paper points at in
// §2/§6 ("re-simulated or analyzed in detail with ATE (e.g. wafer probing
// analysis) to localize the design weakness efficiently", "develop a
// production test program in manufacturing test").
//
// The walkthrough: take the coordinated worst-case pattern, trace it cycle
// by cycle, locate the supply-stress hot window, simulate the power
// delivery network droop (including the resonance sweep), provoke and
// repair a weak cell with row redundancy, and finally build a production
// program and show that adding the worst-case screen stops the escapes a
// March-only program ships.
//
// Run with: go run ./examples/failureanalysis
package main

import (
	"fmt"
	"log"

	"repro/internal/ate"
	"repro/internal/core"
	"repro/internal/dut"
	"repro/internal/pdn"
	"repro/internal/testgen"
)

// worstPattern is the coordinated worst-case pattern, 200 complementary
// write pairs in row 0 and the last row (the weak cell sits in row 2),
// followed by a probe of the weak address so the failure is observable.
func worstPattern(words uint32) (testgen.Test, error) {
	t, err := testgen.BusThrash(words, 400, testgen.NominalConditions())
	t.Name = "WORST"
	t.Seq = append(t.Seq,
		testgen.Vector{Op: testgen.OpWrite, Addr: 33, Data: 0x12345678},
		testgen.Vector{Op: testgen.OpRead, Addr: 33},
	)
	return t, err
}

func main() {
	log.SetFlags(0)

	geom := dut.DefaultGeometry()
	// The analysed sample: a die with a marginal cell in bank 0, row 2.
	die := dut.NewDie(0, dut.CornerTypical, dut.WithWeakCell(33, 1.85))
	dev, err := dut.NewDevice(geom, die)
	if err != nil {
		log.Fatal(err)
	}
	worst, err := worstPattern(geom.Words())
	if err != nil {
		log.Fatal(err)
	}

	// --- 1. Cycle trace and hot window ------------------------------------
	records, profile, err := dev.Trace(worst)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("trace: %d cycles, activity ATD %.2f / toggle %.2f / coupling %.2f, ridge %.2f\n",
		len(records), profile.Act.ATDPeak, profile.Act.TogglePeak,
		profile.Act.CouplingScore, profile.Ridge())
	if start, end, mean, ok := dut.HotWindow(records, 32); ok {
		fmt.Printf("hot window: cycles %d–%d, mean SSN %.2f — first probe target\n", start, end, mean)
	}
	corrupted := 0
	for _, r := range records {
		if r.Corrupted {
			fmt.Printf("functional failure: cycle %d, address %d (bank %d row %d col %d)\n",
				r.Cycle, r.Addr, r.Bank, r.Row, r.Col)
			corrupted++
		}
	}

	// --- 2. PDN droop simulation ------------------------------------------
	network := pdn.Default()
	droop, err := network.Simulate(records, worst.Cond.VddV, worst.Cond.ClockMHz)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nPDN (f0 %.1f MHz, ζ %.2f): peak droop %.3f V at cycle %d, mean %.4f V\n",
		network.ResonantHz()/1e6, network.DampingRatio(),
		droop.PeakDroopV, droop.PeakCycle, droop.MeanDroopV)
	best, peak, err := network.WorstBurstSpacing(worst.Cond.VddV, worst.Cond.ClockMHz, 1, 8, 600)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("resonance sweep: worst burst gap %d cycles (droop %.3f V) — the PSN mechanism\n", best, peak)

	// --- 3. Row-redundancy repair ------------------------------------------
	tester := ate.New(dev, 3)
	rep, err := core.RepairAndRetest(tester, []testgen.Test{worst})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n%s", rep.Format())

	// --- 4. Production program handoff -------------------------------------
	march, err := testgen.MarchTest(testgen.MarchCMinus(), 0, 100, 0x55555555, testgen.NominalConditions())
	if err != nil {
		log.Fatal(err)
	}
	lot := make([]*dut.Die, 15)
	for i := range lot {
		if i%3 == 0 {
			lot[i] = dut.NewDie(i, dut.CornerSlow, dut.WithExtraTDQOffsetNS(-3))
		} else {
			lot[i] = dut.NewDie(i, dut.CornerTypical)
		}
	}
	marchProg, err := core.BuildProductionProgram(ate.TDQ, []testgen.Test{march}, 0.02)
	if err != nil {
		log.Fatal(err)
	}
	oracle := worst
	marchRun, err := core.RunProduction(marchProg, oracle, lot, geom, 11)
	if err != nil {
		log.Fatal(err)
	}
	ciProg, err := core.BuildProductionProgram(ate.TDQ, []testgen.Test{march, oracle}, 0.02)
	if err != nil {
		log.Fatal(err)
	}
	ciRun, err := core.RunProduction(ciProg, oracle, lot, geom, 11)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nproduction handoff (the reason characterization exists):")
	fmt.Printf("  March-only program: %s", marchRun.Format())
	fmt.Printf("  with CI screen:     %s", ciRun.Format())
	if marchRun.Escapes > 0 && ciRun.Escapes == 0 {
		fmt.Printf("→ the CI-found screen stops %d escape(s) the March-only program shipped.\n",
			marchRun.Escapes)
	}
}
