// Command tripsearch compares the trip-point search algorithms on the
// simulated device: the classic ATE baselines (linear, binary, successive
// approximation — fig. 1) against the paper's Search Until Trip Point
// method (fig. 3), reporting trip points and measurement costs over a run
// of random tests.
//
// Usage:
//
//	tripsearch -tests 50
//	tripsearch -param vddmin -tests 20
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"repro/internal/ate"
	"repro/internal/cli"
	"repro/internal/dut"
	"repro/internal/parallel"
	"repro/internal/search"
	"repro/internal/telemetry"
	"repro/internal/testgen"
	"repro/internal/trippoint"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("tripsearch: ")

	common := cli.Register(nil)
	var (
		tests    = flag.Int("tests", 50, "number of random tests per algorithm")
		param    ate.Parameter
		directed = flag.Bool("directed", false, "also measure the directed baseline suite (March + stress patterns)")
	)
	cli.ParsedVar(flag.CommandLine, &param, "param", "tdq", "parameter: tdq, fmax, vddmin", cli.ParseParam)
	flag.Parse()
	compare := func(tel *telemetry.Telemetry) (ate.Stats, error) {
		seed, par := &common.Seed, &common.Parallel

		dev, err := dut.NewDevice(dut.DefaultGeometry(), dut.NewDie(0, dut.CornerTypical))
		if err != nil {
			return ate.Stats{}, err
		}
		tester := ate.New(dev, *seed)
		cond := testgen.NominalConditions()
		gen := testgen.NewRandomGenerator(*seed+1, dev.Geometry().Words(), testgen.DefaultConditionLimits())
		gen.FixedConditions = &cond
		batch := gen.Batch(*tests)

		algos := []struct {
			name string
			mk   func() search.Searcher
		}{
			{"linear", func() search.Searcher { return search.Linear{Step: param.Resolution() * 4} }},
			{"binary", func() search.Searcher { return search.Binary{} }},
			{"successive-approx", func() search.Searcher { return search.SuccessiveApproximation{} }},
			{"SUTP (paper)", func() search.Searcher { return &search.SUTP{SF: 4 * param.Resolution()} }},
			{"SUTP refined", func() search.Searcher { return &search.SUTP{SF: 4 * param.Resolution(), Refine: true} }},
		}

		opt := param.SearchOptions()
		fmt.Printf("Trip-point search comparison: %s over [%g, %g] %s, resolution %g, %d tests\n\n",
			param, opt.Lo, opt.Hi, param.Unit(), opt.Resolution, *tests)
		fmt.Printf("%-18s %12s %15s %12s %12s\n", "algorithm", "total meas", "meas/test", "mean trip", "spread")

		// Each algorithm measures the same batch on its own forked insertion —
		// the rows are independent, so they fan across workers and print in
		// declaration order regardless of scheduling.
		ph := tel.StartPhase("search-compare")
		rows := make([]*trippoint.DSV, len(algos))
		fleet := parallel.NewFleet(parallel.Bound(*par, len(algos)))
		defer fleet.Close()
		err = parallel.RunOn(fleet, len(algos), func(int) (*ate.ATE, error) {
			return tester.Fork(*seed)
		}, func(wk *ate.ATE, i int) error {
			wk.Reseed(*seed + int64(i))
			runner := trippoint.NewRunner(wk, param)
			runner.Searcher = algos[i].mk()
			dsv, err := runner.MeasureAll(batch)
			if err != nil {
				return err
			}
			rows[i] = dsv
			return nil
		})
		if err != nil {
			return ate.Stats{}, err
		}
		// Replay each row in declaration order so searches land in the trace at
		// a deterministic point regardless of how the workers were scheduled.
		fullBudget := opt.FullRangeBudget()
		var compareCost telemetry.Cost
		for i, dsv := range rows {
			span := ph.Span().Child("algorithm", telemetry.S("name", algos[i].name))
			for _, m := range dsv.Values {
				tel.RecordSearch(m.Measurements, fullBudget, m.Converged)
			}
			tel.RecordItem("algorithm", i+1, len(algos))
			span.End(telemetry.I("measurements", int64(dsv.TotalMeasurements())))
			compareCost.Measurements += int64(dsv.TotalMeasurements())
			s := dsv.Stats()
			fmt.Printf("%-18s %12d %15.1f %9.3f %s %9.3f %s\n",
				algos[i].name, dsv.TotalMeasurements(),
				float64(dsv.TotalMeasurements())/float64(*tests),
				s.Mean, param.Unit(), s.Range, param.Unit())
		}
		ph.End(compareCost)

		fmt.Printf("\nSUTP cost structure (fig. 3): first search establishes RTP over the full\n")
		fmt.Printf("characterization range CR; every later search steps outward from RTP in\n")
		fmt.Printf("SF(IT) = SF·IT increments, so cost per test collapses once RTP exists.\n")
		ph = tel.StartPhase("sutp-cost")
		statsBefore := tester.Stats()
		runner := trippoint.NewRunner(tester, param)
		dsv, err := runner.MeasureAll(batch)
		if err != nil {
			return ate.Stats{}, err
		}
		for _, m := range dsv.Values {
			tel.RecordSearch(m.Measurements, fullBudget, m.Converged)
		}
		ph.End(tester.Stats().CostSince(statsBefore))
		s := dsv.Stats()
		fmt.Printf("first search: %d measurements, follow-up mean: %.1f measurements\n",
			s.FirstSearchCost, s.FollowupSearchCost)

		if *directed {
			fmt.Printf("\nDirected baseline landscape (%s per pattern):\n", param)
			geom := dev.Geometry()
			suite, err := testgen.DirectedSuite(geom.Words(), uint32(geom.Cols), cond)
			if err != nil {
				return ate.Stats{}, err
			}
			march, err := testgen.MarchTest(testgen.MarchCMinus(), 0, 100, 0x55555555, cond)
			if err != nil {
				return ate.Stats{}, err
			}
			suite = append([]testgen.Test{march}, suite...)
			dr := trippoint.NewRunner(tester, param)
			dr.Searcher = &search.SUTP{Refine: true}
			for _, t := range suite {
				m, err := dr.Measure(t)
				if err != nil {
					return ate.Stats{}, err
				}
				fmt.Printf("  %-18s %8.3f %s (%d measurements)\n", t.Name, m.TripPoint, param.Unit(), m.Measurements)
			}
			ds := dr.DSV().Stats()
			worstVal, worstName := ds.Min, ds.MinTest
			// Equal extremes name the same test, the first converged one.
			if param.Spec().Worse(ds.Max, ds.Min) {
				worstVal, worstName = ds.Max, ds.MaxTest
			}
			fmt.Printf("directed worst: %.3f %s by %s — compare the NN+GA result from cmd/characterize\n",
				worstVal, param.Unit(), worstName)
		}

		// The comparison rows ran on forked insertions; fold their cost into
		// the serial tester's own counters for the report total.
		total := tester.Stats()
		total.Measurements += compareCost.Measurements
		return total, nil
	}
	common.Main(func() error { return common.Run("tripsearch", os.Stdout, compare) })
}
