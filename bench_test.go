// Package repro_test hosts the benchmark harness that regenerates every
// table and figure of the paper's evaluation (§6). Each benchmark prints
// the rows or series the paper reports; run with
//
//	go test -bench=. -benchmem
//
// Mapping (see DESIGN.md §4 for the full experiment index):
//
//	BenchmarkTable1*          — Table 1 (March vs Random vs NN+GA)
//	BenchmarkFigure1*         — fig. 1 single-trip-point binary search
//	BenchmarkFigure2*         — fig. 2 multiple-trip-point variation
//	BenchmarkFigure3*         — fig. 3 search-until-trip-point savings
//	BenchmarkFigure4*         — fig. 4 learning scheme
//	BenchmarkFigure5*         — fig. 5 optimization scheme
//	BenchmarkFigure6*         — fig. 6 WCR classification
//	BenchmarkFigure7*         — fig. 7 T_DQ measurement
//	BenchmarkFigure8*         — fig. 8 shmoo overlay
//	BenchmarkAblation*        — design-choice ablations from DESIGN.md §5
package repro_test

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/ate"
	"repro/internal/charspec"
	"repro/internal/core"
	"repro/internal/dut"
	"repro/internal/fuzzy"
	"repro/internal/genetic"
	"repro/internal/neural"
	"repro/internal/pdn"
	"repro/internal/search"
	"repro/internal/shmoo"
	"repro/internal/testgen"
	"repro/internal/trippoint"
	"repro/internal/wcr"
)

// newRig builds the standard experimental rig: a typical-corner device on a
// seeded tester with a nominal-condition random generator.
func newRig(tb testing.TB, seed int64) (*ate.ATE, *testgen.RandomGenerator) {
	tb.Helper()
	dev, err := dut.NewDevice(dut.DefaultGeometry(), dut.NewDie(0, dut.CornerTypical))
	if err != nil {
		tb.Fatal(err)
	}
	tester := ate.New(dev, seed)
	cond := testgen.NominalConditions()
	gen := testgen.NewRandomGenerator(seed+1, dev.Geometry().Words(), testgen.DefaultConditionLimits())
	gen.FixedConditions = &cond
	return tester, gen
}

// --- Table 1 ---------------------------------------------------------------

// BenchmarkTable1FullComparison regenerates Table 1: the deterministic
// March baseline, the best of 1000 random tests and the full NN+GA flow,
// reporting WCR and T_DQ per row, on the 1/2/NumCPU worker ladder. Paper:
// 0.619/32.3, 0.701/28.5, 0.904/22.1.
func BenchmarkTable1FullComparison(b *testing.B) {
	for _, workers := range parallelWorkerCounts() {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tab, tester := table1Run(b, workers)
				if i == 0 {
					b.Logf("\n%s", tab.Format())
					for _, r := range tab.Rows {
						b.ReportMetric(r.WCR, "WCR_"+sanitize(r.TestName))
						b.ReportMetric(r.Value, "ns_"+sanitize(r.TestName))
					}
					b.ReportMetric(float64(tester.Stats().Measurements), "measurements")
				}
			}
		})
	}
}

// table1Run runs the Table 1 comparison on a fresh rig with a fleet of the
// given size and returns it with the tester that paid for it.
func table1Run(tb testing.TB, workers int) (*core.Table1, *ate.ATE) {
	tester, _ := newRig(tb, 71)
	cfg := core.DefaultTable1Config(71)
	cfg.Flow.Parallelism = workers
	tab, err := core.RunTable1(cfg, tester)
	if err != nil {
		tb.Fatal(err)
	}
	return tab, tester
}

// TestTable1Measurements bounds the ATE measurements of the Table 1 run
// BenchmarkTable1FullComparison times (the same at any worker count) just
// under 20% past the 39,925 measured.
func TestTable1Measurements(t *testing.T) {
	_, tester := table1Run(t, 0)
	if m := tester.Stats().Measurements; m > 47_909 {
		t.Errorf("%d ATE measurements, want at most 47909", m)
	}
}

// TestTable1AllocatedBytes bounds the bytes one Table 1 run allocates on a
// fleet of one: its 1,000 random tests, 1,500 NN candidates and 60 GA
// generations draw into reused sequence buffers. Allocating one sequence
// per test, the run took about 55 MB; it now takes about 13.
func TestTable1AllocatedBytes(t *testing.T) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	table1Run(t, 1)
	runtime.ReadMemStats(&m1)
	mb := float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20)
	t.Logf("one Table 1 run allocated %.2f MB", mb)
	if mb > 20 {
		t.Errorf("one Table 1 run allocated %.2f MB, want at most 20", mb)
	}
}

func sanitize(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		if r == ' ' {
			r = '_'
		}
		out = append(out, r)
	}
	return string(out)
}

// BenchmarkTable1MarchBaseline times just the deterministic row.
func BenchmarkTable1MarchBaseline(b *testing.B) {
	tester, _ := newRig(b, 72)
	cond := testgen.NominalConditions()
	suite, err := testgen.MarchSuite(testgen.MarchCMinus(), 0, 100, cond)
	if err != nil {
		b.Fatal(err)
	}
	spec := ate.TDQ.Spec()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ranking := wcr.NewRanking(spec)
		for _, t := range suite {
			res, err := (search.SuccessiveApproximation{}).Search(tester.Measurer(ate.TDQ, t), ate.TDQ.SearchOptions())
			if err != nil {
				b.Fatal(err)
			}
			ranking.Add(t.Name, res.TripPoint)
		}
		if worst, ok := ranking.Worst(); ok && i == 0 {
			b.ReportMetric(worst.WCR, "WCR")
			b.ReportMetric(worst.Value, "ns")
		}
	}
}

// BenchmarkTable1RandomBaseline times the 1000-random-test row.
func BenchmarkTable1RandomBaseline(b *testing.B) {
	spec := ate.TDQ.Spec()
	for i := 0; i < b.N; i++ {
		tester, gen := newRig(b, 73)
		runner := trippoint.NewRunner(tester, ate.TDQ)
		ranking := wcr.NewRanking(spec)
		for j := 0; j < 1000; j++ {
			t := gen.Next()
			m, err := runner.Measure(t)
			if err != nil {
				b.Fatal(err)
			}
			if m.Converged {
				ranking.Add(t.Name, m.TripPoint)
			}
		}
		if worst, ok := ranking.Worst(); ok && i == 0 {
			b.ReportMetric(worst.WCR, "WCR")
			b.ReportMetric(worst.Value, "ns")
			b.ReportMetric(float64(tester.Stats().Measurements), "measurements")
		}
	}
}

// --- Figure 1: single trip point search -------------------------------------

// BenchmarkFigure1BinarySearch reproduces fig. 1: a binary search locating
// one trip point of one pre-defined test, reporting the measurement count.
func BenchmarkFigure1BinarySearch(b *testing.B) {
	tester, gen := newRig(b, 74)
	t := gen.Next()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := (search.Binary{}).Search(tester.Measurer(ate.TDQ, t), ate.TDQ.SearchOptions())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(res.Measurements), "measurements")
			b.ReportMetric(res.TripPoint, "trip_ns")
		}
	}
}

// --- Figure 2: multiple trip point variation --------------------------------

// BenchmarkFigure2MultipleTripPoint reproduces fig. 2: N random tests, one
// trip point each; the DSV spread is the worst-case trip point variation.
func BenchmarkFigure2MultipleTripPoint(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tester, gen := newRig(b, 75)
		runner := trippoint.NewRunner(tester, ate.TDQ)
		dsv, err := runner.MeasureAll(gen.Batch(100))
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			s := dsv.Stats()
			b.Logf("fig.2: N=%d trip points: min %.2f (%s) max %.2f (%s) spread %.2f ns",
				s.N, s.Min, s.MinTest, s.Max, s.MaxTest, s.Range)
			b.ReportMetric(s.Range, "variation_ns")
			b.ReportMetric(s.Min, "worst_trip_ns")
		}
	}
}

// --- Figure 3: search until trip point --------------------------------------

// BenchmarkFigure3SearchUntilTripPoint reproduces the fig. 3 formulation:
// the measurement cost of a 100-test multiple-trip-point run with SUTP
// versus a full-range search per test. The paper's claim is the large
// CR(IT)/SF(IT) savings ratio.
func BenchmarkFigure3SearchUntilTripPoint(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tester, gen := newRig(b, 76)
		tests := gen.Batch(100)

		sutpRunner := trippoint.NewRunner(tester, ate.TDQ)
		dsvS, err := sutpRunner.MeasureAll(tests)
		if err != nil {
			b.Fatal(err)
		}
		fullRunner := trippoint.NewRunner(tester, ate.TDQ)
		fullRunner.Searcher = search.SuccessiveApproximation{}
		dsvF, err := fullRunner.MeasureAll(tests)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			sc, fc := dsvS.TotalMeasurements(), dsvF.TotalMeasurements()
			b.Logf("fig.3: SUTP %d vs full-range %d measurements over %d tests (%.1f×)",
				sc, fc, len(tests), float64(fc)/float64(sc))
			b.ReportMetric(float64(sc), "sutp_measurements")
			b.ReportMetric(float64(fc), "fullrange_measurements")
			b.ReportMetric(float64(fc)/float64(sc), "speedup")
		}
	}
}

// --- Figure 4: learning scheme ----------------------------------------------

// BenchmarkFigure4LearningScheme runs the fig. 4 loop: random tests →
// multiple trip points → fuzzy coding → NN ensemble with learnability and
// generalization checks → weight file.
func BenchmarkFigure4LearningScheme(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tester, _ := newRig(b, 77)
		cfg := core.DefaultConfig(77)
		nominal := testgen.NominalConditions()
		cfg.FixedConditions = &nominal
		char, err := core.NewCharacterizer(cfg, tester)
		if err != nil {
			b.Fatal(err)
		}
		res, err := char.Learn()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("fig.4: %d measured tests, ensemble of %d, ensemble MSE %.5f",
				len(res.DSV.Values), res.Ensemble.Size(), res.EnsembleValErr)
			b.ReportMetric(res.EnsembleValErr, "ensemble_mse")
			b.ReportMetric(float64(tester.Stats().Measurements), "measurements")
		}
	}
}

// --- Figure 5: optimization scheme ------------------------------------------

// BenchmarkFigure5OptimizationScheme runs the fig. 5 loop from a trained
// ensemble: NN seed proposal → dual-chromosome GA with ATE fitness →
// worst-case database.
func BenchmarkFigure5OptimizationScheme(b *testing.B) {
	tester, _ := newRig(b, 78)
	cfg := core.DefaultConfig(78)
	nominal := testgen.NominalConditions()
	cfg.FixedConditions = &nominal
	char, err := core.NewCharacterizer(cfg, tester)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := char.Learn(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opt, err := char.Optimize()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			best, _ := opt.Database.Worst()
			b.Logf("fig.5: GA best WCR %.3f (%s, %.1f ns) in %d evaluations, %d restarts",
				best.WCR, best.Class, best.Value, opt.GA.Evaluations, opt.GA.Restarts)
			b.ReportMetric(best.WCR, "best_WCR")
			b.ReportMetric(float64(opt.Measurements), "measurements")
		}
	}
}

// --- Figure 6: WCR classification -------------------------------------------

// BenchmarkFigure6WCRClassification reproduces the fig. 6 banding over a
// mixed population: production-style random tests (which all land in the
// pass band — the paper's point), the coordinated worst-case pattern at
// nominal supply (weakness band) and the same pattern at reduced supply
// and elevated temperature (fail band).
func BenchmarkFigure6WCRClassification(b *testing.B) {
	tester, gen := newRig(b, 79)
	spec := ate.TDQ.Spec()
	runner := trippoint.NewRunner(tester, ate.TDQ)

	tests := gen.Batch(200)
	words := dut.DefaultGeometry().Words()
	seq := make(testgen.Sequence, 0, 800)
	for j := 0; j < 200; j++ {
		base := uint32(0)
		if j%2 == 1 {
			base = words - 2
		}
		seq = append(seq,
			testgen.Vector{Op: testgen.OpWrite, Addr: base, Data: 0},
			testgen.Vector{Op: testgen.OpWrite, Addr: base + 1, Data: 0xFFFFFFFF},
		)
	}
	tests = append(tests,
		testgen.Test{Name: "WORST@nominal", Seq: seq, Cond: testgen.NominalConditions()},
		testgen.Test{Name: "WORST@corner", Seq: seq, Cond: testgen.Conditions{VddV: 1.62, TempC: 125, ClockMHz: 100}},
	)

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ranking := wcr.NewRanking(spec)
		for _, t := range tests {
			m, err := runner.Measure(t)
			if err != nil {
				b.Fatal(err)
			}
			ranking.Add(t.Name, m.TripPoint)
		}
		if i == 0 {
			counts := ranking.CountByClass()
			b.Logf("fig.6: pass %d, weakness %d, fail %d over %d tests",
				counts[wcr.Pass], counts[wcr.Weakness], counts[wcr.Fail], len(tests))
			b.ReportMetric(float64(counts[wcr.Pass]), "pass")
			b.ReportMetric(float64(counts[wcr.Weakness]), "weakness")
			b.ReportMetric(float64(counts[wcr.Fail]), "fail")
		}
	}
}

// --- Figure 7: T_DQ measurement ---------------------------------------------

// BenchmarkFigure7TDQMeasurement exercises the fig. 7 timing definition:
// one data-output-valid-window evaluation per iteration (profile + surface).
func BenchmarkFigure7TDQMeasurement(b *testing.B) {
	dev, err := dut.NewDevice(dut.DefaultGeometry(), dut.NewDie(0, dut.CornerTypical))
	if err != nil {
		b.Fatal(err)
	}
	cond := testgen.NominalConditions()
	gen := testgen.NewRandomGenerator(80, dev.Geometry().Words(), testgen.DefaultConditionLimits())
	gen.FixedConditions = &cond
	t := gen.Next()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := dev.Profile(t)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(ate.TDQ.TrueValue(p), "window_ns")
		}
	}
}

// --- Figure 8: shmoo plot ---------------------------------------------------

// BenchmarkFigure8ShmooPlot regenerates the fig. 8 overlay: many tests in
// one Vdd-vs-T_DQ shmoo, reporting the worst-case trip point variation.
// The paper overlays 1000 tests; the benchmark overlays 100 per iteration
// to keep iterations meaningful (scale with -benchtime).
func BenchmarkFigure8ShmooPlot(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tester, gen := newRig(b, 81)
		plot, err := shmoo.NewPlot(shmoo.DefaultTDQAxis(), shmoo.DefaultVddAxis())
		if err != nil {
			b.Fatal(err)
		}
		for j := 0; j < 100; j++ {
			if err := plot.AddTest(tester, gen.Next()); err != nil {
				b.Fatal(err)
			}
		}
		if i == 0 {
			b.Logf("fig.8:\n%s", plot.Render())
			b.ReportMetric(plot.WorstCaseVariation(), "variation_ns")
		}
	}
}

// --- Ablations (DESIGN.md §5) -----------------------------------------------

// BenchmarkAblationSUTPvsBinaryPerTest quantifies the SUTP design choice in
// isolation on a 50-test run.
func BenchmarkAblationSUTPvsBinaryPerTest(b *testing.B) {
	for _, mode := range []struct {
		name string
		mk   func() search.Searcher
	}{
		{"SUTP", func() search.Searcher { return &search.SUTP{SF: 0.4} }},
		{"SUTPRefined", func() search.Searcher { return &search.SUTP{SF: 0.4, Refine: true} }},
		{"Binary", func() search.Searcher { return search.Binary{} }},
		{"Linear", func() search.Searcher { return search.Linear{Step: 0.4} }},
	} {
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tester, gen := newRig(b, 82)
				runner := trippoint.NewRunner(tester, ate.TDQ)
				runner.Searcher = mode.mk()
				dsv, err := runner.MeasureAll(gen.Batch(50))
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.ReportMetric(float64(dsv.TotalMeasurements())/50, "measurements/test")
				}
			}
		})
	}
}

// BenchmarkAblationEnsembleVsSingle quantifies the voting machine: ensemble
// error versus a single network on the same learning data.
func BenchmarkAblationEnsembleVsSingle(b *testing.B) {
	tester, _ := newRig(b, 83)
	cfg := core.DefaultConfig(83)
	cfg.LearnTests = 200
	nominal := testgen.NominalConditions()
	cfg.FixedConditions = &nominal
	char, err := core.NewCharacterizer(cfg, tester)
	if err != nil {
		b.Fatal(err)
	}
	learned, err := char.Learn()
	if err != nil {
		b.Fatal(err)
	}
	data := learned.Dataset

	for _, size := range []int{1, 3, 5} {
		b.Run(fmt.Sprintf("members=%d", size), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sizes := []int{testgen.NumFeatures, 20, 10, learned.Ensemble.Outputs()}
				ens, _, err := neural.NewEnsemble(nil, 83, size, sizes, data, neural.DefaultTrainConfig(83))
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					mse, err := ens.EvaluateWith(ens.NewScratch(), data)
					if err != nil {
						b.Fatal(err)
					}
					b.ReportMetric(mse, "mse")
				}
			}
		})
	}
}

// BenchmarkAblationFuzzyVsNumericCoding compares the two trip-point codings
// by the measured quality of the seeds each one proposes.
func BenchmarkAblationFuzzyVsNumericCoding(b *testing.B) {
	for _, coding := range []fuzzy.Coding{fuzzy.CodingFuzzy, fuzzy.CodingNumeric} {
		b.Run(coding.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tester, _ := newRig(b, 84)
				cfg := core.DefaultConfig(84)
				cfg.Coding = coding
				nominal := testgen.NominalConditions()
				cfg.FixedConditions = &nominal
				char, err := core.NewCharacterizer(cfg, tester)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := char.Learn(); err != nil {
					b.Fatal(err)
				}
				cands, err := char.ProposeSeeds()
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					spec := cfg.Parameter.Spec()
					sum := 0.0
					for _, c := range cands {
						p, err := tester.Profile(c.Test)
						if err != nil {
							b.Fatal(err)
						}
						sum += spec.WCR(cfg.Parameter.TrueValue(p))
					}
					b.ReportMetric(sum/float64(len(cands)), "seed_mean_WCR")
				}
			}
		})
	}
}

// BenchmarkAblationNNSeededVsRandomGA compares GA convergence with NN seeds
// against a cold random start (fig. 5 step 1's value).
func BenchmarkAblationNNSeededVsRandomGA(b *testing.B) {
	tester, _ := newRig(b, 85)
	cfg := core.DefaultConfig(85)
	cfg.GA.MaxGenerations = 25
	nominal := testgen.NominalConditions()
	cfg.FixedConditions = &nominal
	char, err := core.NewCharacterizer(cfg, tester)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := char.Learn(); err != nil {
		b.Fatal(err)
	}

	b.Run("nn-seeded", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			opt, err := char.Optimize()
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				b.ReportMetric(opt.GA.Best.Fitness, "best_WCR")
			}
		}
	})
	b.Run("random-start", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			opt, err := char.OptimizeFrom(nil)
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				b.ReportMetric(opt.GA.Best.Fitness, "best_WCR")
			}
		}
	})
}

// BenchmarkAblationDualVsFrozenConditions compares evolving test conditions
// as a second chromosome against freezing them at nominal, on the Vddmin
// parameter where conditions matter (temperature shifts Vddmin).
func BenchmarkAblationDualVsFrozenConditions(b *testing.B) {
	mk := func(fixed bool, seed int64) float64 {
		tester, _ := newRig(b, seed)
		cfg := core.DefaultConfig(seed)
		cfg.Parameter = ate.VddMin
		cfg.LearnTests = 150
		cfg.GA.MaxGenerations = 25
		if fixed {
			nominal := testgen.NominalConditions()
			cfg.FixedConditions = &nominal
		}
		char, err := core.NewCharacterizer(cfg, tester)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := char.Learn(); err != nil {
			b.Fatal(err)
		}
		opt, err := char.Optimize()
		if err != nil {
			b.Fatal(err)
		}
		return opt.GA.Best.Fitness
	}
	b.Run("dual-chromosome", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			f := mk(false, 86)
			if i == 0 {
				b.ReportMetric(f, "best_WCR")
			}
		}
	})
	b.Run("frozen-conditions", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			f := mk(true, 86)
			if i == 0 {
				b.ReportMetric(f, "best_WCR")
			}
		}
	})
}

// --- Micro-benchmarks of the substrates --------------------------------------

// perVectorBatch is the fixed 200-test batch the per-vector micro-benchmarks
// run over, with its total vector count.
func perVectorBatch() ([]testgen.Test, int) {
	tests := testgen.NewRandomGenerator(90, dut.DefaultGeometry().Words(), testgen.DefaultConditionLimits()).Batch(200)
	vectors := 0
	for _, t := range tests {
		vectors += len(t.Seq)
	}
	return tests, vectors
}

// reportPerVector reports the mean cost of one vector of the batch.
func reportPerVector(b *testing.B, vectors int) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(vectors), "ns/vector")
}

var fingerprintSink uint64

// BenchmarkDeviceProfile measures sequence execution on the DUT: one op
// profiles every test of the batch.
func BenchmarkDeviceProfile(b *testing.B) {
	dev, err := dut.NewDevice(dut.DefaultGeometry(), dut.NewDie(0, dut.CornerTypical))
	if err != nil {
		b.Fatal(err)
	}
	tests, vectors := perVectorBatch()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, t := range tests {
			if _, err := dev.Profile(t); err != nil {
				b.Fatal(err)
			}
		}
	}
	reportPerVector(b, vectors)
}

// BenchmarkShmooTaskStrobes measures a fig. 8 fleet task's tester work on
// a loaded profile: one op reseeds the insertion, as every task does, and
// strobes the 17×37 grid a row at a time.
func BenchmarkShmooTaskStrobes(b *testing.B) {
	tester, gen := newRig(b, 81)
	p, err := tester.Profile(gen.Next())
	if err != nil {
		b.Fatal(err)
	}
	x, y := shmoo.DefaultTDQAxis(), shmoo.DefaultVddAxis()
	strobes := make([]float64, x.Steps)
	for i := range strobes {
		strobes[i] = x.Value(i)
	}
	pass := make([]bool, len(strobes))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tester.Reseed(8100 + int64(i))
		tester.Preload(p)
		for yi := range y.Steps {
			if err := tester.MeasureShmooRow(p.Test, y.Value(yi), strobes, pass); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(x.Steps*y.Steps), "ns/strobe")
}

// BenchmarkMeasurePass measures one pass/fail strobe of each parameter, the
// unit an SUTP search spends: a Measurer strobe of a loaded pattern at the
// test's own operating point, mid-range, with the tester's default noise.
func BenchmarkMeasurePass(b *testing.B) {
	for _, c := range []struct {
		name  string
		param ate.Parameter
	}{{"tdq", ate.TDQ}, {"fmax", ate.Fmax}, {"vddmin", ate.VddMin}} {
		b.Run("param="+c.name, func(b *testing.B) {
			tester, gen := newRig(b, 82)
			m := tester.Measurer(c.param, gen.Next())
			opts := c.param.SearchOptions()
			x := (opts.Lo + opts.Hi) / 2
			if _, err := m.Passes(x); err != nil { // loads the pattern
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := m.Passes(x); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/strobe")
		})
	}
}

// BenchmarkFeatureExtraction measures the NN input encoding of the batch.
func BenchmarkFeatureExtraction(b *testing.B) {
	tests, vectors := perVectorBatch()
	limits := testgen.DefaultConditionLimits()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, t := range tests {
			testgen.ExtractFeatures(t, limits)
		}
	}
	reportPerVector(b, vectors)
}

// BenchmarkSequenceFingerprint measures the memo-cache key of the batch.
func BenchmarkSequenceFingerprint(b *testing.B) {
	tests, vectors := perVectorBatch()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, t := range tests {
			fingerprintSink ^= t.Fingerprint()
		}
	}
	reportPerVector(b, vectors)
}

// BenchmarkRandomBatch measures the random draw: one op regenerates the
// batch from its seed.
func BenchmarkRandomBatch(b *testing.B) {
	_, vectors := perVectorBatch()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		testgen.NewRandomGenerator(90, dut.DefaultGeometry().Words(), testgen.DefaultConditionLimits()).Batch(200)
	}
	reportPerVector(b, vectors)
}

// BenchmarkEnsembleVote measures one voting-machine prediction through a
// caller-owned scratch arena.
func BenchmarkEnsembleVote(b *testing.B) {
	data := make(neural.Dataset, 50)
	gen := testgen.NewRandomGenerator(92, 4096, testgen.DefaultConditionLimits())
	limits := testgen.DefaultConditionLimits()
	for i := range data {
		data[i] = neural.Sample{
			Input:  testgen.ExtractFeatures(gen.Next(), limits),
			Target: []float64{0.5},
		}
	}
	cfg := neural.DefaultTrainConfig(92)
	cfg.Epochs = 10
	ens, _, err := neural.NewEnsemble(nil, 92, 3, []int{testgen.NumFeatures, 20, 10, 1}, data, cfg)
	if err != nil {
		b.Fatal(err)
	}
	in := data[0].Input
	s := ens.NewScratch()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := ens.VoteInto(s, in); err != nil {
			b.Fatal(err)
		}
	}
}

// toggleFitness is a synthetic GA evaluator: a test's fitness is its mean
// data-bus toggling.
type toggleFitness struct{ limits testgen.ConditionLimits }

func (e toggleFitness) FitnessBatch(tests []testgen.Test) ([]float64, error) {
	out := make([]float64, len(tests))
	for i, t := range tests {
		out[i] = testgen.ExtractFeatures(t, e.limits)[testgen.FeatToggleMean]
	}
	return out, nil
}

// BenchmarkGAGeneration measures one GA generation on a synthetic fitness.
func BenchmarkGAGeneration(b *testing.B) {
	gen := testgen.NewRandomGenerator(93, 4096, testgen.DefaultConditionLimits())
	ops := genetic.NewOperators(93, gen)
	eval := toggleFitness{testgen.DefaultConditionLimits()}
	cfg := genetic.DefaultConfig()
	cfg.MaxGenerations = 1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opt, err := genetic.NewOptimizer(cfg, ops, eval)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := opt.Run(nil); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Extended-system benchmarks ----------------------------------------------

// BenchmarkExtensionSpecExtraction measures the §1 environmental sweep: a
// worst-case test plus a March baseline over the full Vdd × temperature
// grid, reporting the extracted worst corner value.
func BenchmarkExtensionSpecExtraction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tester, gen := newRig(b, 95)
		cond := testgen.NominalConditions()
		march, err := testgen.MarchTest(testgen.MarchCMinus(), 0, 50, 0x55555555, cond)
		if err != nil {
			b.Fatal(err)
		}
		tests := append(gen.Batch(3), march)
		rep, err := charspec.Extract(tester, ate.TDQ, tests, charspec.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("spec extraction: worst corner %s, worst %.2f ns, recommended %.2f ns, meets spec %v",
				rep.WorstCorner, rep.WorstValue, rep.RecommendedLimit, rep.MeetsSpec)
			b.ReportMetric(rep.WorstValue, "worst_ns")
			b.ReportMetric(float64(rep.Measurements), "measurements")
		}
	}
}

// BenchmarkExtensionLotScreen measures the §1 device-sample screen: the
// worst-case pattern over a 20-die lot.
func BenchmarkExtensionLotScreen(b *testing.B) {
	cond := testgen.NominalConditions()
	words := dut.DefaultGeometry().Words()
	seq := make(testgen.Sequence, 0, 800)
	for i := 0; i < 200; i++ {
		base := uint32(0)
		if i%2 == 1 {
			base = words - 2
		}
		seq = append(seq,
			testgen.Vector{Op: testgen.OpWrite, Addr: base, Data: 0},
			testgen.Vector{Op: testgen.OpWrite, Addr: base + 1, Data: 0xFFFFFFFF},
		)
	}
	tests := []testgen.Test{{Name: "WORST", Seq: seq, Cond: cond}}
	dies := dut.NewDieLot(96, 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := core.ScreenLotStream(ate.TDQ, tests, dut.LotSlice(dies), dut.DefaultGeometry(), 96, core.LotOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("lot screen: %s", rep.Format())
			b.ReportMetric(rep.SpreadLot, "lot_spread_ns")
			b.ReportMetric(float64(rep.ClassCounts[wcr.Weakness]+rep.ClassCounts[wcr.Fail]), "flagged_dies")
		}
	}
}

// BenchmarkExtensionThermalDrift measures drift detection on a self-heating
// tester (the §1/§4 drift scenario).
func BenchmarkExtensionThermalDrift(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tester, gen := newRig(b, 97)
		tester.Heating = ate.DefaultThermal()
		runner := trippoint.NewRunner(tester, ate.TDQ)
		runner.Searcher = &search.SUTP{Refine: true}
		tt := gen.Next()
		for j := 0; j < 40; j++ {
			if _, err := runner.Measure(tt); err != nil {
				b.Fatal(err)
			}
		}
		drift := runner.DSV().DetectDrift()
		if i == 0 {
			b.Logf("thermal drift: slope %+.4f ns/test, total %.3f ns, significant %v",
				drift.Slope, drift.TotalDrift, drift.Significant)
			b.ReportMetric(drift.TotalDrift, "total_drift_ns")
		}
	}
}

// BenchmarkExtensionMinimizer measures worst-case test minimization (the
// §2 "localize the design weakness efficiently" step).
func BenchmarkExtensionMinimizer(b *testing.B) {
	tester, _ := newRig(b, 98)
	cfg := core.DefaultConfig(98)
	nominal := testgen.NominalConditions()
	cfg.FixedConditions = &nominal
	char, err := core.NewCharacterizer(cfg, tester)
	if err != nil {
		b.Fatal(err)
	}
	words := dut.DefaultGeometry().Words()
	seq := make(testgen.Sequence, 0, 1000)
	for i := 0; i < 200; i++ {
		seq = append(seq, testgen.Vector{Op: testgen.OpRead, Addr: uint32(i % 8)})
	}
	for i := 0; i < 150; i++ {
		base := uint32(0)
		if i%2 == 1 {
			base = words - 2
		}
		seq = append(seq,
			testgen.Vector{Op: testgen.OpWrite, Addr: base, Data: 0},
			testgen.Vector{Op: testgen.OpWrite, Addr: base + 1, Data: 0xFFFFFFFF},
		)
	}
	tt := testgen.Test{Name: "PADDED", Seq: seq, Cond: nominal}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := char.Minimize(tt, core.DefaultMinimizeConfig())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("minimizer: %d → %d vectors (%.1f×), WCR %.3f → %.3f, %d probes",
				len(res.Original.Seq), len(res.Minimized.Seq), res.ReductionFactor(),
				res.OriginalWCR, res.MinimizedWCR, res.Probes)
			b.ReportMetric(res.ReductionFactor(), "reduction")
		}
	}
}

// BenchmarkAblationBackpropVsGATraining compares the flow's default
// backpropagation trainer with the GA weight trainer of reference [13] on
// the same severity dataset.
func BenchmarkAblationBackpropVsGATraining(b *testing.B) {
	tester, _ := newRig(b, 99)
	cfg := core.DefaultConfig(99)
	cfg.LearnTests = 150
	nominal := testgen.NominalConditions()
	cfg.FixedConditions = &nominal
	char, err := core.NewCharacterizer(cfg, tester)
	if err != nil {
		b.Fatal(err)
	}
	learned, err := char.Learn()
	if err != nil {
		b.Fatal(err)
	}
	data := learned.Dataset
	train, val := data.Split(99, 0.8)
	sizes := []int{testgen.NumFeatures, 20, 10, learned.Ensemble.Outputs()}

	b.Run("backprop", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			n, err := neural.New(99, sizes...)
			if err != nil {
				b.Fatal(err)
			}
			rep, err := n.Train(train, val, neural.DefaultTrainConfig(99))
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				b.ReportMetric(rep.ValErr, "val_mse")
			}
		}
	})
	b.Run("ga-weights", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			n, err := neural.New(99, sizes...)
			if err != nil {
				b.Fatal(err)
			}
			gaCfg := neural.DefaultGATrainConfig(99)
			gaCfg.Generations = 120
			rep, err := n.TrainGA(train, val, gaCfg)
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				b.ReportMetric(rep.ValErr, "val_mse")
			}
		}
	})
}

// BenchmarkExtensionPDNAnalysis measures the power-delivery-network droop
// simulation over a worst-case test trace (the companion-work PSN physics).
func BenchmarkExtensionPDNAnalysis(b *testing.B) {
	dev, err := dut.NewDevice(dut.DefaultGeometry(), dut.NewDie(0, dut.CornerTypical))
	if err != nil {
		b.Fatal(err)
	}
	cond := testgen.NominalConditions()
	words := dev.Geometry().Words()
	seq := make(testgen.Sequence, 0, 800)
	for i := 0; i < 200; i++ {
		base := uint32(0)
		if i%2 == 1 {
			base = words - 2
		}
		seq = append(seq,
			testgen.Vector{Op: testgen.OpWrite, Addr: base, Data: 0},
			testgen.Vector{Op: testgen.OpWrite, Addr: base + 1, Data: 0xFFFFFFFF},
		)
	}
	records, _, err := dev.Trace(testgen.Test{Name: "worst", Seq: seq, Cond: cond})
	if err != nil {
		b.Fatal(err)
	}
	network := pdn.Default()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := network.Simulate(records, cond.VddV, cond.ClockMHz)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("PDN: peak droop %.3f V at cycle %d (f0 %.1f MHz, ζ %.2f)",
				res.PeakDroopV, res.PeakCycle, network.ResonantHz()/1e6, network.DampingRatio())
			b.ReportMetric(res.PeakDroopV, "peak_droop_V")
		}
	}
}

// BenchmarkExtensionProductionEscapes measures the manufacturing handoff:
// a 30-die production run under a March-only program versus one including
// the CI-found worst-case screen, reporting the escape counts.
func BenchmarkExtensionProductionEscapes(b *testing.B) {
	geom := dut.DefaultGeometry()
	words := geom.Words()
	seq := make(testgen.Sequence, 0, 800)
	for i := 0; i < 200; i++ {
		base := uint32(0)
		if i%2 == 1 {
			base = words - 2
		}
		seq = append(seq,
			testgen.Vector{Op: testgen.OpWrite, Addr: base, Data: 0},
			testgen.Vector{Op: testgen.OpWrite, Addr: base + 1, Data: 0xFFFFFFFF},
		)
	}
	oracle := testgen.Test{Name: "WORST", Seq: seq, Cond: testgen.NominalConditions()}
	march, err := testgen.MarchTest(testgen.MarchCMinus(), 0, 100, 0x55555555, testgen.NominalConditions())
	if err != nil {
		b.Fatal(err)
	}
	lot := make([]*dut.Die, 30)
	for i := range lot {
		if i%3 == 0 {
			lot[i] = dut.NewDie(i, dut.CornerSlow, dut.WithExtraTDQOffsetNS(-3))
		} else {
			lot[i] = dut.NewDie(i, dut.CornerTypical)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		marchProg, err := core.BuildProductionProgram(ate.TDQ, []testgen.Test{march}, 0.02)
		if err != nil {
			b.Fatal(err)
		}
		marchRun, err := core.RunProduction(marchProg, oracle, lot, geom, 11)
		if err != nil {
			b.Fatal(err)
		}
		ciProg, err := core.BuildProductionProgram(ate.TDQ, []testgen.Test{march, oracle}, 0.02)
		if err != nil {
			b.Fatal(err)
		}
		ciRun, err := core.RunProduction(ciProg, oracle, lot, geom, 11)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("production: March-only %d escapes (yield %.0f%%), with CI screen %d escapes (yield %.0f%%)",
				marchRun.Escapes, marchRun.Yield*100, ciRun.Escapes, ciRun.Yield*100)
			b.ReportMetric(float64(marchRun.Escapes), "march_escapes")
			b.ReportMetric(float64(ciRun.Escapes), "ci_escapes")
		}
	}
}

// BenchmarkExtensionRepairSession measures the row-redundancy repair loop
// on a weak-cell die.
func BenchmarkExtensionRepairSession(b *testing.B) {
	words := dut.DefaultGeometry().Words()
	seq := make(testgen.Sequence, 0, 700)
	for i := 0; i < 150; i++ {
		base := uint32(4)
		if i%2 == 1 {
			base = words - 2
		}
		seq = append(seq,
			testgen.Vector{Op: testgen.OpWrite, Addr: base, Data: 0},
			testgen.Vector{Op: testgen.OpWrite, Addr: base + 1, Data: 0xFFFFFFFF},
		)
	}
	seq = append(seq,
		testgen.Vector{Op: testgen.OpWrite, Addr: 33, Data: 1},
		testgen.Vector{Op: testgen.OpRead, Addr: 33},
	)
	tt := testgen.Test{Name: "HOT", Seq: seq, Cond: testgen.NominalConditions()}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		die := dut.NewDie(0, dut.CornerTypical, dut.WithWeakCell(33, 1.85))
		dev, err := dut.NewDevice(dut.DefaultGeometry(), die)
		if err != nil {
			b.Fatal(err)
		}
		tester := ate.New(dev, 3)
		rep, err := core.RepairAndRetest(tester, []testgen.Test{tt})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(rep.TotalRepairs), "rows_repaired")
		}
	}
}
