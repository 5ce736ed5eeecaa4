package trippoint

import (
	"math"
	"testing"

	"repro/internal/ate"
	"repro/internal/dut"
	"repro/internal/search"
	"repro/internal/testgen"
)

func newRig(t *testing.T) (*ate.ATE, *testgen.RandomGenerator) {
	t.Helper()
	dev, err := dut.NewDevice(dut.DefaultGeometry(), dut.NewDie(0, dut.CornerTypical))
	if err != nil {
		t.Fatal(err)
	}
	tester := ate.New(dev, 3)
	cond := testgen.NominalConditions()
	gen := testgen.NewRandomGenerator(41, dev.Geometry().Words(), testgen.DefaultConditionLimits())
	gen.FixedConditions = &cond
	return tester, gen
}

func TestRunnerCollectsDSV(t *testing.T) {
	tester, gen := newRig(t)
	r := NewRunner(tester, ate.TDQ)
	dsv, err := r.MeasureAll(gen.Batch(20))
	if err != nil {
		t.Fatal(err)
	}
	if len(dsv.Values) != 20 {
		t.Fatalf("DSV has %d entries, want 20", len(dsv.Values))
	}
	if dsv.Parameter != ate.TDQ {
		t.Error("DSV parameter not recorded")
	}
	for i, m := range dsv.Values {
		if !m.Converged {
			t.Errorf("measurement %d (%s) did not converge", i, m.TestName)
		}
		if m.TripPoint < 15 || m.TripPoint > 40 {
			t.Errorf("trip point %g implausible", m.TripPoint)
		}
	}
}

func TestDSVStats(t *testing.T) {
	d := &DSV{}
	for _, v := range []float64{30, 31, 29, 32, 28} {
		d.Add(Measurement{TestName: "t", TripPoint: v, Measurements: 10, Converged: true})
	}
	s := d.Stats()
	if s.N != 5 || s.ConvergedCount != 5 {
		t.Fatalf("counts: %+v", s)
	}
	if s.Min != 28 || s.Max != 32 {
		t.Errorf("min/max = %g/%g", s.Min, s.Max)
	}
	if math.Abs(s.Mean-30) > 1e-9 {
		t.Errorf("mean = %g", s.Mean)
	}
	if s.Median != 30 {
		t.Errorf("median = %g", s.Median)
	}
	if s.Range != 4 {
		t.Errorf("range = %g", s.Range)
	}
	wantStd := math.Sqrt(2) // population stddev of {28..32}
	if math.Abs(s.StdDev-wantStd) > 1e-9 {
		t.Errorf("stddev = %g, want %g", s.StdDev, wantStd)
	}
}

func TestDSVStatsEvenMedian(t *testing.T) {
	d := &DSV{}
	for _, v := range []float64{10, 20, 30, 40} {
		d.Add(Measurement{TripPoint: v, Converged: true})
	}
	if got := d.Stats().Median; got != 25 {
		t.Errorf("even median = %g, want 25", got)
	}
}

func TestDSVStatsSkipsNonConverged(t *testing.T) {
	d := &DSV{}
	d.Add(Measurement{TripPoint: 30, Converged: true, Measurements: 5})
	d.Add(Measurement{TripPoint: 999, Converged: false, Measurements: 7})
	s := d.Stats()
	if s.ConvergedCount != 1 {
		t.Fatalf("converged count %d", s.ConvergedCount)
	}
	if s.Max != 30 {
		t.Errorf("non-converged value leaked into stats: max %g", s.Max)
	}
	if s.MeanSearchCost != 6 {
		t.Errorf("mean cost %g, want 6 (cost counts all searches)", s.MeanSearchCost)
	}
}

func TestDSVStatsEmpty(t *testing.T) {
	if s := (&DSV{}).Stats(); s.N != 0 || s.Min != 0 {
		t.Errorf("empty stats: %+v", s)
	}
}

func TestDSVTotalMeasurements(t *testing.T) {
	d := &DSV{}
	d.Add(Measurement{Measurements: 3})
	d.Add(Measurement{Measurements: 4})
	if d.TotalMeasurements() != 7 {
		t.Error("total measurements wrong")
	}
}

func TestSUTPCostAdvantageOverPerTestFullSearch(t *testing.T) {
	// Figure 3's claim, end to end on the simulated ATE: the SUTP runner
	// must spend significantly fewer measurements than a runner doing a
	// full-range search per test.
	tester, gen := newRig(t)
	tests := gen.Batch(30)

	sutp := NewRunner(tester, ate.TDQ)
	dsvS, err := sutp.MeasureAll(tests)
	if err != nil {
		t.Fatal(err)
	}

	full := NewRunner(tester, ate.TDQ)
	full.Searcher = search.SuccessiveApproximation{}
	dsvF, err := full.MeasureAll(tests)
	if err != nil {
		t.Fatal(err)
	}

	sCost, fCost := dsvS.TotalMeasurements(), dsvF.TotalMeasurements()
	if float64(sCost) > 0.6*float64(fCost) {
		t.Errorf("SUTP cost %d not clearly below full-search cost %d", sCost, fCost)
	}

	// Both must agree within the SUTP accuracy (SF·IT bracket at the
	// crossing, a few SF for the spreads seen here) plus noise.
	for i := range dsvS.Values {
		d := math.Abs(dsvS.Values[i].TripPoint - dsvF.Values[i].TripPoint)
		if d > 2.0 {
			t.Errorf("test %d: SUTP %g vs full %g disagree by %g",
				i, dsvS.Values[i].TripPoint, dsvF.Values[i].TripPoint, d)
		}
	}

	// The stats must expose the first-vs-followup asymmetry.
	st := dsvS.Stats()
	if st.FollowupSearchCost >= float64(st.FirstSearchCost) {
		t.Errorf("follow-up cost %g not below the first full search %d",
			st.FollowupSearchCost, st.FirstSearchCost)
	}
}

func TestRunnerErrorsWithoutATE(t *testing.T) {
	r := &Runner{Param: ate.TDQ}
	if _, err := r.Measure(testgen.Test{Name: "x"}); err == nil {
		t.Error("runner without ATE accepted a measurement")
	}
}

func TestMultipleTripPointVariation(t *testing.T) {
	// Fig. 2: different tests produce different trip points; the DSV
	// spread must be clearly nonzero.
	tester, gen := newRig(t)
	r := NewRunner(tester, ate.TDQ)
	dsv, err := r.MeasureAll(gen.Batch(40))
	if err != nil {
		t.Fatal(err)
	}
	s := dsv.Stats()
	if s.Range < 1 {
		t.Errorf("trip point variation %g ns too small; multiple-trip-point premise broken", s.Range)
	}
	if s.MinTest == "" || s.MaxTest == "" {
		t.Error("extreme tests not identified")
	}
}

// TestStyledGeneratorWidensDSVSpread is the generator-design ablation: the
// styled random generator must produce a clearly wider trip-point spread
// than a naive uniform generator — the spread is the signal both the
// multiple-trip-point analysis and the NN learn from. It must hold on 20/20
// seeds: tester seed s and generator seed s+38 for s in 1000–1019.
func TestStyledGeneratorWidensDSVSpread(t *testing.T) {
	spread := func(seed int64, uniformOnly bool) float64 {
		dev, err := dut.NewDevice(dut.DefaultGeometry(), dut.NewDie(0, dut.CornerTypical))
		if err != nil {
			t.Fatal(err)
		}
		tester := ate.New(dev, seed)
		cond := testgen.NominalConditions()
		gen := testgen.NewRandomGenerator(seed+38, dev.Geometry().Words(), testgen.DefaultConditionLimits())
		gen.FixedConditions = &cond
		gen.UniformOnly = uniformOnly
		r := NewRunner(tester, ate.TDQ)
		r.Searcher = &search.SUTP{Refine: true}
		dsv, err := r.MeasureAll(gen.Batch(60))
		if err != nil {
			t.Fatal(err)
		}
		return dsv.Stats().Range
	}
	for seed := int64(1000); seed < 1020; seed++ {
		styled := spread(seed, false)
		uniform := spread(seed, true)
		t.Logf("seed %d: styled %.2f ns, uniform %.2f ns, ratio %.2f", seed, styled, uniform, styled/uniform)
		if styled < uniform*1.5 {
			t.Errorf("seed %d: styled generator spread %.2f ns not clearly above uniform %.2f ns", seed, styled, uniform)
		}
	}
}
