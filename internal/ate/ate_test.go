package ate

import (
	"math"
	"testing"

	"repro/internal/dut"
	"repro/internal/search"
	"repro/internal/testgen"
)

func testATE(t *testing.T) *ATE {
	t.Helper()
	dev, err := dut.NewDevice(dut.DefaultGeometry(), dut.NewDie(0, dut.CornerTypical))
	if err != nil {
		t.Fatal(err)
	}
	return New(dev, 99)
}

func sampleTest(t *testing.T) testgen.Test {
	t.Helper()
	tt, err := testgen.MarchTest(testgen.MarchCMinus(), 0, 50, 0x55555555, testgen.NominalConditions())
	if err != nil {
		t.Fatal(err)
	}
	return tt
}

func TestMeasureTDQPassFailSides(t *testing.T) {
	a := testATE(t)
	a.NoiseFraction = 0 // deterministic for side checks
	tt := sampleTest(t)
	p, err := a.Profile(tt)
	if err != nil {
		t.Fatal(err)
	}
	w := p.TDQWindowNS()
	pass, err := a.MeasureTDQPass(tt, w-1)
	if err != nil {
		t.Fatal(err)
	}
	if !pass {
		t.Error("strobe 1 ns inside the window failed")
	}
	pass, err = a.MeasureTDQPass(tt, w+1)
	if err != nil {
		t.Fatal(err)
	}
	if pass {
		t.Error("strobe 1 ns beyond the window passed")
	}
}

func TestStatsAccounting(t *testing.T) {
	a := testATE(t)
	tt := sampleTest(t)
	if a.Stats() != (Stats{}) {
		t.Fatal("fresh ATE has non-zero stats")
	}
	for i := 0; i < 3; i++ {
		if _, err := a.MeasureTDQPass(tt, 25); err != nil {
			t.Fatal(err)
		}
	}
	s := a.Stats()
	if s.Measurements != 3 {
		t.Errorf("measurements = %d, want 3", s.Measurements)
	}
	if s.VectorsApplied != int64(3*len(tt.Seq)) {
		t.Errorf("vectors = %d, want %d", s.VectorsApplied, 3*len(tt.Seq))
	}
	if s.TestTimeSec <= 0 {
		t.Error("no test time accumulated")
	}
	if s.Profiles != 1 {
		t.Errorf("profiles = %d, want 1 (pattern cache)", s.Profiles)
	}
	a.ResetStats()
	if a.Stats() != (Stats{}) {
		t.Error("ResetStats did not clear")
	}
}

func TestProfileCacheByName(t *testing.T) {
	a := testATE(t)
	tt := sampleTest(t)
	if _, err := a.Profile(tt); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Profile(tt); err != nil {
		t.Fatal(err)
	}
	if got := a.Stats().Profiles; got != 1 {
		t.Errorf("profiles = %d, want 1 for repeated same-name loads", got)
	}
	other := tt
	other.Name = "other"
	if _, err := a.Profile(other); err != nil {
		t.Fatal(err)
	}
	if got := a.Stats().Profiles; got != 2 {
		t.Errorf("profiles = %d, want 2 after loading a different test", got)
	}
}

func TestStatsAdd(t *testing.T) {
	a := Stats{Measurements: 1, VectorsApplied: 2, TestTimeSec: 3, Profiles: 4}
	a.Add(Stats{Measurements: 10, VectorsApplied: 20, TestTimeSec: 30, Profiles: 40})
	if a.Measurements != 11 || a.VectorsApplied != 22 || a.TestTimeSec != 33 || a.Profiles != 44 {
		t.Errorf("Stats.Add wrong: %+v", a)
	}
}

func TestStatsCostAndCostSince(t *testing.T) {
	before := Stats{Measurements: 10, VectorsApplied: 100, Profiles: 1, TestTimeSec: 1}
	after := Stats{Measurements: 15, VectorsApplied: 160, Profiles: 3, TestTimeSec: 2.5}
	d := after.CostSince(before)
	if d.Measurements != 5 || d.Vectors != 60 || d.Profiles != 2 || d.SimTimeSec != 1.5 {
		t.Errorf("CostSince = %+v", d)
	}
	c := after.Cost()
	if c.Measurements != 15 || c.Vectors != 160 || c.Profiles != 3 || c.SimTimeSec != 2.5 {
		t.Errorf("Cost = %+v", c)
	}
}

func TestMeasurementNoiseBracketsTruth(t *testing.T) {
	a := testATE(t)
	tt := sampleTest(t)
	p, err := a.Profile(tt)
	if err != nil {
		t.Fatal(err)
	}
	w := p.TDQWindowNS()
	// Right at the window edge, noise should produce both outcomes over
	// many repeats.
	passes := 0
	for i := 0; i < 200; i++ {
		ok, err := a.MeasureTDQPass(tt, w)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			passes++
		}
	}
	if passes == 0 || passes == 200 {
		t.Errorf("edge measurement deterministic (%d/200 passes); noise not applied", passes)
	}
	// Far from the edge, noise must never flip the outcome.
	for i := 0; i < 100; i++ {
		ok, err := a.MeasureTDQPass(tt, w-5)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatal("noise flipped a measurement 5 ns inside the window")
		}
	}
}

func TestShmooPointMatchesOverriddenVdd(t *testing.T) {
	a := testATE(t)
	a.NoiseFraction = 0
	tt := sampleTest(t)
	p, err := a.Profile(tt)
	if err != nil {
		t.Fatal(err)
	}
	for _, vdd := range []float64{1.5, 1.8, 2.1} {
		w := p.TDQWindowNSAt(vdd)
		var pass [2]bool
		if err := a.MeasureShmooRow(tt, vdd, []float64{w - 0.5, w + 0.5}, pass[:]); err != nil {
			t.Fatal(err)
		}
		if !pass[0] {
			t.Errorf("shmoo point below window failed at %g V", vdd)
		}
		if pass[1] {
			t.Errorf("shmoo point above window passed at %g V", vdd)
		}
	}
}

func TestFmaxAndVddMinMeasurers(t *testing.T) {
	a := testATE(t)
	a.NoiseFraction = 0
	tt := sampleTest(t)
	p, err := a.Profile(tt)
	if err != nil {
		t.Fatal(err)
	}
	fmax := p.FmaxMHz()
	ok, err := a.MeasureFmaxPass(tt, fmax-2)
	if err != nil || !ok {
		t.Errorf("clock below Fmax failed: %v", err)
	}
	ok, err = a.MeasureFmaxPass(tt, fmax+2)
	if err != nil || ok {
		t.Errorf("clock above Fmax passed: %v", err)
	}
	vmin := p.VddMinV()
	ok, err = a.MeasureVddMinPass(tt, vmin+0.05)
	if err != nil || !ok {
		t.Errorf("supply above Vddmin failed: %v", err)
	}
	ok, err = a.MeasureVddMinPass(tt, vmin-0.05)
	if err != nil || ok {
		t.Errorf("supply below Vddmin passed: %v", err)
	}
}

func TestFunctionalPass(t *testing.T) {
	a := testATE(t)
	if ok, err := a.FunctionalPass(sampleTest(t)); err != nil || !ok {
		t.Errorf("clean device failed functionally: %v", err)
	}
}

func TestMeasurerSearchIntegration(t *testing.T) {
	// End to end: a binary search over the ATE measurer must find the true
	// window within the resolution plus noise margin.
	a := testATE(t)
	tt := sampleTest(t)
	p, err := a.Profile(tt)
	if err != nil {
		t.Fatal(err)
	}
	truth := TDQ.TrueValue(p)
	res, err := (search.Binary{}).Search(a.Measurer(TDQ, tt), TDQ.SearchOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("search over ATE did not converge")
	}
	if math.Abs(res.TripPoint-truth) > 0.3 {
		t.Errorf("searched trip %g, true window %g", res.TripPoint, truth)
	}
}

func TestMeasurerUnknownParameter(t *testing.T) {
	a := testATE(t)
	m := a.Measurer(Parameter(99), sampleTest(t))
	if _, err := m.Passes(1); err == nil {
		t.Error("unknown parameter measurer did not error")
	}
}

func TestDeviceAccessorAndReload(t *testing.T) {
	a := testATE(t)
	if a.Device() == nil {
		t.Fatal("nil device")
	}
	tt := sampleTest(t)
	if _, err := a.Profile(tt); err != nil {
		t.Fatal(err)
	}
	before := a.Stats().Profiles
	a.Reload()
	if _, err := a.Profile(tt); err != nil {
		t.Fatal(err)
	}
	if a.Stats().Profiles != before+1 {
		t.Error("Reload did not invalidate the pattern cache")
	}
}

func TestTrueValueMatchesProfile(t *testing.T) {
	a := testATE(t)
	p, err := a.Profile(sampleTest(t))
	if err != nil {
		t.Fatal(err)
	}
	if got := Fmax.TrueValue(p); got != p.FmaxMHz() {
		t.Errorf("Fmax true value %g", got)
	}
	if got := VddMin.TrueValue(p); got != p.VddMinV() {
		t.Errorf("Vddmin true value %g", got)
	}
	if got := Parameter(9).TrueValue(p); got != 0 {
		t.Errorf("unknown parameter true value %g", got)
	}
}

func TestMeasurerAllParameters(t *testing.T) {
	a := testATE(t)
	a.NoiseFraction = 0
	tt := sampleTest(t)
	p, err := a.Profile(tt)
	if err != nil {
		t.Fatal(err)
	}
	for _, param := range []Parameter{TDQ, Fmax, VddMin} {
		truth := param.TrueValue(p)
		opt := param.SearchOptions()
		m := a.Measurer(param, tt)
		// Probe well inside the pass region and well inside the fail region.
		passProbe, failProbe := truth-5*opt.Resolution, truth+5*opt.Resolution
		if opt.Orientation == search.PassHigh {
			passProbe, failProbe = failProbe, passProbe
		}
		ok, err := m.Passes(passProbe)
		if err != nil || !ok {
			t.Errorf("%v: pass-side probe failed (%v)", param, err)
		}
		ok, err = m.Passes(failProbe)
		if err != nil || ok {
			t.Errorf("%v: fail-side probe passed (%v)", param, err)
		}
	}
}

func TestPerParamAttribution(t *testing.T) {
	a := testATE(t)
	tt := sampleTest(t)
	for i := 0; i < 3; i++ {
		if _, err := a.MeasureTDQPass(tt, 25); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.MeasureShmooRow(tt, 1.8, []float64{25}, make([]bool, 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := a.MeasureFmaxPass(tt, 90); err != nil {
		t.Fatal(err)
	}
	if _, err := a.MeasureVddMinPass(tt, 1.8); err != nil {
		t.Fatal(err)
	}
	if _, err := a.FunctionalPass(tt); err != nil {
		t.Fatal(err)
	}
	s := a.Stats()
	if got := s.PerParam[TDQ]; got != 4 {
		t.Errorf("TDQ measurements = %d, want 4", got)
	}
	if got := s.PerParam[Fmax]; got != 1 {
		t.Errorf("Fmax measurements = %d, want 1", got)
	}
	if got := s.PerParam[VddMin]; got != 1 {
		t.Errorf("Vddmin measurements = %d, want 1", got)
	}
	if s.Functional != 1 {
		t.Errorf("functional measurements = %d, want 1", s.Functional)
	}
	var sum int64
	for _, p := range []Parameter{TDQ, Fmax, VddMin} {
		sum += s.PerParam[p]
	}
	if sum+s.Functional != s.Measurements {
		t.Errorf("per-param sum %d + functional %d != total %d", sum, s.Functional, s.Measurements)
	}
}

func TestStatsAddPerParam(t *testing.T) {
	a := Stats{Functional: 1}
	a.PerParam[TDQ] = 2
	b := Stats{Functional: 10}
	b.PerParam[TDQ] = 20
	b.PerParam[Fmax] = 5
	a.Add(b)
	if a.PerParam[TDQ] != 22 || a.PerParam[Fmax] != 5 || a.Functional != 11 {
		t.Errorf("per-param Add wrong: %+v", a)
	}
}

func TestResetStatsInvalidatesProfileCache(t *testing.T) {
	a := testATE(t)
	tt := sampleTest(t)
	if _, err := a.Profile(tt); err != nil {
		t.Fatal(err)
	}
	a.ResetStats()
	// A phase started after the reset must pay its own pattern load, so
	// per-phase Profiles breakdowns sum to a fresh-tester run.
	if _, err := a.Profile(tt); err != nil {
		t.Fatal(err)
	}
	if got := a.Stats().Profiles; got != 1 {
		t.Errorf("profiles after reset = %d, want 1 (cache must reset with stats)", got)
	}
}
