package trippoint

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/ate"
	"repro/internal/dut"
	"repro/internal/testgen"
)

func syntheticDSV(slope float64, noise float64, n int, seed int64) *DSV {
	rng := rand.New(rand.NewSource(seed))
	d := &DSV{}
	for i := 0; i < n; i++ {
		d.Add(Measurement{
			TestName:  "t",
			TripPoint: 30 + slope*float64(i) + rng.NormFloat64()*noise,
			Converged: true,
		})
	}
	return d
}

func TestDetectDriftRecoversSlope(t *testing.T) {
	d := syntheticDSV(-0.05, 0.02, 50, 1)
	rep := d.DetectDrift()
	if math.Abs(rep.Slope-(-0.05)) > 0.005 {
		t.Errorf("slope %g, want ≈ -0.05", rep.Slope)
	}
	if !rep.Significant {
		t.Error("clear drift not flagged significant")
	}
	if math.Abs(rep.TotalDrift-(-0.05*49)) > 0.3 {
		t.Errorf("total drift %g, want ≈ %g", rep.TotalDrift, -0.05*49)
	}
	if rep.Residual > 0.05 {
		t.Errorf("residual %g too large after removing trend", rep.Residual)
	}
	if rep.RawStdDev < 3*rep.Residual {
		t.Errorf("raw stddev %g not dominated by drift over residual %g", rep.RawStdDev, rep.Residual)
	}
}

func TestDetectDriftNoTrend(t *testing.T) {
	d := syntheticDSV(0, 0.1, 50, 2)
	rep := d.DetectDrift()
	if rep.Significant {
		t.Errorf("pure noise flagged as drift (slope %g, total %g, residual %g)",
			rep.Slope, rep.TotalDrift, rep.Residual)
	}
}

func TestDetectDriftTooFewSamples(t *testing.T) {
	d := syntheticDSV(-1, 0, 2, 3)
	rep := d.DetectDrift()
	if rep.Significant || rep.Slope != 0 {
		t.Errorf("2-sample drift report: %+v", rep)
	}
}

func TestDetectDriftSkipsNonConverged(t *testing.T) {
	d := syntheticDSV(-0.05, 0.01, 30, 4)
	d.Add(Measurement{TripPoint: 9999, Converged: false})
	rep := d.DetectDrift()
	if rep.N != 30 {
		t.Errorf("N = %d, want 30 (non-converged excluded)", rep.N)
	}
	if math.Abs(rep.Slope-(-0.05)) > 0.01 {
		t.Errorf("slope corrupted by non-converged entry: %g", rep.Slope)
	}
}

// TestDriftDetectionOnHeatingTester closes the loop: a characterization
// run on a self-heating tester must show significant negative drift, and
// the same run on a cold tester must not.
func TestDriftDetectionOnHeatingTester(t *testing.T) {
	run := func(heating *ate.Thermal) DriftReport {
		dev, err := dut.NewDevice(dut.DefaultGeometry(), dut.NewDie(0, dut.CornerTypical))
		if err != nil {
			t.Fatal(err)
		}
		tester := ate.New(dev, 7)
		tester.Heating = heating
		cond := testgen.NominalConditions()
		gen := testgen.NewRandomGenerator(8, dev.Geometry().Words(), testgen.DefaultConditionLimits())
		gen.FixedConditions = &cond
		runner := NewRunner(tester, ate.TDQ)
		// Reuse the SAME test repeatedly: any spread is pure drift.
		tt := gen.Next()
		for i := 0; i < 40; i++ {
			c := tt
			if _, err := runner.Measure(c); err != nil {
				t.Fatal(err)
			}
		}
		return runner.DSV().DetectDrift()
	}

	hot := run(&ate.Thermal{RisePerVector: 0.01, TauSec: 1e12, MaxRiseC: 60})
	if hot.Slope >= 0 {
		t.Errorf("heating run drift slope %g, want negative", hot.Slope)
	}
	if !hot.Significant {
		t.Errorf("heating drift not significant: %+v", hot)
	}

	cold := run(nil)
	if cold.Significant && math.Abs(cold.TotalDrift) > math.Abs(hot.TotalDrift)/4 {
		t.Errorf("cold run shows large drift: %+v", cold)
	}
}
