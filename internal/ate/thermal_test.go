package ate

import (
	"testing"

	"repro/internal/dut"
	"repro/internal/search"
	"repro/internal/testgen"
)

func TestThermalAccumulatesAndCaps(t *testing.T) {
	th := &Thermal{RisePerVector: 0.01, TauSec: 10, MaxRiseC: 5}
	th.advance(0.001, 100, 1.0)
	if th.RiseC() != 1.0 {
		t.Errorf("first advance rise = %g, want 1.0", th.RiseC())
	}
	for i := 0; i < 50; i++ {
		th.advance(0.001*float64(i+2), 100, 1.0)
	}
	if th.RiseC() != 5 {
		t.Errorf("rise not capped: %g", th.RiseC())
	}
}

func TestThermalDecays(t *testing.T) {
	th := &Thermal{RisePerVector: 0.01, TauSec: 1, MaxRiseC: 50}
	th.advance(0, 1000, 1.0) // 10 °C
	r0 := th.RiseC()
	th.advance(3, 0, 0) // three time constants later, no new heat
	if th.RiseC() > r0*0.06 {
		t.Errorf("rise after 3τ = %g, want < 6%% of %g", th.RiseC(), r0)
	}
}

func TestThermalNilSafe(t *testing.T) {
	var th *Thermal
	th.advance(1, 100, 1) // must not panic
	if th.RiseC() != 0 {
		t.Error("nil thermal has rise")
	}
	th.Reset()
}

func TestThermalReset(t *testing.T) {
	th := DefaultThermal()
	th.advance(0.001, 1000, 1)
	if th.RiseC() == 0 {
		t.Fatal("no rise accumulated")
	}
	th.Reset()
	if th.RiseC() != 0 {
		t.Error("reset did not cool")
	}
}

func TestHeatingShiftsMeasuredTripPoint(t *testing.T) {
	// A long characterization session on a heating-enabled tester must
	// measure a smaller T_DQ window at the end than at the start: the
	// drift the paper's §1 warns about.
	dev, err := dut.NewDevice(dut.DefaultGeometry(), dut.NewDie(0, dut.CornerTypical))
	if err != nil {
		t.Fatal(err)
	}
	a := New(dev, 5)
	a.NoiseFraction = 0

	tt, err := testgen.MarchTest(testgen.MarchCMinus(), 0, 50, 0x55555555, testgen.NominalConditions())
	if err != nil {
		t.Fatal(err)
	}

	searchOnce := func() float64 {
		res, err := (search.Binary{}).Search(a.Measurer(TDQ, tt), TDQ.SearchOptions())
		if err != nil {
			t.Fatal(err)
		}
		if !res.Converged {
			t.Fatal("search did not converge")
		}
		return res.TripPoint
	}
	cold := searchOnce() // Heating is nil: junction at ambient.

	// Attach a heating model and burn measurements until the junction is
	// hot (no decay: τ → ∞ keeps the rise across the verification search).
	a.Heating = &Thermal{RisePerVector: 0.02, TauSec: 1e12, MaxRiseC: 40}
	for i := 0; i < 50; i++ {
		if _, err := a.MeasureTDQPass(tt, 25); err != nil {
			t.Fatal(err)
		}
	}
	if a.Heating.RiseC() < 5 {
		t.Fatalf("junction rise only %.1f °C; heating model miscalibrated for this test", a.Heating.RiseC())
	}
	hot := searchOnce()
	if hot >= cold {
		t.Errorf("hot trip point %.3f not below cold %.3f despite %.1f °C rise",
			hot, cold, a.Heating.RiseC())
	}
}

func TestJunctionTempWithoutHeating(t *testing.T) {
	dev, err := dut.NewDevice(dut.DefaultGeometry(), dut.NewDie(0, dut.CornerTypical))
	if err != nil {
		t.Fatal(err)
	}
	a := New(dev, 5)
	tt := testgen.Test{Name: "x", Cond: testgen.NominalConditions()}
	if got := tt.Cond.TempC + a.Heating.RiseC(); got != 25 {
		t.Errorf("junction temp %g, want ambient 25", got)
	}
}
