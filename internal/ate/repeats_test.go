package ate

import (
	"math"
	"testing"

	"repro/internal/dut"
	"repro/internal/search"
	"repro/internal/testgen"
)

func TestMajorityVoteReducesEdgeFlips(t *testing.T) {
	dev, err := dut.NewDevice(dut.DefaultGeometry(), dut.NewDie(0, dut.CornerTypical))
	if err != nil {
		t.Fatal(err)
	}
	tt, err := testgen.MarchTest(testgen.MarchCMinus(), 0, 50, 0x55555555, testgen.NominalConditions())
	if err != nil {
		t.Fatal(err)
	}

	// Repeated trip-point searches with heavy noise: the spread of results
	// must shrink when settling repeats are enabled.
	spread := func(repeats int) float64 {
		a := New(dev, 31)
		a.NoiseFraction = 2.0 // deliberately noisy
		a.Repeats = repeats
		min, max := math.Inf(1), math.Inf(-1)
		for i := 0; i < 25; i++ {
			res, err := (search.Binary{}).Search(a.Measurer(TDQ, tt), TDQ.SearchOptions())
			if err != nil {
				t.Fatal(err)
			}
			if !res.Converged {
				t.Fatal("noisy search did not converge")
			}
			min = math.Min(min, res.TripPoint)
			max = math.Max(max, res.TripPoint)
		}
		return max - min
	}

	noisy := spread(1)
	voted := spread(7)
	if voted >= noisy {
		t.Errorf("7-repeat spread %.3f not below single-shot spread %.3f", voted, noisy)
	}
}

func TestMajorityChargesRepeats(t *testing.T) {
	dev, err := dut.NewDevice(dut.DefaultGeometry(), dut.NewDie(0, dut.CornerTypical))
	if err != nil {
		t.Fatal(err)
	}
	a := New(dev, 7)
	a.NoiseFraction = 0 // unanimous votes exit after ceil(k/2) measurements
	a.Repeats = 5
	mats, err := testgen.MarchFromLibrary("MATS+")
	if err != nil {
		t.Fatal(err)
	}
	tt, err := testgen.MarchTest(mats, 0, 20, 0, testgen.NominalConditions())
	if err != nil {
		t.Fatal(err)
	}
	m := a.Measurer(TDQ, tt)
	if _, err := m.Passes(25); err != nil {
		t.Fatal(err)
	}
	// Noise-free: 3 of 5 identical outcomes decide the vote early.
	if got := a.Stats().Measurements; got != 3 {
		t.Errorf("unanimous 5-repeat vote charged %d measurements, want 3 (early exit)", got)
	}
}

func TestMajorityEvenRepeatsRoundUp(t *testing.T) {
	dev, err := dut.NewDevice(dut.DefaultGeometry(), dut.NewDie(0, dut.CornerTypical))
	if err != nil {
		t.Fatal(err)
	}
	a := New(dev, 7)
	a.NoiseFraction = 0
	a.Repeats = 4 // rounds to 5 → early exit after 3
	mats, err := testgen.MarchFromLibrary("MATS+")
	if err != nil {
		t.Fatal(err)
	}
	tt, err := testgen.MarchTest(mats, 0, 20, 0, testgen.NominalConditions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Measurer(TDQ, tt).Passes(25); err != nil {
		t.Fatal(err)
	}
	if got := a.Stats().Measurements; got != 3 {
		t.Errorf("even repeats charged %d, want 3", got)
	}
}
