package trippoint

import (
	"math/rand"
	"testing"
)

func gaussianDSV(seed int64, n int, mean, sigma float64) *DSV {
	rng := rand.New(rand.NewSource(seed))
	d := &DSV{}
	for i := 0; i < n; i++ {
		d.Add(Measurement{TripPoint: mean + rng.NormFloat64()*sigma, Converged: true})
	}
	return d
}

func TestWorstCaseIntervalContainsObserved(t *testing.T) {
	d := gaussianDSV(3, 80, 30, 1)
	iv, err := d.WorstCaseInterval(true, 0.05, 1000, 3)
	if err != nil {
		t.Fatal(err)
	}
	if iv.Lo > iv.Observed || iv.Hi < iv.Observed-2 {
		t.Errorf("interval [%.2f, %.2f] implausible around observed %.2f", iv.Lo, iv.Hi, iv.Observed)
	}
	if iv.Hi <= iv.Lo {
		t.Errorf("degenerate interval [%g, %g]", iv.Lo, iv.Hi)
	}
	if iv.Resamples != 1000 {
		t.Errorf("resamples %d", iv.Resamples)
	}
	// For a minimum, the observed extreme is the sample min, and the hi
	// edge must not exceed the distribution's bulk.
	if iv.Hi > 30 {
		t.Errorf("upper edge %.2f beyond the mean; extreme bootstrap broken", iv.Hi)
	}
}

func TestWorstCaseIntervalMaxDirection(t *testing.T) {
	d := gaussianDSV(5, 80, 1.5, 0.05)
	iv, err := d.WorstCaseInterval(false, 0.1, 500, 5)
	if err != nil {
		t.Fatal(err)
	}
	if iv.Observed < 1.5 {
		t.Errorf("max-direction observed %.3f below the mean", iv.Observed)
	}
	if iv.Lo > iv.Observed {
		t.Error("lower edge above the observed maximum")
	}
}

func TestWorstCaseIntervalShrinksWithSamples(t *testing.T) {
	small := gaussianDSV(7, 10, 30, 1)
	large := gaussianDSV(7, 200, 30, 1)
	ivS, err := small.WorstCaseInterval(true, 0.05, 800, 7)
	if err != nil {
		t.Fatal(err)
	}
	ivL, err := large.WorstCaseInterval(true, 0.05, 800, 7)
	if err != nil {
		t.Fatal(err)
	}
	if wl, ws := ivL.Hi-ivL.Lo, ivS.Hi-ivS.Lo; wl >= ws {
		t.Errorf("interval did not tighten with more samples: %g vs %g", wl, ws)
	}
}

func TestWorstCaseIntervalValidation(t *testing.T) {
	d := gaussianDSV(9, 2, 30, 1)
	if _, err := d.WorstCaseInterval(true, 0.05, 100, 9); err == nil {
		t.Error("2-sample DSV accepted")
	}
	d = gaussianDSV(9, 20, 30, 1)
	if _, err := d.WorstCaseInterval(true, 0, 100, 9); err == nil {
		t.Error("alpha 0 accepted")
	}
	if _, err := d.WorstCaseInterval(true, 1.5, 100, 9); err == nil {
		t.Error("alpha > 1 accepted")
	}
}

func TestWorstCaseIntervalSkipsNonConverged(t *testing.T) {
	d := gaussianDSV(11, 30, 30, 1)
	d.Add(Measurement{TripPoint: -999, Converged: false})
	iv, err := d.WorstCaseInterval(true, 0.05, 500, 11)
	if err != nil {
		t.Fatal(err)
	}
	if iv.Observed < 20 {
		t.Errorf("non-converged value leaked into the extreme: %.2f", iv.Observed)
	}
}
