package trippoint

import (
	"math"
	"testing"

	"repro/internal/ate"
	"repro/internal/proptest"
)

// relClose compares within a relative-or-absolute tolerance: the streaming
// accumulator and the batch fit take different float paths to the same
// statistics.
func relClose(a, b, tol float64) bool {
	if a == b {
		return true
	}
	diff := math.Abs(a - b)
	scale := math.Max(math.Abs(a), math.Abs(b))
	return diff <= tol*math.Max(scale, 1)
}

// batchDrift is the independent reference for the streaming fit: the
// textbook two-pass least-squares trend over a DSV's converged trip points
// in measurement order.
func batchDrift(d *DSV) DriftReport {
	var xs, ys []float64
	for i, m := range d.Values {
		if !m.Converged {
			continue
		}
		xs = append(xs, float64(i))
		ys = append(ys, m.TripPoint)
	}
	n := len(ys)
	rep := DriftReport{N: n}
	if n < 3 {
		return rep
	}

	var sumX, sumY float64
	for i := range xs {
		sumX += xs[i]
		sumY += ys[i]
	}
	meanX, meanY := sumX/float64(n), sumY/float64(n)
	var sxx, sxy float64
	for i := range xs {
		dx := xs[i] - meanX
		sxx += dx * dx
		sxy += dx * (ys[i] - meanY)
	}
	if sxx == 0 {
		return rep
	}
	rep.Slope = sxy / sxx
	rep.Intercept = meanY - rep.Slope*meanX
	rep.TotalDrift = rep.Slope * (xs[len(xs)-1] - xs[0])

	var ssRes, ssTot float64
	for i := range xs {
		pred := rep.Intercept + rep.Slope*xs[i]
		r := ys[i] - pred
		ssRes += r * r
		dy := ys[i] - meanY
		ssTot += dy * dy
	}
	rep.Residual = math.Sqrt(ssRes / float64(n))
	rep.RawStdDev = math.Sqrt(ssTot / float64(n))
	rep.Significant = n >= 8 && math.Abs(rep.TotalDrift) > 2*rep.Residual
	return rep
}

// The agreement property: a DriftAccumulator fed the converged points of a
// DSV in order — which is what DetectDrift does — reports the same fit the
// batch reference computes.
func TestDriftAccumulatorAgreesWithDetectDrift(t *testing.T) {
	proptest.Check(t, 80, func(pt *proptest.T) {
		n := pt.IntRange(0, 60)
		base := pt.Float64Range(-50, 50)
		slope := pt.Float64Range(-0.5, 0.5)
		noise := pt.Float64Range(0, 2)
		d := &DSV{Parameter: ate.TDQ}
		var acc DriftAccumulator
		converged := 0
		for i := 0; i < n; i++ {
			m := Measurement{
				TripPoint: base + slope*float64(i) + (pt.Float01()-0.5)*noise,
				Converged: pt.Intn(10) != 0, // ~10% non-converged holes
			}
			d.Values = append(d.Values, m)
			if m.Converged {
				acc.Add(float64(i), m.TripPoint)
				converged++
			}
		}
		pt.Logf("n=%d converged=%d base=%.3f slope=%.4f noise=%.3f", n, converged, base, slope, noise)

		want := batchDrift(d)
		got := acc.Report()
		if det := d.DetectDrift(); det != got {
			pt.Fatalf("DetectDrift = %+v, want the accumulator's %+v", det, got)
		}
		if got.N != want.N {
			pt.Fatalf("N = %d, want %d", got.N, want.N)
		}
		if want.N < 3 {
			if got.Slope != 0 || got.Significant {
				pt.Fatalf("degenerate fit not zero: %+v", got)
			}
			return
		}
		const tol = 1e-9
		for _, c := range []struct {
			name      string
			got, want float64
		}{
			{"Slope", got.Slope, want.Slope},
			{"Intercept", got.Intercept, want.Intercept},
			{"TotalDrift", got.TotalDrift, want.TotalDrift},
			{"Residual", got.Residual, want.Residual},
			{"RawStdDev", got.RawStdDev, want.RawStdDev},
		} {
			if !relClose(c.got, c.want, tol) {
				pt.Errorf("%s = %v, want %v", c.name, c.got, c.want)
			}
		}
		if got.Significant != want.Significant {
			// The significance threshold can flip on a hair under disagreeing
			// float paths; only flag it when the margin was not razor-thin.
			margin := math.Abs(math.Abs(want.TotalDrift) - 2*want.Residual)
			if margin > 1e-6 {
				pt.Errorf("Significant = %v, want %v (margin %g)", got.Significant, want.Significant, margin)
			}
		}
	})
}

func TestDriftAccumulatorDegenerate(t *testing.T) {
	var acc DriftAccumulator
	if rep := acc.Report(); rep.N != 0 || rep.Significant {
		t.Errorf("empty accumulator: %+v", rep)
	}
	acc.Add(0, 1)
	acc.Add(1, 2)
	if rep := acc.Report(); rep.N != 2 || rep.Slope != 0 {
		t.Errorf("two points fitted: %+v", rep)
	}
	// All x identical: sxx == 0 must not divide by zero.
	var same DriftAccumulator
	for i := 0; i < 5; i++ {
		same.Add(7, float64(i))
	}
	if rep := same.Report(); rep.Slope != 0 || rep.Significant {
		t.Errorf("degenerate x fit: %+v", rep)
	}
}

func TestDriftAccumulatorDetectsKnownDrift(t *testing.T) {
	var acc DriftAccumulator
	for i := 0; i < 100; i++ {
		acc.Add(float64(i), 10+0.05*float64(i))
	}
	rep := acc.Report()
	if !relClose(rep.Slope, 0.05, 1e-9) || !relClose(rep.TotalDrift, 0.05*99, 1e-9) {
		t.Errorf("noiseless drift fit: %+v", rep)
	}
	if !rep.Significant {
		t.Error("clear drift not significant")
	}
}

func TestOutlierTrackerFindsPlantedOutliers(t *testing.T) {
	o := NewOutlierTracker(4)
	for i := 0; i < 1000; i++ {
		v := 10 + 0.01*math.Sin(float64(i)) // tight population around 10
		switch i {
		case 100:
			v = 25 // extreme high
		case 500:
			v = -5 // extreme low
		case 900:
			v = 14 // mild high
		}
		o.Add(i, v)
	}
	if o.n != 1000 {
		t.Fatalf("N = %d", o.n)
	}
	got := o.Report(3)
	if len(got) < 2 {
		t.Fatalf("outliers = %+v, want the two planted extremes", got)
	}
	if got[0].Index != 100 && got[0].Index != 500 {
		t.Errorf("most extreme outlier = %+v", got[0])
	}
	found := map[int]bool{}
	for _, e := range got {
		found[e.Index] = true
		if math.Abs(e.Z) < 3 {
			t.Errorf("reported outlier below threshold: %+v", e)
		}
	}
	if !found[100] || !found[500] {
		t.Errorf("planted outliers missing from %+v", got)
	}
}

func TestOutlierTrackerBoundedAndDeterministic(t *testing.T) {
	// Memory stays O(K) and the tracked extreme sets are exact: the K
	// lowest and K highest values of the stream.
	o := NewOutlierTracker(3)
	for i := 0; i < 500; i++ {
		o.Add(i, float64((i*7919)%500)) // permutation of 0..499
	}
	if len(o.lows) != 3 || len(o.highs) != 3 {
		t.Fatalf("tracked sets: %d lows, %d highs", len(o.lows), len(o.highs))
	}
	for i, want := range []float64{0, 1, 2} {
		if o.lows[i].Value != want {
			t.Errorf("lows[%d] = %+v, want value %v", i, o.lows[i], want)
		}
	}
	for i, want := range []float64{499, 498, 497} {
		if o.highs[i].Value != want {
			t.Errorf("highs[%d] = %+v, want value %v", i, o.highs[i], want)
		}
	}
}

func TestOutlierTrackerDegenerate(t *testing.T) {
	o := NewOutlierTracker(0) // clamps to 1
	if got := o.Report(3); got != nil {
		t.Errorf("empty report = %+v", got)
	}
	for i := 0; i < 10; i++ {
		o.Add(i, 5) // zero spread
	}
	if got := o.Report(3); got != nil {
		t.Errorf("zero-spread report = %+v", got)
	}
	if o.StdDev() != 0 || o.mean != 5 {
		t.Errorf("moments: mean %v sd %v", o.mean, o.StdDev())
	}
}
