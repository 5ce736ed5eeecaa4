package trippoint

// Drift analysis over a DSV set. Trip points collected in measurement
// order carry a time dimension: a systematic trend across the run is
// parameter drift (device heating, supply settling), which the paper's §1
// warns corrupts single-search readings and which motivates the
// drift-sensing successive approximation. DetectDrift separates that trend
// from the per-test variation the multiple-trip-point concept is after.

// DriftReport summarizes the systematic component of a DSV run.
type DriftReport struct {
	// Slope is the least-squares trend of trip point versus measurement
	// index (parameter units per test).
	Slope float64
	// Intercept is the trend value at index 0.
	Intercept float64
	// TotalDrift is Slope × (N−1): the systematic shift over the run.
	TotalDrift float64
	// Residual is the RMS of trip points around the trend — the genuine
	// test-to-test variation after removing drift.
	Residual float64
	// RawStdDev is the plain standard deviation (trend included), for
	// comparison: RawStdDev ≫ Residual indicates the spread was mostly
	// drift, not test dependence.
	RawStdDev float64
	// Significant reports whether the systematic shift exceeds the
	// residual noise (|TotalDrift| > 2×Residual with at least 8 samples).
	Significant bool
	// N is the number of converged trip points analysed.
	N int
}

// DetectDrift fits a linear trend to the converged trip points of the DSV
// in measurement order: it feeds them to a DriftAccumulator, the one
// least-squares drift fit. With fewer than three converged points the
// report is zero-valued with Significant == false.
func (d *DSV) DetectDrift() DriftReport {
	var acc DriftAccumulator
	for i, m := range d.Values {
		if m.Converged {
			acc.Add(float64(i), m.TripPoint)
		}
	}
	return acc.Report()
}
