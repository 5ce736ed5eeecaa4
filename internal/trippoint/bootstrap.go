package trippoint

import (
	"fmt"
	"math/rand"
	"sort"
)

// Bootstrap estimation of the worst-case trip point. A DSV set is a finite
// sample of the test population; the observed minimum (or maximum)
// understates the uncertainty in "the worst case". WorstCaseInterval
// resamples the converged trip points and reports the percentile interval
// of the resampled extreme — the error bar a spec engineer should attach
// before cutting a guardband.
//
// Extremes are the classic failure case of the naive n-out-of-n bootstrap
// (the resampled minimum equals the sample minimum ≈63% of the time), so
// the implementation uses the m-out-of-n variant with m = ⌈n/2⌉, the
// standard remedy for non-smooth statistics.

// Interval is a two-sided bootstrap percentile interval for the extreme
// trip point.
type Interval struct {
	// Observed is the extreme of the actual sample.
	Observed float64
	// Lo and Hi bound the (1−alpha) percentile interval of the resampled
	// extreme.
	Lo, Hi float64
	// Resamples is the number of bootstrap draws used.
	Resamples int
}

// WorstCaseInterval bootstraps the worst (minimum when min is true,
// maximum otherwise) converged trip point of the DSV. alpha is the total
// tail mass (0.05 → a 95% interval); resamples defaults to 1000 when ≤ 0.
func (d *DSV) WorstCaseInterval(min bool, alpha float64, resamples int, seed int64) (Interval, error) {
	var vals []float64
	for _, m := range d.Values {
		if m.Converged {
			vals = append(vals, m.TripPoint)
		}
	}
	if len(vals) < 3 {
		return Interval{}, fmt.Errorf("trippoint: need at least 3 converged trip points, have %d", len(vals))
	}
	if alpha <= 0 || alpha >= 1 {
		return Interval{}, fmt.Errorf("trippoint: alpha %g outside (0, 1)", alpha)
	}
	if resamples <= 0 {
		resamples = 1000
	}

	extreme := func(xs []float64) float64 {
		e := xs[0]
		for _, v := range xs[1:] {
			if (min && v < e) || (!min && v > e) {
				e = v
			}
		}
		return e
	}

	rng := rand.New(rand.NewSource(seed))
	draws := make([]float64, resamples)
	m := (len(vals) + 1) / 2 // m-out-of-n resample size
	sample := make([]float64, m)
	for r := range draws {
		for i := range sample {
			sample[i] = vals[rng.Intn(len(vals))]
		}
		draws[r] = extreme(sample)
	}
	sort.Float64s(draws)
	loIdx := int(alpha / 2 * float64(resamples))
	hiIdx := int((1 - alpha/2) * float64(resamples))
	if hiIdx >= resamples {
		hiIdx = resamples - 1
	}
	return Interval{
		Observed:  extreme(vals),
		Lo:        draws[loIdx],
		Hi:        draws[hiIdx],
		Resamples: resamples,
	}, nil
}
