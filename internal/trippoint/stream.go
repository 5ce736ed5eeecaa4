package trippoint

import (
	"math"
	"sort"
)

// Streaming population statistics for lot-scale screening. A 10k-die lot
// cannot buffer every trip point just to ask "did the population drift
// across the run?" and "which dies are outliers?" at the end — the
// streaming pipeline deliberately holds O(batch), not O(lot). The two
// accumulators here answer both questions in O(1) memory per sample:
// DriftAccumulator folds each observation into the sufficient statistics
// of a least-squares trend fit (DetectDrift runs a DSV through it), and
// OutlierTracker keeps Welford moments plus the bounded set of extreme dies.

// DriftAccumulator incrementally fits the linear trend of trip point versus
// measurement index: feed it (x, y) observations in measurement order and
// Report produces the DriftReport. Accumulation is origin-shifted (all
// sums are relative to the first sample) so large die indices do not
// cancel catastrophically. The zero value is ready to use.
type DriftAccumulator struct {
	n             int
	x0, y0        float64 // origin shift: the first observation
	sumX, sumY    float64 // shifted sums
	sumXX, sumXY  float64
	sumYY         float64
	firstX, lastX float64
	haveFirst     bool
}

// Add folds one observation into the fit. For trip-point drift, x is the
// measurement index and y the converged trip point (skip non-converged
// searches, exactly as DetectDrift does).
func (a *DriftAccumulator) Add(x, y float64) {
	if !a.haveFirst {
		a.x0, a.y0 = x, y
		a.firstX = x
		a.haveFirst = true
	}
	a.lastX = x
	dx, dy := x-a.x0, y-a.y0
	a.n++
	a.sumX += dx
	a.sumY += dy
	a.sumXX += dx * dx
	a.sumXY += dx * dy
	a.sumYY += dy * dy
}

// Report closes the fit. With fewer than three observations the report is
// zero-valued with Significant == false.
func (a *DriftAccumulator) Report() DriftReport {
	rep := DriftReport{N: a.n}
	if a.n < 3 {
		return rep
	}
	n := float64(a.n)
	meanX, meanY := a.sumX/n, a.sumY/n
	sxx := a.sumXX - n*meanX*meanX
	sxy := a.sumXY - n*meanX*meanY
	syy := a.sumYY - n*meanY*meanY
	if sxx == 0 {
		return rep
	}
	rep.Slope = sxy / sxx
	// Un-shift the intercept back to absolute coordinates.
	rep.Intercept = (a.y0 + meanY) - rep.Slope*(a.x0+meanX)
	rep.TotalDrift = rep.Slope * (a.lastX - a.firstX)
	ssRes := syy - rep.Slope*sxy
	if ssRes < 0 { // float guard: ssRes is mathematically ≥ 0
		ssRes = 0
	}
	rep.Residual = math.Sqrt(ssRes / n)
	rep.RawStdDev = math.Sqrt(syy / n)
	rep.Significant = a.n >= 8 && math.Abs(rep.TotalDrift) > 2*rep.Residual
	return rep
}

// Outlier is one population outlier: a die whose metric sits far from the
// population mean.
type Outlier struct {
	// Index identifies the die (its position in the lot).
	Index int
	// Value is the die's metric (e.g. worst trip point).
	Value float64
	// Z is the die's standard score against the full population at report
	// time: (Value − mean) / stddev.
	Z float64
}

// OutlierTracker finds population outliers in one streaming pass with
// O(K) memory: Welford moments over every observation plus the K lowest
// and K highest values seen. Because an outlier by |z| must sit at one of
// the value extremes, the bounded extreme sets are guaranteed to contain
// every true top-K outlier — no second pass needed. The tracked sets (and
// the report) are deterministic functions of the observation sequence,
// with ties broken by index.
type OutlierTracker struct {
	k    int
	n    int
	mean float64
	m2   float64

	lows  []Outlier // ascending by (value, index); at most k
	highs []Outlier // descending by (value, index); at most k
}

// NewOutlierTracker tracks up to k outliers per tail. k < 1 selects 1.
func NewOutlierTracker(k int) *OutlierTracker {
	if k < 1 {
		k = 1
	}
	return &OutlierTracker{k: k}
}

// Add folds one die's metric into the population.
func (o *OutlierTracker) Add(index int, v float64) {
	o.n++
	d := v - o.mean
	o.mean += d / float64(o.n)
	o.m2 += d * (v - o.mean)

	e := Outlier{Index: index, Value: v}
	o.lows = boundedInsert(o.lows, e, o.k, func(a, b Outlier) bool {
		if a.Value != b.Value {
			return a.Value < b.Value
		}
		return a.Index < b.Index
	})
	o.highs = boundedInsert(o.highs, e, o.k, func(a, b Outlier) bool {
		if a.Value != b.Value {
			return a.Value > b.Value
		}
		return a.Index < b.Index
	})
}

// boundedInsert keeps s sorted by less and capped at k elements.
func boundedInsert(s []Outlier, e Outlier, k int, less func(a, b Outlier) bool) []Outlier {
	pos := sort.Search(len(s), func(i int) bool { return less(e, s[i]) })
	if pos >= k {
		return s
	}
	s = append(s, Outlier{})
	copy(s[pos+1:], s[pos:])
	s[pos] = e
	if len(s) > k {
		s = s[:k]
	}
	return s
}

// StdDev returns the population standard deviation.
func (o *OutlierTracker) StdDev() float64 {
	if o.n < 2 {
		return 0
	}
	return math.Sqrt(o.m2 / float64(o.n))
}

// Report returns the tracked dies whose |z| meets zThreshold, most extreme
// first (ties by index). With fewer than 4 observations or zero spread it
// returns nil — a z-score against a degenerate population is noise.
func (o *OutlierTracker) Report(zThreshold float64) []Outlier {
	sd := o.StdDev()
	if o.n < 4 || sd == 0 {
		return nil
	}
	var out []Outlier
	seen := map[int]bool{}
	for _, s := range [][]Outlier{o.lows, o.highs} {
		for _, e := range s {
			if seen[e.Index] {
				continue
			}
			z := (e.Value - o.mean) / sd
			if math.Abs(z) >= zThreshold {
				e.Z = z
				out = append(out, e)
				seen[e.Index] = true
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		ai, aj := math.Abs(out[i].Z), math.Abs(out[j].Z)
		if ai != aj {
			return ai > aj
		}
		return out[i].Index < out[j].Index
	})
	return out
}
