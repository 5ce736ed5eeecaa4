// Package trippoint implements the paper's multiple trip point
// characterization concept (§3): run many different tests, measure a trip
// point per test, and collect the resulting design-specification-value set
// DSV = TPV(T1..TN) (eq. 1) whose spread — not any single value — bounds
// the device's true operating limits.
package trippoint

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/ate"
	"repro/internal/search"
	"repro/internal/testgen"
)

// Measurement is one trip point of the DSV set: the test that produced it
// and the search cost that was paid for it.
type Measurement struct {
	TestName     string
	TripPoint    float64
	Measurements int
	Converged    bool
}

// DSV is the design-specification-value set of eq. 1, in measurement order.
type DSV struct {
	Parameter ate.Parameter
	Values    []Measurement
}

// Add appends a measurement.
func (d *DSV) Add(m Measurement) { d.Values = append(d.Values, m) }

// TotalMeasurements sums the per-trip-point search cost.
func (d *DSV) TotalMeasurements() int {
	n := 0
	for _, m := range d.Values {
		n += m.Measurements
	}
	return n
}

// Stats summarizes the spread of the DSV set.
type Stats struct {
	N                  int
	Min, Max           float64
	MinTest, MaxTest   string
	Mean, StdDev       float64
	Median             float64
	Range              float64 // Max − Min, the worst-case trip point variation of fig. 2
	ConvergedCount     int
	MeanSearchCost     float64
	FirstSearchCost    int     // cost of establishing the reference trip point
	FollowupSearchCost float64 // mean cost of the RTP-anchored searches
}

// Stats computes spread statistics over the converged trip points.
func (d *DSV) Stats() Stats {
	s := Stats{N: len(d.Values), Min: math.Inf(1), Max: math.Inf(-1)}
	if len(d.Values) == 0 {
		return Stats{}
	}
	var sum, costSum float64
	var followCost float64
	vals := make([]float64, 0, len(d.Values))
	for i, m := range d.Values {
		costSum += float64(m.Measurements)
		if i == 0 {
			s.FirstSearchCost = m.Measurements
		} else {
			followCost += float64(m.Measurements)
		}
		if !m.Converged {
			continue
		}
		s.ConvergedCount++
		sum += m.TripPoint
		vals = append(vals, m.TripPoint)
		if m.TripPoint < s.Min {
			s.Min, s.MinTest = m.TripPoint, m.TestName
		}
		if m.TripPoint > s.Max {
			s.Max, s.MaxTest = m.TripPoint, m.TestName
		}
	}
	s.MeanSearchCost = costSum / float64(len(d.Values))
	if len(d.Values) > 1 {
		s.FollowupSearchCost = followCost / float64(len(d.Values)-1)
	}
	if s.ConvergedCount == 0 {
		s.Min, s.Max = 0, 0
		return s
	}
	s.Mean = sum / float64(s.ConvergedCount)
	var ss float64
	for _, v := range vals {
		dv := v - s.Mean
		ss += dv * dv
	}
	s.StdDev = math.Sqrt(ss / float64(s.ConvergedCount))
	sort.Float64s(vals)
	mid := len(vals) / 2
	if len(vals)%2 == 1 {
		s.Median = vals[mid]
	} else {
		s.Median = (vals[mid-1] + vals[mid]) / 2
	}
	s.Range = s.Max - s.Min
	return s
}

// Runner drives a multiple-trip-point characterization: it owns the
// stateful searcher (a SUTP, so the first test establishes the reference
// trip point and later tests ride on it), searches every test over the
// parameter's own generous range (Param.SearchOptions) and appends every
// measurement to the DSV set.
type Runner struct {
	ATE      *ate.ATE
	Param    ate.Parameter
	Searcher search.Searcher

	dsv DSV
}

// NewRunner builds a runner with the paper's defaults: unrefined SUTP
// search (trip points are reported at SF accuracy, exactly as §4
// formulates) with SF = 4× the parameter's resolution. Swap in
// &search.SUTP{Refine: true} for full-resolution trip points at a few extra
// measurements per test.
func NewRunner(a *ate.ATE, param ate.Parameter) *Runner {
	return &Runner{
		ATE:      a,
		Param:    param,
		Searcher: &search.SUTP{SF: 4 * param.Resolution()},
	}
}

// Measure searches the trip point of one test and records it in the DSV.
func (r *Runner) Measure(t testgen.Test) (Measurement, error) {
	if r.ATE == nil {
		return Measurement{}, fmt.Errorf("trippoint: runner has no ATE")
	}
	res, err := r.Searcher.Search(r.ATE.Measurer(r.Param, t), r.Param.SearchOptions())
	if err != nil {
		return Measurement{}, fmt.Errorf("trippoint: measuring %s: %w", t.Name, err)
	}
	m := Measurement{
		TestName:     t.Name,
		TripPoint:    res.TripPoint,
		Measurements: res.Measurements,
		Converged:    res.Converged,
	}
	r.dsv.Parameter = r.Param
	r.dsv.Add(m)
	return m, nil
}

// MeasureAll measures every test in order.
func (r *Runner) MeasureAll(tests []testgen.Test) (*DSV, error) {
	for _, t := range tests {
		if _, err := r.Measure(t); err != nil {
			return nil, err
		}
	}
	return r.DSV(), nil
}

// DSV returns the accumulated design-specification-value set.
func (r *Runner) DSV() *DSV { return &r.dsv }
