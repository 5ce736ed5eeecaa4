// Package charspec implements the end goal of §1's characterization
// methodology: "repeat the test for every combination of two or more
// environmental variables … this set of information helps to define the
// final device specification at the end of the characterization phase."
//
// Given a set of tests (typically the worst-case database produced by the
// CI flow plus the deterministic baselines), the extractor measures the
// trip point of every test at every supply/temperature combination, finds
// the worst corner, and derives the recommended specification limit with a
// guardband.
package charspec

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/ate"
	"repro/internal/search"
	"repro/internal/testgen"
	"repro/internal/trippoint"
	"repro/internal/wcr"
)

// EnvGrid is the set of environmental combinations to characterize over.
type EnvGrid struct {
	VddV  []float64
	TempC []float64
}

// DefaultGrid covers the characterization window: five supplies across
// 1.6–2.0 V and four temperatures from cold to hot.
func DefaultGrid() EnvGrid {
	return EnvGrid{
		VddV:  []float64{1.62, 1.71, 1.80, 1.89, 1.98},
		TempC: []float64{-40, 25, 85, 125},
	}
}

// Validate reports degenerate grids.
func (g EnvGrid) Validate() error {
	if len(g.VddV) == 0 || len(g.TempC) == 0 {
		return fmt.Errorf("charspec: empty environmental grid")
	}
	return nil
}

// Corner is one environmental combination.
type Corner struct {
	VddV  float64
	TempC float64
}

// String renders "1.80V/25°C".
func (c Corner) String() string {
	return fmt.Sprintf("%.2fV/%g°C", c.VddV, c.TempC)
}

// CornerResult is the multiple-trip-point outcome at one corner.
type CornerResult struct {
	Corner    Corner
	Worst     float64 // worst trip point at this corner
	WorstTest string
	Mean      float64
	Spread    float64
	WCR       float64 // WCR of the worst trip point
}

// Report is the extracted specification.
type Report struct {
	Parameter ate.Parameter
	Spec      float64
	SpecIsMin bool

	PerCorner []CornerResult
	// WorstCorner is the environmental combination with the worst trip
	// point; WorstValue/WorstTest identify the measurement.
	WorstCorner Corner
	WorstValue  float64
	WorstTest   string

	// GuardbandFrac is the applied margin; RecommendedLimit is the final
	// device specification this characterization supports: the worst
	// measured value degraded by the guardband.
	GuardbandFrac    float64
	RecommendedLimit float64
	// MeetsSpec reports whether the recommendation still satisfies the
	// design specification.
	MeetsSpec bool

	Measurements int64
}

// Config tunes the extraction.
type Config struct {
	Grid EnvGrid
	// Guardband is the fractional margin applied to the worst measurement
	// (default 0.05 = 5%).
	Guardband float64
}

// DefaultConfig returns the standard extraction setup.
func DefaultConfig() Config {
	return Config{Grid: DefaultGrid(), Guardband: 0.05}
}

// Extract characterizes the tests over every environmental combination and
// derives the specification report. Test conditions are overridden per
// corner (clock is kept from each test).
func Extract(tester *ate.ATE, param ate.Parameter, tests []testgen.Test, cfg Config) (*Report, error) {
	if err := cfg.Grid.Validate(); err != nil {
		return nil, err
	}
	if len(tests) == 0 {
		return nil, fmt.Errorf("charspec: no tests to characterize")
	}
	if cfg.Guardband < 0 || cfg.Guardband >= 1 {
		return nil, fmt.Errorf("charspec: guardband %g outside [0, 1)", cfg.Guardband)
	}

	spec, isMin := param.SpecValue()
	rep := &Report{
		Parameter:     param,
		Spec:          spec,
		SpecIsMin:     isMin,
		GuardbandFrac: cfg.Guardband,
	}
	before := tester.Stats().Measurements

	worseThan := func(a, b float64) bool {
		if isMin {
			return a < b // smaller is worse for a minimum spec
		}
		return a > b
	}
	rep.WorstValue = math.Inf(1)
	if !isMin {
		rep.WorstValue = math.Inf(-1)
	}

	for _, vdd := range cfg.Grid.VddV {
		for _, temp := range cfg.Grid.TempC {
			corner := Corner{VddV: vdd, TempC: temp}
			// Each corner gets a fresh reference trip point.
			runner := trippoint.NewRunner(tester, param)
			runner.Searcher = &search.SUTP{Refine: true}
			cr := CornerResult{Corner: corner}
			worst := math.Inf(1)
			if !isMin {
				worst = math.Inf(-1)
			}
			for _, t := range tests {
				ct := t.Clone()
				ct.Name = fmt.Sprintf("%s@%s", t.Name, corner)
				ct.Cond.VddV = vdd
				ct.Cond.TempC = temp
				m, err := runner.Measure(ct)
				if err != nil {
					return nil, fmt.Errorf("charspec: corner %s: %w", corner, err)
				}
				if !m.Converged {
					continue
				}
				if worseThan(m.TripPoint, worst) {
					worst = m.TripPoint
					cr.WorstTest = t.Name
				}
			}
			if math.IsInf(worst, 0) {
				return nil, fmt.Errorf("charspec: no test converged at corner %s", corner)
			}
			stats := runner.DSV().Stats()
			cr.Worst = worst
			cr.Mean = stats.Mean
			cr.Spread = stats.Range
			cr.WCR = wcr.For(worst, spec, isMin)
			rep.PerCorner = append(rep.PerCorner, cr)

			if worseThan(worst, rep.WorstValue) {
				rep.WorstValue = worst
				rep.WorstCorner = corner
				rep.WorstTest = cr.WorstTest
			}
		}
	}

	if isMin {
		rep.RecommendedLimit = rep.WorstValue * (1 - cfg.Guardband)
		rep.MeetsSpec = rep.RecommendedLimit >= spec
	} else {
		rep.RecommendedLimit = rep.WorstValue * (1 + cfg.Guardband)
		rep.MeetsSpec = rep.RecommendedLimit <= spec
	}
	rep.Measurements = tester.Stats().Measurements - before
	return rep, nil
}

// Format renders the report as a characterization summary table.
func (r *Report) Format() string {
	var b strings.Builder
	dir := "min"
	if !r.SpecIsMin {
		dir = "max"
	}
	fmt.Fprintf(&b, "Specification extraction: %s (design spec: %s %.3g %s)\n",
		r.Parameter, dir, r.Spec, r.Parameter.Unit())
	fmt.Fprintf(&b, "%-16s %10s %10s %9s %8s %-12s\n", "corner", "worst", "mean", "spread", "WCR", "worst test")
	for _, c := range r.PerCorner {
		fmt.Fprintf(&b, "%-16s %10.3f %10.3f %9.3f %8.3f %-12s\n",
			c.Corner.String(), c.Worst, c.Mean, c.Spread, c.WCR, c.WorstTest)
	}
	fmt.Fprintf(&b, "worst corner: %s (%s = %.3f %s by %s)\n",
		r.WorstCorner, r.Parameter, r.WorstValue, r.Parameter.Unit(), r.WorstTest)
	fmt.Fprintf(&b, "recommended limit with %.0f%% guardband: %.3f %s — meets spec: %v\n",
		r.GuardbandFrac*100, r.RecommendedLimit, r.Parameter.Unit(), r.MeetsSpec)
	fmt.Fprintf(&b, "cost: %d measurements over %d corners\n", r.Measurements, len(r.PerCorner))
	return b.String()
}
