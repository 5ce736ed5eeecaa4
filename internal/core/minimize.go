package core

import (
	"fmt"

	"repro/internal/search"
	"repro/internal/testgen"
)

// Worst-case test minimization. The paper ends the flow with "final set of
// worst case tests can be re-simulated or analyzed in detail with ATE
// (e.g. wafer probing analysis) to localize the design weakness
// efficiently" (§2). GA-evolved sequences carry hundreds of vectors of
// evolutionary debris around the provoking core; Minimize shrinks a test
// to a short sequence that still provokes (approximately) the same worst
// case, which is what a failure-analysis engineer wants on the probe
// station.
//
// The algorithm is ddmin-style block removal: repeatedly try to delete
// contiguous blocks (halving the block size when stuck) and keep every
// deletion that does not reduce the measured WCR by more than Tolerance.

// MinimizeConfig tunes the minimizer.
type MinimizeConfig struct {
	// Tolerance is the admissible WCR loss relative to the original test
	// (default 0.02).
	Tolerance float64
	// MinVectors stops shrinking below this length (default 16; the
	// device's weakness needs sustained activity, so very short sequences
	// cannot provoke it).
	MinVectors int
	// MaxMeasurements bounds the ATE budget (default 400 trip-point
	// searches' worth — the minimizer uses one search per probe).
	MaxProbes int
}

// DefaultMinimizeConfig returns the tuned defaults.
func DefaultMinimizeConfig() MinimizeConfig {
	return MinimizeConfig{Tolerance: 0.02, MinVectors: 16, MaxProbes: 400}
}

// MinimizeResult reports the outcome.
type MinimizeResult struct {
	Original  testgen.Test
	Minimized testgen.Test
	// OriginalWCR and MinimizedWCR are the measured severities.
	OriginalWCR  float64
	MinimizedWCR float64
	// Probes is the number of trip-point measurements spent.
	Probes int
}

// ReductionFactor returns len(original)/len(minimized).
func (r MinimizeResult) ReductionFactor() float64 {
	if len(r.Minimized.Seq) == 0 {
		return 0
	}
	return float64(len(r.Original.Seq)) / float64(len(r.Minimized.Seq))
}

// Minimize shrinks the test on the characterizer's ATE. The measurement
// uses the flow's parameter and a fresh SUTP searcher anchored on the
// original test's trip point.
func (c *Characterizer) Minimize(t testgen.Test, cfg MinimizeConfig) (*MinimizeResult, error) {
	if cfg.Tolerance <= 0 {
		cfg.Tolerance = 0.02
	}
	if cfg.MinVectors <= 0 {
		cfg.MinVectors = 16
	}
	if cfg.MaxProbes <= 0 {
		cfg.MaxProbes = 400
	}
	if len(t.Seq) == 0 {
		return nil, fmt.Errorf("core: cannot minimize an empty test")
	}

	spec := c.cfg.Parameter.Spec()
	sutp := &search.SUTP{Refine: true}
	opts := c.cfg.Parameter.SearchOptions()
	probes := 0
	nameCounter := 0

	measure := func(seq testgen.Sequence) (float64, error) {
		probes++
		nameCounter++
		probe := testgen.Test{
			Name: fmt.Sprintf("%s~min%04d", t.Name, nameCounter),
			Seq:  seq,
			Cond: t.Cond,
		}
		res, err := sutp.Search(c.ate.Measurer(c.cfg.Parameter, probe), opts)
		if err != nil {
			return 0, err
		}
		return spec.WCR(res.TripPoint), nil
	}

	origWCR, err := measure(t.Seq)
	if err != nil {
		return nil, err
	}
	floor := origWCR - cfg.Tolerance

	cur := t.Seq.Clone()
	block := len(cur) / 2
	for block >= 1 && probes < cfg.MaxProbes && len(cur) > cfg.MinVectors {
		removedAny := false
		for start := 0; start+block <= len(cur) && probes < cfg.MaxProbes; {
			if len(cur)-block < cfg.MinVectors {
				break
			}
			cand := make(testgen.Sequence, 0, len(cur)-block)
			cand = append(cand, cur[:start]...)
			cand = append(cand, cur[start+block:]...)
			w, err := measure(cand)
			if err != nil {
				return nil, err
			}
			if w >= floor {
				cur = cand
				removedAny = true
				// Do not advance start: the next block slid into place.
			} else {
				start += block
			}
		}
		if !removedAny {
			block /= 2
		}
	}

	finalWCR, err := measure(cur)
	if err != nil {
		return nil, err
	}
	min := testgen.Test{Name: t.Name + "~min", Seq: cur, Cond: t.Cond}
	return &MinimizeResult{
		Original:     t,
		Minimized:    min,
		OriginalWCR:  origWCR,
		MinimizedWCR: finalWCR,
		Probes:       probes,
	}, nil
}
