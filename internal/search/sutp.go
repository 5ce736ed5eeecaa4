package search

import (
	"fmt"
	"math"
)

// SUTP is the paper's Search Until Trip Point algorithm (§4). The first
// search of a multiple-trip-point run covers the full characterization
// range CR with successive approximation (eq. 2) and establishes the
// reference trip point RTP, which stays the reference for the whole run.
// Every later search starts directly at RTP and walks outward in growing
// steps SF(IT) = SF·IT — upward while the device keeps passing, downward
// while it keeps failing (eqs. 3/4) — because trip points of a
// well-designed device cluster in a narrow band around RTP. The expected
// cost per test drops from O(log2(CR/resolution)) full-range measurements
// to a handful of SF-sized steps, while unexpected large drifts are still
// found because the accelerating steps eventually cover the whole range.
//
// SUTP is stateful across Search calls: construct one SUTP per
// characterization run. It is not safe for concurrent use.
type SUTP struct {
	// SF is the search factor resolution, the programmable base step of
	// eqs. 3/4 ("such as 1MHz or 2MHz per step"). Zero defaults to 8× the
	// options' resolution.
	SF float64
	// Refine bisects the final SF-sized bracket down to the options'
	// resolution, recovering full accuracy at a cost of a few extra
	// measurements. When false the trip point is reported at SF accuracy,
	// exactly as formulated in the paper.
	Refine bool

	rtp     float64
	haveRTP bool
}

// Name implements Searcher.
func (*SUTP) Name() string { return "search-until-trip-point" }

// SetReference installs an externally known reference trip point (eq. 2
// already performed elsewhere).
func (s *SUTP) SetReference(rtp float64) { s.rtp = rtp; s.haveRTP = true }

// Search implements Searcher.
func (s *SUTP) Search(m Measurer, opt Options) (Result, error) {
	if err := opt.Validate(); err != nil {
		return Result{}, err
	}
	if !s.haveRTP {
		res, err := SuccessiveApproximation{}.Search(m, opt)
		if err != nil {
			return res, err
		}
		if res.Converged {
			s.rtp = res.TripPoint
			s.haveRTP = true
		}
		return res, nil
	}

	if math.IsNaN(s.rtp) {
		return Result{}, fmt.Errorf("search: SUTP reference trip point is NaN")
	}
	sf := s.SF
	if sf == 0 {
		sf = 8 * opt.Resolution
	}
	if !(sf > 0) || math.IsInf(sf, 0) {
		return Result{}, fmt.Errorf("search: SUTP search factor %g must be positive and finite", sf)
	}
	// The accelerating scan needs ~√(2·CR/SF) probes to cover the whole
	// range. A search factor that is pathologically small relative to the
	// range (corrupt configuration, denormal SF) would make that count
	// astronomical; refuse it instead of looping for hours.
	if steps := math.Sqrt(2 * opt.Range() / sf); !(steps < 1e6) {
		return Result{}, fmt.Errorf("search: SUTP search factor %g too small for range %g", sf, opt.Range())
	}

	c := &counting{m: m}

	// Direction of "toward fail region" in parameter space.
	towardFail := 1.0
	if opt.Orientation == PassHigh {
		towardFail = -1.0
	}
	clampInto := func(v float64) float64 {
		if v < opt.Lo {
			return opt.Lo
		}
		if v > opt.Hi {
			return opt.Hi
		}
		return v
	}
	atFailEnd := func(v float64) bool {
		if opt.Orientation == PassHigh {
			return v <= opt.Lo
		}
		return v >= opt.Hi
	}
	atPassEnd := func(v float64) bool {
		if opt.Orientation == PassHigh {
			return v >= opt.Hi
		}
		return v <= opt.Lo
	}

	start := clampInto(s.rtp)
	ok, err := c.Passes(start)
	if err != nil {
		return Result{Measurements: c.n}, err
	}

	var pass, fail float64
	havePass, haveFail := false, false
	if ok {
		pass, havePass = start, true
	} else {
		fail, haveFail = start, true
	}

	// Accelerating scan (eqs. 3/4): the step SF(IT) = SF·IT grows with the
	// iteration count, so the probe positions run SF, 3SF, 6SF, 10SF, …
	// away from RTP — small drifts cost a couple of probes, large drifts
	// are still covered in O(√(drift/SF)) probes. If the probe at RTP
	// passed, walk toward the fail region until the first failure; if it
	// failed, walk back toward the pass region until the first pass.
	dir := towardFail
	if !ok {
		dir = -towardFail
	}
	v := start
	offset := 0.0
	for it := 1; ; it++ {
		prev := v
		offset += sf * float64(it)
		v = clampInto(start + dir*offset)
		if v == prev && v != opt.Lo && v != opt.Hi {
			// The step underflowed the floating-point grid around the
			// reference (SF orders of magnitude below one ULP of RTP): the
			// probe position will never move, so fail fast instead of
			// spinning.
			return Result{Measurements: c.n}, fmt.Errorf(
				"search: SUTP search factor %g underflows at reference %g", sf, start)
		}
		probe, err := c.Passes(v)
		if err != nil {
			return Result{Measurements: c.n}, err
		}
		if probe {
			pass, havePass = v, true
		} else {
			fail, haveFail = v, true
		}
		if havePass && haveFail {
			break
		}
		if ok && atFailEnd(v) {
			// Passed all the way to the fail-side end of the range.
			return noBoundary(opt, c.n, true), nil
		}
		if !ok && atPassEnd(v) {
			// Failed all the way to the pass-side end.
			return noBoundary(opt, c.n, false), nil
		}
	}

	if s.Refine {
		pass, fail, err = bisect(c, pass, fail, opt.Resolution)
		if err != nil {
			return Result{Measurements: c.n}, err
		}
	}
	return Result{
		TripPoint:    pass,
		Measurements: c.n,
		Converged:    true,
		LastPass:     pass,
		FirstFail:    fail,
	}, nil
}
