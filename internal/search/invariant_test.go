// Property-based invariant suite for the trip-point searchers: the
// SUTP-vs-full-range differential oracle of the paper's central cost claim
// (§4, eqs. 2–4), bracket-correctness invariants for every searcher, and
// first-search/reference bookkeeping properties. All cases are generated by
// internal/proptest; a failure prints a -proptest.seed repro line.
package search_test

import (
	"math"
	"testing"

	"repro/internal/proptest"
	"repro/internal/search"
)

// oracleCase draws a differential-oracle case inside the paper's
// "well-designed device" premise: a characterization range that is deep
// relative to the resolution (CR/resolution ∈ [2¹⁰, 2²⁰], the "very
// generous starting ranges" of §4), the default search factor SF = 8×res,
// and a reference trip point within ±6·SF of the true boundary (trip
// points cluster in a narrow band around RTP). Under that premise the
// accelerating scan brackets the boundary in a handful of probes while the
// full-range method must halve the whole range.
func oracleCase(pt *proptest.T) proptest.SUTPCase {
	lo := pt.Float64Range(-1000, 1000)
	width := math.Pow(10, pt.Float64Range(-1, 3))
	k := pt.IntRange(10, 20)
	res := width / math.Pow(2, float64(k))
	orient := search.PassLow
	if pt.Bool() {
		orient = search.PassHigh
	}
	opt := search.Options{Lo: lo, Hi: lo + width, Resolution: res, Orientation: orient}

	sf := 8 * res
	trip := lo + pt.Float64Range(0.1, 0.9)*width
	rtp := trip + pt.Float64Range(-6, 6)*sf
	if rtp < lo {
		rtp = lo
	}
	if rtp > lo+width {
		rtp = lo + width
	}
	return proptest.SUTPCase{Opt: opt, Trip: trip, RTP: rtp}
}

// TestSUTPDifferentialOracle is the paper's equivalence claim, mechanically
// pinned: against the same deterministic pass/fail surface, the SUTP search
// anchored to a reference trip point finds the same trip point as a
// conventional full-range search — and spends strictly fewer measurements,
// both than the conventional search actually used and than the
// FullRangeBudget estimate the telemetry layer prices savings with.
func TestSUTPDifferentialOracle(t *testing.T) {
	proptest.Check(t, 250, func(pt *proptest.T) {
		c := oracleCase(pt)
		pt.Logf("opt=%+v trip=%g rtp=%g", c.Opt, c.Trip, c.RTP)

		full, err := (search.SuccessiveApproximation{}).Search(c.Measurer(), c.Opt)
		if err != nil {
			pt.Fatalf("full-range search: %v", err)
		}
		sutp := &search.SUTP{Refine: true}
		sutp.SetReference(c.RTP)
		fast, err := sutp.Search(c.Measurer(), c.Opt)
		if err != nil {
			pt.Fatalf("SUTP search: %v", err)
		}

		if !full.Converged || !fast.Converged {
			pt.Fatalf("convergence: full=%v sutp=%v", full.Converged, fast.Converged)
		}
		tol := c.Opt.Resolution * (1 + 1e-9)
		if d := math.Abs(fast.TripPoint - full.TripPoint); d > tol {
			pt.Errorf("trip points diverge: sutp=%g full=%g (Δ=%g > resolution %g)",
				fast.TripPoint, full.TripPoint, d, c.Opt.Resolution)
		}
		if fast.Measurements >= full.Measurements {
			pt.Errorf("SUTP spent %d measurements, full-range %d — no saving",
				fast.Measurements, full.Measurements)
		}
		if budget := c.Opt.FullRangeBudget(); fast.Measurements >= budget {
			pt.Errorf("SUTP spent %d measurements, ≥ full-range budget %d",
				fast.Measurements, budget)
		}
	})
}

// bracketInvariants checks the universal postcondition of a converged
// search: LastPass passes, FirstFail fails, the bracket straddles the true
// boundary and is at most one resolution step wide.
func bracketInvariants(pt *proptest.T, label string, c proptest.SUTPCase, r search.Result) {
	if !r.Converged {
		pt.Fatalf("%s did not converge", label)
	}
	pass := func(v float64) bool {
		if c.Opt.Orientation == search.PassHigh {
			return v >= c.Trip
		}
		return v <= c.Trip
	}
	if !pass(r.LastPass) {
		pt.Errorf("%s: LastPass %g does not pass (trip %g)", label, r.LastPass, c.Trip)
	}
	if pass(r.FirstFail) {
		pt.Errorf("%s: FirstFail %g passes (trip %g)", label, r.FirstFail, c.Trip)
	}
	if r.TripPoint != r.LastPass {
		pt.Errorf("%s: TripPoint %g != LastPass %g", label, r.TripPoint, r.LastPass)
	}
	if w := math.Abs(r.FirstFail - r.LastPass); w > c.Opt.Resolution*(1+1e-9) {
		pt.Errorf("%s: bracket width %g exceeds resolution %g", label, w, c.Opt.Resolution)
	}
	if r.LastPass < c.Opt.Lo || r.LastPass > c.Opt.Hi {
		pt.Errorf("%s: LastPass %g outside range [%g, %g]", label, r.LastPass, c.Opt.Lo, c.Opt.Hi)
	}
}

// TestSearchersAgreeOnBracket runs every refining searcher against the same
// generated surface — including SUTP with a reference drifted up to 20% of
// the range, beyond the narrow band of the cost claim — and checks each
// converges to a correct, resolution-tight bracket around the same trip
// point. Equivalence must survive large drift even when the cost saving
// does not (the accelerating steps "eventually cover the whole range").
func TestSearchersAgreeOnBracket(t *testing.T) {
	proptest.Check(t, 250, func(pt *proptest.T) {
		c := proptest.GenSUTPCase(pt, 0.2)
		pt.Logf("opt=%+v trip=%g rtp=%g", c.Opt, c.Trip, c.RTP)

		sutp := &search.SUTP{Refine: true}
		sutp.SetReference(c.RTP)
		searchers := []struct {
			label string
			s     search.Searcher
		}{
			{"binary", search.Binary{}},
			{"successive-approximation", search.SuccessiveApproximation{}},
			{"sutp", sutp},
		}
		trips := make([]float64, len(searchers))
		for i, sc := range searchers {
			r, err := sc.s.Search(c.Measurer(), c.Opt)
			if err != nil {
				pt.Fatalf("%s: %v", sc.label, err)
			}
			bracketInvariants(pt, sc.label, c, r)
			trips[i] = r.TripPoint
		}
		tol := c.Opt.Resolution * (1 + 1e-9)
		for i := 1; i < len(trips); i++ {
			if d := math.Abs(trips[i] - trips[0]); d > tol {
				pt.Errorf("%s and %s diverge: %g vs %g (Δ=%g)",
					searchers[i].label, searchers[0].label, trips[i], trips[0], d)
			}
		}
	})
}

// TestSUTPFirstSearchEstablishesReference pins the eq. 2 bookkeeping: with
// no reference, SUTP behaves exactly like its full-range initial method and
// records the found trip point as RTP for the next search, which then runs
// as it would on a fresh SUTP given that reference.
func TestSUTPFirstSearchEstablishesReference(t *testing.T) {
	proptest.Check(t, 200, func(pt *proptest.T) {
		c := proptest.GenSUTPCase(pt, 0.2)
		pt.Logf("opt=%+v trip=%g drifted=%g", c.Opt, c.Trip, c.RTP)

		sutp := &search.SUTP{}
		first, err := sutp.Search(c.Measurer(), c.Opt)
		if err != nil {
			pt.Fatalf("first search: %v", err)
		}
		direct, err := (search.SuccessiveApproximation{}).Search(c.Measurer(), c.Opt)
		if err != nil {
			pt.Fatalf("direct search: %v", err)
		}
		if first.TripPoint != direct.TripPoint || first.Measurements != direct.Measurements {
			pt.Errorf("first SUTP search (%g in %d) differs from initial method (%g in %d)",
				first.TripPoint, first.Measurements, direct.TripPoint, direct.Measurements)
		}
		if !first.Converged {
			pt.Fatalf("first search did not converge: %+v", first)
		}
		// The next device trips at the drifted point.
		drifted := c
		drifted.Trip = c.RTP
		next, err := sutp.Search(drifted.Measurer(), c.Opt)
		if err != nil {
			pt.Fatalf("next search: %v", err)
		}
		fresh := &search.SUTP{}
		fresh.SetReference(first.TripPoint)
		want, err := fresh.Search(drifted.Measurer(), c.Opt)
		if err != nil {
			pt.Fatalf("fresh search: %v", err)
		}
		if next != want {
			pt.Errorf("next search %+v, want %+v as from a fresh SUTP with reference %g",
				next, want, first.TripPoint)
		}
	})
}

// TestSUTPNoBoundaryDetection: when the whole range passes (or fails), the
// reference-anchored scan must report non-convergence with the documented
// endpoint semantics instead of inventing a trip point.
func TestSUTPNoBoundaryDetection(t *testing.T) {
	proptest.Check(t, 200, func(pt *proptest.T) {
		opt := proptest.GenSearchOptions(pt)
		rtp := pt.Float64Range(opt.Lo, opt.Hi)
		allPass := pt.Bool()
		pt.Logf("opt=%+v rtp=%g allPass=%v", opt, rtp, allPass)

		m := search.MeasurerFunc(func(float64) (bool, error) { return allPass, nil })
		sutp := &search.SUTP{Refine: true}
		sutp.SetReference(rtp)
		r, err := sutp.Search(m, opt)
		if err != nil {
			pt.Fatalf("search: %v", err)
		}
		if r.Converged {
			pt.Fatalf("converged on a boundary-free surface: %+v", r)
		}
		if r.TripPoint < opt.Lo || r.TripPoint > opt.Hi {
			pt.Errorf("non-converged trip point %g outside range", r.TripPoint)
		}
	})
}
