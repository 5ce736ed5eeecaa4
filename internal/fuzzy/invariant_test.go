// Property-based invariants for the fuzzy layer, generated by
// internal/proptest: every membership grade lives in [0, 1], AutoPartition
// variables form a partition of unity over their whole universe, term
// dominance moves monotonically with the crisp input, and both
// defuzzifiers stay inside the universe and invert Fuzzify at term
// centers.
package fuzzy_test

import (
	"math"
	"sort"
	"testing"

	"repro/internal/fuzzy"
	"repro/internal/proptest"
)

// genMembership draws an arbitrary valid membership function of any shape.
func genMembership(pt *proptest.T) fuzzy.Membership {
	a := pt.Float64Range(-100, 100)
	w := func() float64 { return pt.Float64Range(0.01, 50) }
	switch pt.Intn(3) {
	case 0:
		b := a + w()
		return fuzzy.Triangular{A: a, B: b, C: b + w()}
	case 1:
		return fuzzy.ShoulderLeft{A: a, B: a + w()}
	default:
		return fuzzy.ShoulderRight{A: a, B: a + w()}
	}
}

func TestMembershipGradesStayInUnitInterval(t *testing.T) {
	proptest.Check(t, 400, func(pt *proptest.T) {
		mf := genMembership(pt)
		x := pt.FiniteFloat()
		pt.Logf("mf=%#v x=%g", mf, x)
		g := mf.Grade(x)
		if math.IsNaN(g) || g < 0 || g > 1 {
			pt.Errorf("grade %g outside [0, 1]", g)
		}
	})
}

// TestAutoPartitionPartitionOfUnity: the uniform triangular/shoulder
// partition the encoder variables are built from must sum to exactly one
// everywhere in the universe — the property that makes the graded encoding
// lossless in total activation.
func TestAutoPartitionPartitionOfUnity(t *testing.T) {
	proptest.Check(t, 300, func(pt *proptest.T) {
		v := proptest.GenFuzzyVariable(pt)
		x := pt.Float64Range(v.Min, v.Max)
		pt.Logf("var=%s universe=[%g, %g] terms=%d x=%g", v.Name, v.Min, v.Max, len(v.Terms), x)

		grades := v.Fuzzify(x)
		sum := 0.0
		active := 0
		for _, g := range grades {
			if g < 0 || g > 1 {
				pt.Errorf("grade %g outside [0, 1]", g)
			}
			if g > 0 {
				active++
			}
			sum += g
		}
		if math.Abs(sum-1) > 1e-9 {
			pt.Errorf("grades sum to %.12g, want 1 ± 1e-9", sum)
		}
		if active == 0 || active > 2 {
			pt.Errorf("%d terms active at x=%g, want 1 or 2 (uniform partition overlap)", active, x)
		}
	})
}

// bestTerm returns the index and grade of x's highest-graded term; ties
// resolve to the earliest term.
func bestTerm(v *fuzzy.Variable, x float64) (int, float64) {
	best, bg := 0, -1.0
	for i, g := range v.Fuzzify(x) {
		if g > bg {
			best, bg = i, g
		}
	}
	return best, bg
}

// TestBestTermMonotoneInInput: sweeping the crisp input upward through an
// AutoPartition universe, the dominating term index never moves backward —
// "larger value" never re-activates a "smaller" linguistic label.
func TestBestTermMonotoneInInput(t *testing.T) {
	proptest.Check(t, 300, func(pt *proptest.T) {
		v := proptest.GenFuzzyVariable(pt)
		n := pt.IntRange(2, 40)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = pt.Float64Range(v.Min, v.Max)
		}
		sort.Float64s(xs)
		pt.Logf("var=%s universe=[%g, %g] terms=%d sweep=%d points", v.Name, v.Min, v.Max, len(v.Terms), n)

		prevIdx, prevX := -1, 0.0
		for _, x := range xs {
			idx, grade := bestTerm(v, x)
			if grade < 0.5-1e-9 {
				// In a partition of unity the dominant term always holds at
				// least half the activation.
				pt.Errorf("best term %q at x=%g has grade %g < 0.5", v.Terms[idx].Name, x, grade)
			}
			if idx < prevIdx {
				pt.Errorf("best term moved backward: %q (index %d) at x=%g after index %d at x=%g",
					v.Terms[idx].Name, idx, x, prevIdx, prevX)
			}
			prevIdx, prevX = idx, x
		}
	})
}

// TestShoulderAndTriangleMonotoneSlopes pins the directional monotonicity
// of each membership shape on a sorted random sweep: ShoulderLeft grades
// never increase with x, ShoulderRight grades never decrease, and a
// triangle is unimodal (non-decreasing up to the apex, non-increasing
// after).
func TestShoulderAndTriangleMonotoneSlopes(t *testing.T) {
	proptest.Check(t, 300, func(pt *proptest.T) {
		a := pt.Float64Range(-100, 100)
		w1 := pt.Float64Range(0.01, 50)
		w2 := pt.Float64Range(0.01, 50)
		left := fuzzy.ShoulderLeft{A: a, B: a + w1}
		right := fuzzy.ShoulderRight{A: a, B: a + w1}
		tri := fuzzy.Triangular{A: a, B: a + w1, C: a + w1 + w2}

		n := pt.IntRange(2, 50)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = pt.Float64Range(a-10, a+w1+w2+10)
		}
		sort.Float64s(xs)
		pt.Logf("a=%g w1=%g w2=%g sweep=%d points", a, w1, w2, n)

		for i := 1; i < n; i++ {
			if left.Grade(xs[i]) > left.Grade(xs[i-1])+1e-12 {
				pt.Errorf("ShoulderLeft grade rose from %g to %g across x=%g→%g",
					left.Grade(xs[i-1]), left.Grade(xs[i]), xs[i-1], xs[i])
			}
			if right.Grade(xs[i]) < right.Grade(xs[i-1])-1e-12 {
				pt.Errorf("ShoulderRight grade fell from %g to %g across x=%g→%g",
					right.Grade(xs[i-1]), right.Grade(xs[i]), xs[i-1], xs[i])
			}
			lo, hi := xs[i-1], xs[i]
			switch {
			case hi <= tri.B:
				if tri.Grade(hi) < tri.Grade(lo)-1e-12 {
					pt.Errorf("triangle fell on the rising flank: %g→%g across x=%g→%g",
						tri.Grade(lo), tri.Grade(hi), lo, hi)
				}
			case lo >= tri.B:
				if tri.Grade(hi) > tri.Grade(lo)+1e-12 {
					pt.Errorf("triangle rose on the falling flank: %g→%g across x=%g→%g",
						tri.Grade(lo), tri.Grade(hi), lo, hi)
				}
			}
		}
	})
}

// TestDefuzzifyStaysInUniverse: both defuzzifiers map any non-negative
// grade vector into [Min, Max], and at a term's center the
// Fuzzify→Defuzzify round trip returns the center (the partition is exact
// at its anchor points).
func TestDefuzzifyStaysInUniverse(t *testing.T) {
	proptest.Check(t, 300, func(pt *proptest.T) {
		v := proptest.GenFuzzyVariable(pt)
		grades := make([]float64, len(v.Terms))
		for i := range grades {
			grades[i] = pt.Float64Range(0, 1)
		}
		pt.Logf("var=%s universe=[%g, %g] grades=%v", v.Name, v.Min, v.Max, grades)

		crisp := v.Defuzzify(grades)
		if crisp < v.Min || crisp > v.Max || math.IsNaN(crisp) {
			pt.Errorf("Defuzzify(%v) = %g outside universe [%g, %g]", grades, crisp, v.Min, v.Max)
		}
		centroid := v.CentroidDefuzzify(grades, 64)
		if centroid < v.Min || centroid > v.Max || math.IsNaN(centroid) {
			pt.Errorf("CentroidDefuzzify(%v) = %g outside universe [%g, %g]", grades, centroid, v.Min, v.Max)
		}

		term := v.Terms[pt.Intn(len(v.Terms))]
		back := v.Defuzzify(v.Fuzzify(term.Center))
		if math.Abs(back-term.Center) > 1e-9*(math.Abs(term.Center)+1) {
			pt.Errorf("round trip at center of %q: %g, want %g", term.Name, back, term.Center)
		}
	})
}
