package wcr

import (
	"math"
	"testing"
	"testing/quick"
)

func TestClassify(t *testing.T) {
	cases := []struct {
		w    float64
		want Class
	}{
		{0, Pass}, {0.5, Pass}, {0.8, Pass},
		{0.80001, Weakness}, {0.9, Weakness}, {1.0, Weakness},
		{1.00001, Fail}, {2, Fail},
	}
	for _, c := range cases {
		if got := Classify(c.w); got != c.want {
			t.Errorf("Classify(%g) = %v, want %v", c.w, got, c.want)
		}
	}
}

func TestClassString(t *testing.T) {
	if Pass.String() != "pass" || Weakness.String() != "weakness" || Fail.String() != "fail" {
		t.Error("class names")
	}
	if Class(7).String() != "Class(7)" {
		t.Error("unknown class name")
	}
}

func TestTable1Values(t *testing.T) {
	// The exact WCR arithmetic of Table 1 (eq. 6, vmin = 20 ns).
	cases := []struct {
		tdq, want float64
	}{
		{32.3, 0.619}, {28.5, 0.701}, {22.1, 0.904},
	}
	for _, c := range cases {
		if got := ForMin(c.tdq, 20); math.Abs(got-c.want) > 0.002 {
			t.Errorf("ForMin(%g, 20) = %.3f, want %.3f", c.tdq, got, c.want)
		}
	}
}

func TestForMaxAndMinEdgeCases(t *testing.T) {
	if got := ForMax(0, 0); got != 0 {
		t.Errorf("ForMax(0,0) = %g", got)
	}
	if got := ForMax(1, 0); !math.IsInf(got, 1) {
		t.Errorf("ForMax(1,0) = %g, want +Inf", got)
	}
	if got := ForMin(0, 0); got != 0 {
		t.Errorf("ForMin(0,0) = %g", got)
	}
	if got := ForMin(0, 1); !math.IsInf(got, 1) {
		t.Errorf("ForMin(0,1) = %g, want +Inf", got)
	}
	// Sign is ignored (the paper takes absolute values).
	if got := ForMax(-5, 10); got != 0.5 {
		t.Errorf("ForMax(-5,10) = %g", got)
	}
}

func TestSpecWCRSelectsEquation(t *testing.T) {
	if (Spec{Limit: 20, Min: true}).WCR(25) != ForMin(25, 20) {
		t.Error("minimum spec does not use eq. 6")
	}
	if (Spec{Limit: 20}).WCR(25) != ForMax(25, 20) {
		t.Error("maximum spec does not use eq. 5")
	}
}

// specs are a minimum and a maximum spec, T_DQ's and Vddmin's.
var specs = []Spec{{Limit: 20, Min: true}, {Limit: 1.62}}

func TestSpecWorseIsStrictAndFlipsWithDirection(t *testing.T) {
	for _, s := range specs {
		lo, hi := s.Limit*0.9, s.Limit*1.1
		if s.Worse(lo, lo) || s.Worse(s.Limit, s.Limit) {
			t.Errorf("%s spec: an equal value is worse", s.Kind())
		}
		if s.Worse(lo, hi) != s.Min || s.Worse(hi, lo) == s.Min {
			t.Errorf("%s spec: Worse(%g, %g) = %v, Worse(%g, %g) = %v", s.Kind(), lo, hi, s.Worse(lo, hi), hi, lo, s.Worse(hi, lo))
		}
		// Worse agrees with the WCR: the worse value has the larger ratio.
		if s.Worse(lo, hi) != (s.WCR(lo) > s.WCR(hi)) {
			t.Errorf("%s spec: Worse disagrees with WCR", s.Kind())
		}
	}
}

func TestSpecWorstStartIsBeatenByEveryFiniteValue(t *testing.T) {
	for _, s := range specs {
		start := s.WorstStart()
		for _, v := range []float64{-math.MaxFloat64, -1, 0, s.Limit, 1e300, math.MaxFloat64} {
			if !s.Worse(v, start) {
				t.Errorf("%s spec: %g is not worse than the running-worst start %g", s.Kind(), v, start)
			}
		}
	}
}

func TestSpecValueInvertsWCR(t *testing.T) {
	if got := (Spec{Limit: 20, Min: true}).Value(0.904); got < 22.0 || got > 22.3 {
		t.Errorf("min-spec inversion: %g, want ≈22.12", got)
	}
	if got := (Spec{Limit: 20}).Value(0.5); got != 10 {
		t.Errorf("max-spec inversion: %g, want 10", got)
	}
	for _, s := range specs {
		if got := s.Value(0); got != 0 {
			t.Errorf("%s spec: zero WCR inverts to %g", s.Kind(), got)
		}
		for _, v := range []float64{0.01, 1, s.Limit, 17.3, 1e6} {
			if got := s.Value(s.WCR(v)); math.Abs(got-v) > 1e-12*v {
				t.Errorf("%s spec: Value(WCR(%g)) = %g", s.Kind(), v, got)
			}
		}
	}
}

func TestSpecGuardBandMovesTowardPassSide(t *testing.T) {
	for _, s := range specs {
		for _, frac := range []float64{0.01, 0.05, 0.5} {
			tight := s.GuardBand(s.Limit, frac)
			if !s.Worse(s.Limit, tight) || s.WCR(tight) >= 1 {
				t.Errorf("%s spec: limit %g guard-banded by %g to %g, not toward the pass side", s.Kind(), s.Limit, frac, tight)
			}
			if loose := s.GuardBand(s.Limit, -frac); !s.Worse(loose, s.Limit) {
				t.Errorf("%s spec: a negative fraction %g moved the limit to %g, not toward the fail side", s.Kind(), -frac, loose)
			}
		}
		if got := s.GuardBand(s.Limit, 0); got != s.Limit {
			t.Errorf("%s spec: a zero guard band moved the limit to %g", s.Kind(), got)
		}
	}
}

func TestWCRCrossesOneAtSpecProperty(t *testing.T) {
	// WCR > 1 iff the value violates the spec, for both directions.
	f := func(raw float64) bool {
		v := 0.1 + math.Abs(math.Mod(raw, 100))
		const spec = 20.0
		minViolated := v < spec
		if (ForMin(v, spec) > 1) != minViolated {
			return false
		}
		maxViolated := v > spec
		return (ForMax(v, spec) > 1) == maxViolated
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRankingWorstAndSort(t *testing.T) {
	r := NewRanking(Spec{Limit: 20, Min: true})
	r.Add("good", 33)
	r.Add("weak", 22)
	r.Add("bad", 19)
	worst, ok := r.Worst()
	if !ok || worst.Name != "bad" {
		t.Fatalf("Worst = %+v, %v", worst, ok)
	}
	if r.Entries[0].Class != Pass || r.Entries[1].Class != Weakness || r.Entries[2].Class != Fail {
		t.Error("entry classes wrong")
	}
}

func TestRankingEmpty(t *testing.T) {
	r := NewRanking(Spec{Limit: 20, Min: true})
	if _, ok := r.Worst(); ok {
		t.Error("empty ranking has a worst entry")
	}
}

func TestCountByClass(t *testing.T) {
	r := NewRanking(Spec{Limit: 20, Min: true})
	r.Add("a", 33)
	r.Add("b", 30)
	r.Add("c", 22)
	r.Add("d", 18)
	got := r.CountByClass()
	if got[Pass] != 2 || got[Weakness] != 1 || got[Fail] != 1 {
		t.Errorf("CountByClass = %v", got)
	}
}
