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

func TestForSelectsEquation(t *testing.T) {
	if For(25, 20, true) != ForMin(25, 20) {
		t.Error("For(min) mismatch")
	}
	if For(25, 20, false) != ForMax(25, 20) {
		t.Error("For(max) mismatch")
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
	r := NewRanking(20, true)
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
	r := NewRanking(20, true)
	if _, ok := r.Worst(); ok {
		t.Error("empty ranking has a worst entry")
	}
}

func TestCountByClass(t *testing.T) {
	r := NewRanking(20, true)
	r.Add("a", 33)
	r.Add("b", 30)
	r.Add("c", 22)
	r.Add("d", 18)
	got := r.CountByClass()
	if got[Pass] != 2 || got[Weakness] != 1 || got[Fail] != 1 {
		t.Errorf("CountByClass = %v", got)
	}
}
