package fuzzy

import (
	"math"
	"testing"
)

func tempVariable(t *testing.T) *Variable {
	t.Helper()
	v, err := AutoPartition("temp", 0, 100, []string{"cold", "mild", "hot"})
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestAutoPartitionStructure(t *testing.T) {
	v := tempVariable(t)
	if len(v.Terms) != 3 {
		t.Fatalf("terms = %d", len(v.Terms))
	}
	// Centers evenly spaced, shoulders at the ends.
	if v.Terms[0].Center != 0 || v.Terms[1].Center != 50 || v.Terms[2].Center != 100 {
		t.Errorf("centers: %g, %g, %g", v.Terms[0].Center, v.Terms[1].Center, v.Terms[2].Center)
	}
	if _, ok := v.Terms[0].MF.(ShoulderLeft); !ok {
		t.Error("first term is not a left shoulder")
	}
	if _, ok := v.Terms[2].MF.(ShoulderRight); !ok {
		t.Error("last term is not a right shoulder")
	}
	if _, ok := v.Terms[1].MF.(Triangular); !ok {
		t.Error("middle term is not triangular")
	}
}

func TestAutoPartitionErrors(t *testing.T) {
	if _, err := AutoPartition("x", 0, 1, []string{"only"}); err == nil {
		t.Error("single label accepted")
	}
	if _, err := AutoPartition("x", 5, 5, []string{"a", "b"}); err == nil {
		t.Error("empty universe accepted")
	}
}

func TestAutoPartitionIsPartitionOfUnity(t *testing.T) {
	// Evenly spaced triangles with end shoulders sum to 1 everywhere — the
	// standard property guaranteeing every value is fully represented.
	v := tempVariable(t)
	for x := 0.0; x <= 100; x += 0.7 {
		sum := 0.0
		for _, g := range v.Fuzzify(x) {
			sum += g
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("membership sum at %g = %g, want 1", x, sum)
		}
	}
}

func TestFuzzifyAndBestTerm(t *testing.T) {
	v := tempVariable(t)
	g := v.Fuzzify(25)
	if math.Abs(g[0]-0.5) > 1e-12 || math.Abs(g[1]-0.5) > 1e-12 || g[2] != 0 {
		t.Errorf("Fuzzify(25) = %v", g)
	}
	// 90 belongs mostly to the last term, "hot".
	g = v.Fuzzify(90)
	if g[2] <= 0.5 || g[2] <= g[0] || g[2] <= g[1] {
		t.Errorf("Fuzzify(90) = %v, want \"hot\" dominant", g)
	}
}

func TestDefuzzifyRoundTrip(t *testing.T) {
	// Weighted-centroid defuzzification of a fuzzified crisp value must
	// recover it closely inside the universe interior.
	v := tempVariable(t)
	for x := 10.0; x <= 90; x += 10 {
		got := v.Defuzzify(v.Fuzzify(x))
		if math.Abs(got-x) > 1e-9 {
			t.Errorf("round trip %g → %g", x, got)
		}
	}
}

func TestDefuzzifyZeroGrades(t *testing.T) {
	v := tempVariable(t)
	if got := v.Defuzzify([]float64{0, 0, 0}); got != 50 {
		t.Errorf("zero-grade defuzzify = %g, want universe midpoint", got)
	}
}

func TestCentroidDefuzzify(t *testing.T) {
	v := tempVariable(t)
	// Full activation of "hot" only: centroid must sit clearly above 50.
	got := v.CentroidDefuzzify([]float64{0, 0, 1}, 0)
	if got < 70 {
		t.Errorf("hot-only centroid = %g, want > 70", got)
	}
	// Symmetric activation of the two shoulders: centroid at the middle.
	got = v.CentroidDefuzzify([]float64{0.5, 0, 0.5}, 400)
	if math.Abs(got-50) > 1 {
		t.Errorf("symmetric centroid = %g, want ≈50", got)
	}
	if got := v.CentroidDefuzzify([]float64{0, 0, 0}, 0); got != 50 {
		t.Errorf("zero centroid = %g", got)
	}
}

func TestTermIndex(t *testing.T) {
	v := tempVariable(t)
	if v.TermIndex("mild") != 1 {
		t.Error("TermIndex(mild)")
	}
	if v.TermIndex("missing") != -1 {
		t.Error("TermIndex(missing)")
	}
}

func TestVariableValidate(t *testing.T) {
	bad := &Variable{Name: "x", Min: 0, Max: 1}
	if err := bad.Validate(); err == nil {
		t.Error("termless variable accepted")
	}
	dup := &Variable{Name: "x", Min: 0, Max: 1, Terms: []Term{
		{Name: "a", MF: ShoulderLeft{A: 0, B: 1}},
		{Name: "a", MF: ShoulderRight{A: 0, B: 1}},
	}}
	if err := dup.Validate(); err == nil {
		t.Error("duplicate term names accepted")
	}
	nilMF := &Variable{Name: "x", Min: 0, Max: 1, Terms: []Term{{Name: "a"}}}
	if err := nilMF.Validate(); err == nil {
		t.Error("nil membership accepted")
	}
}
