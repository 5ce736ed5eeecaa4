package fuzzy

import (
	"math"
	"testing"
	"testing/quick"
)

func TestTriangular(t *testing.T) {
	tri := Triangular{A: 0, B: 5, C: 10}
	cases := []struct{ x, want float64 }{
		{-1, 0}, {0, 0}, {2.5, 0.5}, {5, 1}, {7.5, 0.5}, {10, 0}, {11, 0},
	}
	for _, c := range cases {
		if got := tri.Grade(c.x); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Triangular.Grade(%g) = %g, want %g", c.x, got, c.want)
		}
	}
}

func TestShoulders(t *testing.T) {
	l := ShoulderLeft{A: 2, B: 4}
	if l.Grade(1) != 1 || l.Grade(2) != 1 || l.Grade(3) != 0.5 || l.Grade(5) != 0 {
		t.Error("left shoulder wrong")
	}
	r := ShoulderRight{A: 2, B: 4}
	if r.Grade(1) != 0 || r.Grade(3) != 0.5 || r.Grade(4) != 1 || r.Grade(5) != 1 {
		t.Error("right shoulder wrong")
	}
}

func TestMembershipUnitRangeProperty(t *testing.T) {
	mfs := []Membership{
		Triangular{A: 0, B: 1, C: 2},
		ShoulderLeft{A: 0, B: 1},
		ShoulderRight{A: 0, B: 1},
	}
	f := func(x float64) bool {
		for _, mf := range mfs {
			g := mf.Grade(x)
			if g < 0 || g > 1 || math.IsNaN(g) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
