package neural

import (
	"math"
	"testing"
	"testing/quick"
)

// predict runs n on one input through a fresh scratch arena.
func predict(n *Network, in []float64) ([]float64, error) {
	out := make([]float64, n.Outputs())
	if err := n.PredictInto(n.NewScratch(), in, out); err != nil {
		return nil, err
	}
	return out, nil
}

// vote runs the ensemble on one input through a fresh scratch arena, so the
// returned prediction is the caller's to keep.
func vote(e *Ensemble, in []float64) ([]float64, float64, error) {
	return e.VoteInto(e.NewScratch(), in)
}

func TestNewValidation(t *testing.T) {
	if _, err := New(1, 4); err == nil {
		t.Error("single-layer network accepted")
	}
	if _, err := New(1, 4, 0, 2); err == nil {
		t.Error("zero-width layer accepted")
	}
	n, err := New(1, 4, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	if n.Inputs() != 4 || n.Outputs() != 2 {
		t.Errorf("widths: %d → %d", n.Inputs(), n.Outputs())
	}
}

func TestPredictWidthCheck(t *testing.T) {
	n, _ := New(1, 3, 2)
	if _, err := predict(n, []float64{1, 2}); err == nil {
		t.Error("wrong input width accepted")
	}
}

func TestPredictDeterministicAndSeeded(t *testing.T) {
	a, _ := New(42, 4, 6, 2)
	b, _ := New(42, 4, 6, 2)
	c, _ := New(43, 4, 6, 2)
	in := []float64{0.1, 0.5, 0.9, 0.3}
	pa, _ := predict(a, in)
	pb, _ := predict(b, in)
	pc, _ := predict(c, in)
	for i := range pa {
		if pa[i] != pb[i] {
			t.Fatal("same seed, different predictions")
		}
	}
	same := true
	for i := range pa {
		if pa[i] != pc[i] {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical networks")
	}
}

func TestSigmoidOutputRange(t *testing.T) {
	n, _ := New(7, 5, 8, 3)
	f := func(a, b, c, d, e float64) bool {
		in := []float64{clip(a), clip(b), clip(c), clip(d), clip(e)}
		out, err := predict(n, in)
		if err != nil {
			return false
		}
		for _, v := range out {
			if v < 0 || v > 1 || math.IsNaN(v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func clip(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return math.Mod(v, 1)
}

func TestMSE(t *testing.T) {
	if got := MSE([]float64{1, 2}, []float64{1, 2}); got != 0 {
		t.Errorf("identical MSE = %g", got)
	}
	if got := MSE([]float64{0, 0}, []float64{1, 1}); got != 1 {
		t.Errorf("unit MSE = %g", got)
	}
	if got := MSE(nil, nil); got != 0 {
		t.Errorf("empty MSE = %g", got)
	}
}

func TestCloneIndependence(t *testing.T) {
	n, _ := New(1, 3, 4, 2)
	c := n.Clone()
	in := []float64{0.2, 0.4, 0.6}
	before, _ := predict(n, in)
	// Mutate the clone's weights directly.
	c.layers[0].w[0] += 10
	after, _ := predict(n, in)
	for i := range before {
		if before[i] != after[i] {
			t.Fatal("mutating a clone changed the original")
		}
	}
	if got := c.Sizes(); got[0] != 3 || got[1] != 4 || got[2] != 2 {
		t.Errorf("clone sizes %v", got)
	}
}

func TestActivationStringsAndDerivs(t *testing.T) {
	if ActTanh.String() != "tanh" || ActSigmoid.String() != "sigmoid" || ActLinear.String() != "linear" {
		t.Error("activation names")
	}
	// Derivative identities expressed on outputs.
	y := ActSigmoid.apply(0.3)
	if math.Abs(ActSigmoid.derivFromOutput(y)-y*(1-y)) > 1e-12 {
		t.Error("sigmoid derivative")
	}
	ty := ActTanh.apply(0.3)
	if math.Abs(ActTanh.derivFromOutput(ty)-(1-ty*ty)) > 1e-12 {
		t.Error("tanh derivative")
	}
	if ActLinear.derivFromOutput(5) != 1 {
		t.Error("linear derivative")
	}
}

func TestXavierInitBounded(t *testing.T) {
	n, _ := New(9, 10, 20, 5)
	for li, l := range n.layers {
		limit := math.Sqrt(6/float64(l.in+l.out)) + 1e-12
		for _, w := range l.w {
			if math.Abs(w) > limit {
				t.Fatalf("layer %d weight %g beyond Xavier limit %g", li, w, limit)
			}
		}
		for _, b := range l.b {
			if b != 0 {
				t.Fatalf("layer %d bias %g, want 0 init", li, b)
			}
		}
	}
}
