package neural

import (
	"math"
	"testing"
)

func TestTrainGALearnsXOR(t *testing.T) {
	n, err := New(5, 2, 6, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultGATrainConfig(5)
	cfg.Generations = 400
	cfg.TargetErr = 0.01
	rep, err := n.TrainGA(xorData(), nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.TrainErr > 0.05 {
		t.Fatalf("GA training error %.4f after %d generations", rep.TrainErr, rep.Epochs)
	}
	for _, s := range xorData() {
		out, err := predict(n, s.Input)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(out[0]-s.Target[0]) > 0.35 {
			t.Errorf("XOR(%v) = %g, want %g", s.Input, out[0], s.Target[0])
		}
	}
}

func TestTrainGAImprovesOverInit(t *testing.T) {
	data := syntheticRegression(9, 100)
	train, val := data.Split(9, 0.8)
	n, _ := New(9, 3, 8, 1)
	before := n.EvaluateWith(n.NewScratch(), val)
	cfg := DefaultGATrainConfig(9)
	cfg.Generations = 60
	rep, err := n.TrainGA(train, val, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ValErr >= before {
		t.Errorf("GA training did not improve validation error: %g → %g", before, rep.ValErr)
	}
}

func TestTrainGATargetStopsEarly(t *testing.T) {
	n, _ := New(11, 2, 6, 1)
	cfg := DefaultGATrainConfig(11)
	cfg.Generations = 2000
	cfg.TargetErr = 0.2 // easy
	rep, err := n.TrainGA(xorData(), nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Epochs == 2000 {
		t.Error("ran to cap despite easy target")
	}
}

func TestTrainGAValidatesData(t *testing.T) {
	n, _ := New(1, 2, 2, 1)
	bad := Dataset{{Input: []float64{1}, Target: []float64{1}}}
	if _, err := n.TrainGA(bad, nil, DefaultGATrainConfig(1)); err == nil {
		t.Error("mismatched dataset accepted")
	}
}

func TestFlattenUnflattenRoundTrip(t *testing.T) {
	n, _ := New(13, 3, 5, 2)
	genes := n.flatten()
	if len(genes) != n.ChromosomeLen() {
		t.Fatalf("chromosome length %d vs %d", len(genes), n.ChromosomeLen())
	}
	want := (3*5 + 5) + (5*2 + 2)
	if len(genes) != want {
		t.Fatalf("chromosome length %d, want %d", len(genes), want)
	}
	in := []float64{0.1, 0.2, 0.3}
	before, _ := predict(n, in)
	c := n.Clone()
	c.unflatten(genes)
	after, _ := predict(c, in)
	for i := range before {
		if before[i] != after[i] {
			t.Fatal("flatten/unflatten changed predictions")
		}
	}
}

func TestTrainGADeterministic(t *testing.T) {
	run := func() float64 {
		n, _ := New(17, 2, 4, 1)
		cfg := DefaultGATrainConfig(17)
		cfg.Generations = 30
		rep, err := n.TrainGA(xorData(), nil, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return rep.TrainErr
	}
	if a, b := run(), run(); a != b {
		t.Errorf("same-seed GA training diverged: %g vs %g", a, b)
	}
}
