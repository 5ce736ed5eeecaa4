package neural

import (
	"math"
	"math/rand"
	"testing"
)

// xorData is the classic non-linearly-separable check.
func xorData() Dataset {
	return Dataset{
		{Input: []float64{0, 0}, Target: []float64{0}},
		{Input: []float64{0, 1}, Target: []float64{1}},
		{Input: []float64{1, 0}, Target: []float64{1}},
		{Input: []float64{1, 1}, Target: []float64{0}},
	}
}

func TestTrainLearnsXOR(t *testing.T) {
	n, err := New(3, 2, 6, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultTrainConfig(3)
	cfg.Epochs = 3000
	cfg.Patience = 3000
	cfg.LearningRate = 0.3
	rep, err := n.Train(xorData(), nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range xorData() {
		out, err := predict(n, s.Input)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(out[0]-s.Target[0]) > 0.3 {
			t.Errorf("XOR(%v) = %g, want %g (train err %g)", s.Input, out[0], s.Target[0], rep.TrainErr)
		}
	}
}

// syntheticRegression builds a smooth single-output regression task.
func syntheticRegression(seed int64, n int) Dataset {
	rng := rand.New(rand.NewSource(seed))
	d := make(Dataset, n)
	for i := range d {
		x := []float64{rng.Float64(), rng.Float64(), rng.Float64()}
		y := 0.3*x[0] + 0.5*x[1]*x[2] + 0.1
		d[i] = Sample{Input: x, Target: []float64{y}}
	}
	return d
}

func TestTrainReducesError(t *testing.T) {
	data := syntheticRegression(5, 200)
	train, val := data.Split(5, 0.8)
	n, _ := New(5, 3, 10, 1)
	before := n.EvaluateWith(n.NewScratch(), val)
	cfg := DefaultTrainConfig(5)
	cfg.Epochs = 100
	rep, err := n.Train(train, val, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ValErr >= before {
		t.Errorf("validation error did not improve: %g → %g", before, rep.ValErr)
	}
	if rep.Epochs == 0 || len(rep.ErrCurve) != rep.Epochs {
		t.Errorf("report curves inconsistent: %d epochs, %d curve points", rep.Epochs, len(rep.ErrCurve))
	}
}

func TestTrainEarlyStopOnTargets(t *testing.T) {
	data := syntheticRegression(7, 300)
	train, val := data.Split(7, 0.8)
	n, _ := New(7, 3, 12, 1)
	cfg := DefaultTrainConfig(7)
	cfg.Epochs = 2000
	cfg.LearnTarget = 1e-3
	cfg.GeneralizeTarget = 1e-3
	rep, err := n.Train(train, val, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Learned && rep.Generalized && rep.Epochs == 2000 {
		t.Error("targets met but training did not stop early")
	}
}

func TestTrainPatienceStops(t *testing.T) {
	// Pure noise targets cannot generalize: patience must abort training.
	rng := rand.New(rand.NewSource(11))
	data := make(Dataset, 60)
	for i := range data {
		data[i] = Sample{
			Input:  []float64{rng.Float64(), rng.Float64()},
			Target: []float64{rng.Float64()},
		}
	}
	train, val := data.Split(11, 0.7)
	n, _ := New(11, 2, 4, 1)
	cfg := DefaultTrainConfig(11)
	cfg.Epochs = 5000
	cfg.Patience = 10
	cfg.LearnTarget = 1e-12
	cfg.GeneralizeTarget = 1e-12
	rep, err := n.Train(train, val, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.StoppedEarly && rep.Epochs == 5000 {
		t.Error("noise dataset ran to the epoch cap despite patience")
	}
}

func TestTrainRestoresBestValidationSnapshot(t *testing.T) {
	data := syntheticRegression(13, 150)
	train, val := data.Split(13, 0.8)
	n, _ := New(13, 3, 8, 1)
	cfg := DefaultTrainConfig(13)
	cfg.Epochs = 150
	rep, err := n.Train(train, val, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got := n.EvaluateWith(n.NewScratch(), val)
	if math.Abs(got-rep.BestValErr) > 1e-9 {
		t.Errorf("final network val err %g, best snapshot was %g", got, rep.BestValErr)
	}
}

func TestDatasetValidate(t *testing.T) {
	if err := (Dataset{}).Validate(2, 1); err == nil {
		t.Error("empty dataset accepted")
	}
	bad := Dataset{{Input: []float64{1}, Target: []float64{1}}}
	if err := bad.Validate(2, 1); err == nil {
		t.Error("wrong input width accepted")
	}
	bad = Dataset{{Input: []float64{1, 2}, Target: []float64{}}}
	if err := bad.Validate(2, 1); err == nil {
		t.Error("wrong target width accepted")
	}
}

func TestTrainValidatesDatasets(t *testing.T) {
	n, _ := New(1, 2, 2, 1)
	bad := Dataset{{Input: []float64{1}, Target: []float64{1}}}
	if _, err := n.Train(bad, nil, DefaultTrainConfig(1)); err == nil {
		t.Error("mismatched training set accepted")
	}
	good := Dataset{{Input: []float64{1, 0}, Target: []float64{1}}}
	if _, err := n.Train(good, bad, DefaultTrainConfig(1)); err == nil {
		t.Error("mismatched validation set accepted")
	}
}

func TestSplitDisjointAndComplete(t *testing.T) {
	data := syntheticRegression(17, 100)
	train, val := data.Split(17, 0.8)
	if len(train) != 80 || len(val) != 20 {
		t.Errorf("split sizes %d/%d", len(train), len(val))
	}
	// Deterministic in the seed.
	train2, _ := data.Split(17, 0.8)
	for i := range train {
		if &train[i].Input[0] != &train2[i].Input[0] {
			t.Fatal("split not deterministic")
		}
	}
	// Degenerate fractions fall back to 0.8.
	tr, vl := data.Split(17, 1.5)
	if len(tr) != 80 || len(vl) != 20 {
		t.Error("degenerate fraction not defaulted")
	}
}

func TestSplitNeverEmptySides(t *testing.T) {
	d := syntheticRegression(19, 2)
	train, val := d.Split(19, 0.99)
	if len(train) == 0 || len(val) == 0 {
		t.Errorf("tiny dataset split %d/%d leaves a side empty", len(train), len(val))
	}
}

func TestBootstrapProperties(t *testing.T) {
	data := syntheticRegression(23, 50)
	b := data.Bootstrap(23)
	if len(b) != len(data) {
		t.Fatalf("bootstrap size %d", len(b))
	}
	b2 := data.Bootstrap(23)
	for i := range b {
		if &b[i].Input[0] != &b2[i].Input[0] {
			t.Fatal("bootstrap not deterministic in seed")
		}
	}
	b3 := data.Bootstrap(24)
	identical := true
	for i := range b {
		if &b[i].Input[0] != &b3[i].Input[0] {
			identical = false
			break
		}
	}
	if identical {
		t.Error("different bootstrap seeds produced the same resample")
	}
}
