package neural

import (
	"math/rand"
	"testing"
)

// importanceDataset: target depends strongly on feature 0, weakly on
// feature 1, not at all on feature 2.
func importanceDataset(seed int64, n int) Dataset {
	rng := rand.New(rand.NewSource(seed))
	d := make(Dataset, n)
	for i := range d {
		x := []float64{rng.Float64(), rng.Float64(), rng.Float64()}
		y := 0.7*x[0] + 0.1*x[1] + 0.1
		d[i] = Sample{Input: x, Target: []float64{y}}
	}
	return d
}

func importanceEnsemble(t *testing.T) (*Ensemble, Dataset) {
	t.Helper()
	data := importanceDataset(5, 300)
	cfg := DefaultTrainConfig(5)
	cfg.Epochs = 120
	ens, _, err := NewEnsemble(nil, 5, 2, []int{3, 10, 1}, data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return ens, data
}

func TestPermutationImportanceRanksSignal(t *testing.T) {
	ens, data := importanceEnsemble(t)
	imps, err := PermutationImportance(ens, data, 7, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(imps) != 3 {
		t.Fatalf("%d importances", len(imps))
	}
	if imps[0].Feature != 0 {
		t.Errorf("most important feature is %d, want 0 (the 0.7-weight input)", imps[0].Feature)
	}
	if imps[0].DeltaMSE <= 0 {
		t.Errorf("dominant feature importance %g not positive", imps[0].DeltaMSE)
	}
	// The noise feature must rank last and carry ≈ no importance.
	last := imps[len(imps)-1]
	if last.Feature != 2 {
		t.Errorf("least important feature is %d, want the noise input 2", last.Feature)
	}
	if last.DeltaMSE > imps[0].DeltaMSE/5 {
		t.Errorf("noise feature importance %g not well below dominant %g", last.DeltaMSE, imps[0].DeltaMSE)
	}
}

func TestPermutationImportanceDoesNotMutateData(t *testing.T) {
	ens, data := importanceEnsemble(t)
	before := make([]float64, len(data))
	for i := range data {
		before[i] = data[i].Input[0]
	}
	if _, err := PermutationImportance(ens, data, 7, 2); err != nil {
		t.Fatal(err)
	}
	for i := range data {
		if data[i].Input[0] != before[i] {
			t.Fatal("importance computation mutated the dataset")
		}
	}
}

func TestPermutationImportanceValidation(t *testing.T) {
	ens, data := importanceEnsemble(t)
	if _, err := PermutationImportance(nil, data, 1, 1); err == nil {
		t.Error("nil ensemble accepted")
	}
	if _, err := PermutationImportance(ens, nil, 1, 1); err == nil {
		t.Error("empty data accepted")
	}
	bad := Dataset{{Input: []float64{1}, Target: []float64{1}}}
	if _, err := PermutationImportance(ens, bad, 1, 1); err == nil {
		t.Error("mismatched data accepted")
	}
}

func TestPermutationImportanceDeterministic(t *testing.T) {
	ens, data := importanceEnsemble(t)
	a, err := PermutationImportance(ens, data, 11, 2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := PermutationImportance(ens, data, 11, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("importance not deterministic in seed")
		}
	}
}
