package core

import (
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/ate"
	"repro/internal/dut"
	"repro/internal/fuzzy"
	"repro/internal/neural"
	"repro/internal/testgen"
)

// quickConfig returns a configuration small enough for unit tests but large
// enough to learn signal.
func quickConfig(seed int64) Config {
	cfg := DefaultConfig(seed)
	cfg.LearnTests = 120
	cfg.EnsembleSize = 2
	cfg.HiddenLayers = []int{12}
	cfg.CandidatePool = 300
	cfg.SeedCount = 10
	cfg.GA.PopSize = 10
	cfg.GA.Islands = 2
	cfg.GA.MaxGenerations = 10
	nominal := testgen.NominalConditions()
	cfg.FixedConditions = &nominal
	return cfg
}

func newTester(t *testing.T, seed int64) *ate.ATE {
	t.Helper()
	dev, err := dut.NewDevice(dut.DefaultGeometry(), dut.NewDie(0, dut.CornerTypical))
	if err != nil {
		t.Fatal(err)
	}
	return ate.New(dev, seed)
}

func learnedCharacterizer(t *testing.T, seed int64) (*Characterizer, *LearningResult) {
	t.Helper()
	char, err := NewCharacterizer(quickConfig(seed), newTester(t, seed))
	if err != nil {
		t.Fatal(err)
	}
	res, err := char.Learn()
	if err != nil {
		t.Fatal(err)
	}
	return char, res
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig(1).Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
	bad := DefaultConfig(1)
	bad.LearnTests = 1
	if err := bad.Validate(); err == nil {
		t.Error("tiny learning set accepted")
	}
	bad = DefaultConfig(1)
	bad.EnsembleSize = 0
	if err := bad.Validate(); err == nil {
		t.Error("empty ensemble accepted")
	}
	bad = DefaultConfig(1)
	bad.CandidatePool = 5
	bad.SeedCount = 10
	if err := bad.Validate(); err == nil {
		t.Error("pool smaller than seed count accepted")
	}
}

// TestConfigValidateRejectsUnknownParameter: a parameter outside the
// tester's table fails validation with an error naming it, so
// NewCharacterizer reports it instead of failing later in the coder.
func TestConfigValidateRejectsUnknownParameter(t *testing.T) {
	bad := DefaultConfig(1)
	bad.Parameter = ate.Parameter(7)
	for _, err := range []error{bad.Validate(), func() error {
		_, err := NewCharacterizer(bad, newTester(t, 1))
		return err
	}()} {
		if err == nil || !strings.Contains(err.Error(), "unknown parameter Parameter(7)") {
			t.Errorf("unknown parameter: got %v, want an error naming Parameter(7)", err)
		}
	}
}

func TestNewCharacterizerValidation(t *testing.T) {
	if _, err := NewCharacterizer(quickConfig(1), nil); err == nil {
		t.Error("nil ATE accepted")
	}
	bad := quickConfig(1)
	bad.SeedCount = 0
	if _, err := NewCharacterizer(bad, newTester(t, 1)); err == nil {
		t.Error("invalid config accepted")
	}
}

func TestLearnProducesEnsembleAndDSV(t *testing.T) {
	char, res := learnedCharacterizer(t, 41)
	if res.Ensemble == nil || res.Ensemble.Size() != 2 {
		t.Fatal("ensemble missing or wrong size")
	}
	if len(res.DSV.Values) != 120 {
		t.Errorf("DSV has %d measurements, want 120", len(res.DSV.Values))
	}
	if len(res.Dataset) < 100 {
		t.Errorf("dataset kept only %d samples", len(res.Dataset))
	}
	if len(res.Tests) != len(res.Dataset) {
		t.Error("tests and dataset misaligned")
	}
	if len(res.Reports) != 2 {
		t.Errorf("reports = %d", len(res.Reports))
	}
	if res.EnsembleValErr <= 0 || res.EnsembleValErr > 0.05 {
		t.Errorf("ensemble error %g implausible", res.EnsembleValErr)
	}
	if char.learned != res {
		t.Error("Learn did not keep its result")
	}
}

func TestLearnedNNPredictsSeverityOrdering(t *testing.T) {
	// The trained ensemble must rank a known-benign test clearly below a
	// known-aggressive test — the property the seed generator depends on.
	char, _ := learnedCharacterizer(t, 43)

	calm := make(testgen.Sequence, 200)
	for i := range calm {
		calm[i] = testgen.Vector{Op: testgen.OpRead, Addr: uint32(i % 64)}
	}
	calmSev := predictSeverity(t, char, testgen.Test{Name: "calm", Seq: calm, Cond: testgen.NominalConditions()})

	hot := make(testgen.Sequence, 400)
	for i := 0; i < 200; i++ {
		base := uint32(0)
		if i%2 == 1 {
			base = 4094
		}
		hot[2*i] = testgen.Vector{Op: testgen.OpWrite, Addr: base, Data: 0}
		hot[2*i+1] = testgen.Vector{Op: testgen.OpWrite, Addr: base + 1, Data: 0xFFFFFFFF}
	}
	hotSev := predictSeverity(t, char, testgen.Test{Name: "hot", Seq: hot, Cond: testgen.NominalConditions()})
	if hotSev <= calmSev {
		t.Errorf("NN severity ordering broken: aggressive %g ≤ benign %g", hotSev, calmSev)
	}
}

// predictSeverity scores one test the way ProposeSeeds scores each
// candidate: the learned ensemble's vote on its features, decoded by the
// trip-point coder.
func predictSeverity(t *testing.T, char *Characterizer, tt testgen.Test) float64 {
	t.Helper()
	ens := char.learned.Ensemble
	pred, _, err := ens.VoteInto(ens.NewScratch(), testgen.ExtractFeatures(tt, char.gen.Limits()))
	if err != nil {
		t.Fatal(err)
	}
	return char.coder.Severity(pred)
}

func TestProposeSeedsRequiresLearning(t *testing.T) {
	char, err := NewCharacterizer(quickConfig(1), newTester(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := char.ProposeSeeds(); err == nil {
		t.Error("seed proposal before learning accepted")
	}
}

func TestWeightFilePersistence(t *testing.T) {
	char, _ := learnedCharacterizer(t, 47)
	path := filepath.Join(t.TempDir(), "nn.json")
	if err := char.SaveWeights(path); err != nil {
		t.Fatal(err)
	}

	// A fresh characterizer (no learning) loads the weight file and can
	// propose seeds purely in software.
	char2, err := NewCharacterizer(quickConfig(47), newTester(t, 48))
	if err != nil {
		t.Fatal(err)
	}
	if err := char2.LoadWeights(path); err != nil {
		t.Fatal(err)
	}
	seeds, err := char2.ProposeSeeds()
	if err != nil {
		t.Fatal(err)
	}
	if len(seeds) != quickConfig(47).SeedCount {
		t.Errorf("proposed %d seeds", len(seeds))
	}
}

func TestLoadWeightsRejectsWrongParameter(t *testing.T) {
	char, _ := learnedCharacterizer(t, 49)
	path := filepath.Join(t.TempDir(), "nn.json")
	if err := char.SaveWeights(path); err != nil {
		t.Fatal(err)
	}
	cfg := quickConfig(49)
	cfg.Parameter = ate.Fmax
	other, err := NewCharacterizer(cfg, newTester(t, 49))
	if err != nil {
		t.Fatal(err)
	}
	if err := other.LoadWeights(path); err == nil {
		t.Error("T_DQ weight file accepted by an Fmax flow")
	}
}

func TestSaveWeightsBeforeLearning(t *testing.T) {
	char, err := NewCharacterizer(quickConfig(1), newTester(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := char.SaveWeights(filepath.Join(t.TempDir(), "x.json")); err == nil {
		t.Error("saving before learning accepted")
	}
}

func TestNumericCodingAlsoLearns(t *testing.T) {
	cfg := quickConfig(53)
	cfg.Coding = fuzzy.CodingNumeric
	char, err := NewCharacterizer(cfg, newTester(t, 53))
	if err != nil {
		t.Fatal(err)
	}
	res, err := char.Learn()
	if err != nil {
		t.Fatal(err)
	}
	if res.Ensemble.Outputs() != 1 {
		t.Errorf("numeric coding output width %d, want 1", res.Ensemble.Outputs())
	}
}

// TestLearnedImportanceNamesActivityFeatures cross-checks the black-box NN
// against the physics: permutation importance of the trained ensemble must
// rank switching-activity features above the sequence-length bookkeeping
// feature.
func TestLearnedImportanceNamesActivityFeatures(t *testing.T) {
	if testing.Short() {
		t.Skip("full learning")
	}
	_, res := learnedCharacterizer(t, 55)
	imps, err := neural.PermutationImportance(res.Ensemble, res.Dataset, 55, 3)
	if err != nil {
		t.Fatal(err)
	}
	rank := make(map[int]int, len(imps))
	for i, im := range imps {
		rank[im.Feature] = i
	}
	activity := []int{testgen.FeatTogglePeak, testgen.FeatToggleMean}
	for _, f := range activity {
		if rank[f] > rank[testgen.FeatSeqLen] {
			t.Errorf("feature %s ranks below seq_len — NN not using activity signal",
				testgen.FeatureNames()[f])
		}
	}
}

func TestCoderAccessor(t *testing.T) {
	char, err := NewCharacterizer(quickConfig(1), newTester(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	coder := char.coder
	if coder == nil {
		t.Fatal("nil coder")
	}
	if spec := quickConfig(1).Parameter.Spec(); coder.Spec != spec {
		t.Errorf("coder spec %+v, want %+v", coder.Spec, spec)
	}
}
