package neural

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"testing"
)

func trainedEnsemble(t *testing.T, members int) (*Ensemble, Dataset) {
	t.Helper()
	data := syntheticRegression(31, 200)
	cfg := DefaultTrainConfig(31)
	cfg.Epochs = 60
	e, reports, err := NewEnsemble(nil, 31, members, []int{3, 8, 1}, data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != members {
		t.Fatalf("reports = %d", len(reports))
	}
	return e, data
}

func TestEnsembleSizeValidation(t *testing.T) {
	if _, _, err := NewEnsemble(nil, 1, 0, []int{2, 1}, xorData(), DefaultTrainConfig(1)); err == nil {
		t.Error("zero-member ensemble accepted")
	}
}

func TestEnsembleVote(t *testing.T) {
	e, data := trainedEnsemble(t, 3)
	if e.Size() != 3 {
		t.Fatalf("size = %d", e.Size())
	}
	avg, conf, err := vote(e, data[0].Input)
	if err != nil {
		t.Fatal(err)
	}
	if len(avg) != 1 {
		t.Fatalf("vote width %d", len(avg))
	}
	if conf <= 0 || conf > 1 {
		t.Errorf("confidence %g outside (0, 1]", conf)
	}
	// The average must lie within the span of member predictions.
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, m := range e.Members() {
		p, err := predict(m, data[0].Input)
		if err != nil {
			t.Fatal(err)
		}
		lo = math.Min(lo, p[0])
		hi = math.Max(hi, p[0])
	}
	if avg[0] < lo-1e-12 || avg[0] > hi+1e-12 {
		t.Errorf("vote %g outside member span [%g, %g]", avg[0], lo, hi)
	}
}

func TestEnsembleConfidenceReflectsAgreement(t *testing.T) {
	// A single-member ensemble is always unanimous.
	e, data := trainedEnsemble(t, 1)
	_, conf, err := vote(e, data[0].Input)
	if err != nil {
		t.Fatal(err)
	}
	if conf != 1 {
		t.Errorf("single-member confidence %g, want 1", conf)
	}
}

func TestEnsembleEvaluate(t *testing.T) {
	e, data := trainedEnsemble(t, 3)
	errv, err := e.EvaluateWith(e.NewScratch(), data)
	if err != nil {
		t.Fatal(err)
	}
	if errv <= 0 || errv > 0.1 {
		t.Errorf("ensemble error %g implausible for the smooth task", errv)
	}
	zero, err := e.EvaluateWith(e.NewScratch(), nil)
	if err != nil || zero != 0 {
		t.Error("empty evaluate")
	}
}

func TestFromNetworksShapeCheck(t *testing.T) {
	a, _ := New(1, 2, 3, 1)
	b, _ := New(2, 2, 3, 1)
	if _, err := FromNetworks([]*Network{a, b}); err != nil {
		t.Errorf("matching shapes rejected: %v", err)
	}
	c, _ := New(3, 3, 3, 1)
	if _, err := FromNetworks([]*Network{a, c}); err == nil {
		t.Error("mismatched input widths accepted")
	}
	if _, err := FromNetworks(nil); err == nil {
		t.Error("empty ensemble accepted")
	}
}

func TestWeightFileRoundTrip(t *testing.T) {
	e, data := trainedEnsemble(t, 2)
	var buf bytes.Buffer
	meta := map[string]string{"parameter": "T_DQ"}
	if err := e.Save(&buf, meta); err != nil {
		t.Fatal(err)
	}
	loaded, gotMeta, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if gotMeta["parameter"] != "T_DQ" {
		t.Errorf("metadata lost: %v", gotMeta)
	}
	if loaded.Size() != 2 {
		t.Fatalf("loaded size %d", loaded.Size())
	}
	// Loaded ensemble must predict identically.
	for _, s := range data[:10] {
		a, _, err := vote(e, s.Input)
		if err != nil {
			t.Fatal(err)
		}
		b, _, err := vote(loaded, s.Input)
		if err != nil {
			t.Fatal(err)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("prediction changed after round trip: %g vs %g", a[i], b[i])
			}
		}
	}
}

func TestWeightFileSaveLoadFile(t *testing.T) {
	e, _ := trainedEnsemble(t, 2)
	path := filepath.Join(t.TempDir(), "weights.json")
	if err := e.SaveFile(path, nil); err != nil {
		t.Fatal(err)
	}
	loaded, _, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Size() != 2 {
		t.Error("file round trip lost members")
	}
}

// TestWeightFileSaveFileKeepsPreviousOnEncodeError: an ensemble that
// cannot be encoded (a diverged NaN weight) must fail to save without
// touching the weight file an earlier save left.
func TestWeightFileSaveFileKeepsPreviousOnEncodeError(t *testing.T) {
	e, _ := trainedEnsemble(t, 2)
	dir := t.TempDir()
	path := filepath.Join(dir, "weights.json")
	if err := e.SaveFile(path, nil); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	diverged := e.Members()[1].Clone()
	diverged.layers[0].w[0] = math.NaN()
	bad, err := FromNetworks([]*Network{e.Members()[0], diverged})
	if err != nil {
		t.Fatal(err)
	}
	if err := bad.SaveFile(path, nil); err == nil {
		t.Fatal("NaN weight saved without error")
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("failed save changed the file: %d bytes, was %d", len(got), len(want))
	}
	if ents, _ := os.ReadDir(dir); len(ents) != 1 {
		t.Errorf("failed save left %d files in the directory, want 1", len(ents))
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, _, err := Load(bytes.NewBufferString("not json")); err == nil {
		t.Error("garbage accepted")
	}
	if _, _, err := Load(bytes.NewBufferString(`{"format":"other","version":1}`)); err == nil {
		t.Error("wrong format accepted")
	}
	if _, _, err := Load(bytes.NewBufferString(`{"format":"ci-characterization-nn-weights","version":99}`)); err == nil {
		t.Error("wrong version accepted")
	}
	if _, _, err := Load(bytes.NewBufferString(`{"format":"ci-characterization-nn-weights","version":1,"members":[]}`)); err == nil {
		t.Error("empty members accepted")
	}
}

func TestLoadRejectsCorruptShapes(t *testing.T) {
	e, _ := trainedEnsemble(t, 1)
	var buf bytes.Buffer
	if err := e.Save(&buf, nil); err != nil {
		t.Fatal(err)
	}
	// Corrupt: drop one weight value via crude byte surgery on a valid
	// file is brittle; instead build a structurally wrong file.
	bad := `{"format":"ci-characterization-nn-weights","version":1,"members":[{"sizes":[2,1],"layers":[{"in":2,"out":1,"activation":"sigmoid","weights":[0.1],"biases":[0]}]}]}`
	if _, _, err := Load(bytes.NewBufferString(bad)); err == nil {
		t.Error("weight-count mismatch accepted")
	}
	badAct := `{"format":"ci-characterization-nn-weights","version":1,"members":[{"sizes":[1,1],"layers":[{"in":1,"out":1,"activation":"relu","weights":[0.1],"biases":[0]}]}]}`
	if _, _, err := Load(bytes.NewBufferString(badAct)); err == nil {
		t.Error("unknown activation accepted")
	}
}

func TestEnsembleBetterOrEqualToWorstMember(t *testing.T) {
	// The voting machine's error must not exceed the worst member's error
	// by much — averaging should help, and must never catastrophically
	// hurt. (On smooth tasks it typically beats the mean member.)
	e, data := trainedEnsemble(t, 5)
	ensErr, err := e.EvaluateWith(e.NewScratch(), data)
	if err != nil {
		t.Fatal(err)
	}
	worst := 0.0
	for _, m := range e.Members() {
		if ev := m.EvaluateWith(m.NewScratch(), data); ev > worst {
			worst = ev
		}
	}
	if ensErr > worst+1e-9 {
		t.Errorf("ensemble error %g exceeds worst member %g", ensErr, worst)
	}
}
