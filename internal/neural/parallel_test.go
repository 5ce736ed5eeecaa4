package neural

import (
	"bytes"
	"testing"

	"repro/internal/parallel"
)

// serializeEnsemble renders the trained weights for bit-equality checks.
func serializeEnsemble(t *testing.T, e *Ensemble) string {
	t.Helper()
	var b bytes.Buffer
	if err := e.Save(&b, nil); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// sameReports fails the test when two member-report sets differ.
func sameReports(t *testing.T, label string, got, want []TrainReport) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: reports = %d, want %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i].TrainErr != want[i].TrainErr ||
			got[i].ValErr != want[i].ValErr ||
			got[i].Epochs != want[i].Epochs {
			t.Errorf("%s: member %d training report differs: %+v vs %+v", label, i, got[i], want[i])
		}
	}
}

func TestEnsembleParallelBitIdenticalToSerial(t *testing.T) {
	data := syntheticRegression(47, 160)
	cfg := DefaultTrainConfig(47)
	cfg.Epochs = 40

	serial, serialReports, err := NewEnsemble(nil, 47, 4, []int{3, 8, 1}, data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := serializeEnsemble(t, serial)

	for _, workers := range []int{2, 8} {
		f := parallel.NewFleet(workers)
		e, reports, err := NewEnsemble(f, 47, 4, []int{3, 8, 1}, data, cfg)
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
		if got := serializeEnsemble(t, e); got != want {
			t.Errorf("workers=%d trained weights differ from serial", workers)
		}
		sameReports(t, "parallel vs serial", reports, serialReports)
	}
}

func TestEnsembleNilFleetMatchesFleetOfOne(t *testing.T) {
	// A nil fleet and a fleet sized 1 are the same fleet of one: both train
	// inline and must produce identical weights.
	data := syntheticRegression(53, 120)
	cfg := DefaultTrainConfig(53)
	cfg.Epochs = 30

	inline, _, err := NewEnsemble(nil, 53, 3, []int{3, 6, 1}, data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	f := parallel.NewFleet(1)
	defer f.Close()
	one, _, err := NewEnsemble(f, 53, 3, []int{3, 6, 1}, data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if serializeEnsemble(t, inline) != serializeEnsemble(t, one) {
		t.Error("fleet-of-one ensemble weights differ from the nil-fleet ones")
	}
}

func TestEnsembleReusedFleetMatchesSerial(t *testing.T) {
	// Fleet-hosted training is a pure scheduling choice: weights and member
	// reports are bit-identical to serial training at every fleet size,
	// including a fleet reused across two trainings.
	data := syntheticRegression(61, 140)
	cfg := DefaultTrainConfig(61)
	cfg.Epochs = 30

	ref, refReports, err := NewEnsemble(nil, 61, 4, []int{3, 6, 1}, data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := serializeEnsemble(t, ref)

	for _, workers := range []int{1, 2, 8} {
		f := parallel.NewFleet(workers)
		for round := 0; round < 2; round++ { // same fleet, two trainings
			e, reports, err := NewEnsemble(f, 61, 4, []int{3, 6, 1}, data, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got := serializeEnsemble(t, e); got != want {
				t.Errorf("fleet=%d round %d: trained weights differ from serial", workers, round)
			}
			sameReports(t, "fleet vs serial", reports, refReports)
		}
		f.Close()
	}
}
