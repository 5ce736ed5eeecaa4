package core

import (
	"strings"
	"testing"

	"repro/internal/parallel"
	"repro/internal/telemetry"
	"repro/internal/testgen"
	"repro/internal/wcr"
)

// TestTable1OrderingHoldsAcrossSeeds is the statistical form of the
// headline claim: over 20 independent replicas (different seeds AND
// different dies) the paper's WCR ordering must hold in every one, and the
// NN+GA row must land in the weakness band in all but at most one.
func TestTable1OrderingHoldsAcrossSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("replicated full flows")
	}
	const n = 20
	f := parallel.NewFleet(0)
	defer f.Close()
	rep, err := RunTable1Replicated(f, DefaultTable1Config(1000), 1000, n)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("Table 1 across %d replicas:\n%s", n, rep.Format())
	if rep.OrderingHeld != n {
		t.Errorf("ordering held in only %d/%d replicas", rep.OrderingHeld, n)
	}
	if rep.NNGAInWeakness < n-1 {
		t.Errorf("NNGA in weakness band in only %d/%d replicas", rep.NNGAInWeakness, n)
	}
	if len(rep.Rows) != 3 {
		t.Fatalf("%d row stats", len(rep.Rows))
	}
	march, random, nnga := rep.Rows[0], rep.Rows[1], rep.Rows[2]
	// Mean WCRs sit in the paper's neighbourhoods.
	if march.MeanWCR < 0.55 || march.MeanWCR > 0.70 {
		t.Errorf("March mean WCR %.3f outside the paper's neighbourhood of 0.619", march.MeanWCR)
	}
	if random.MeanWCR < 0.62 || random.MeanWCR > 0.80 {
		t.Errorf("Random mean WCR %.3f outside the paper's neighbourhood of 0.701", random.MeanWCR)
	}
	if nnga.MeanWCR < 0.85 || nnga.MeanWCR > 1.02 {
		t.Errorf("NNGA mean WCR %.3f outside the paper's neighbourhood of 0.904", nnga.MeanWCR)
	}
	// Replica-to-replica scatter is modest: the result is a property of
	// the method, not of a lucky seed.
	if nnga.StdWCR > 0.08 {
		t.Errorf("NNGA WCR σ %.3f too large across replicas", nnga.StdWCR)
	}
}

// The flow's worst case reaches at least the weakness band: the path the
// characterize binary runs (NewCharacterizer → Learn → Optimize → the
// database's worst case) at the default scale, with nominal fixed
// conditions on the typical die, must not classify its worst case as pass
// on seed 103 nor on more than one of seeds 1000–1019.
func TestCharacterizeWorstAtLeastWeaknessAcrossSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("21 full characterize flows")
	}
	worst := func(seed int64) Entry {
		cfg := DefaultConfig(seed)
		nominal := testgen.NominalConditions()
		cfg.FixedConditions = &nominal
		char, err := NewCharacterizer(cfg, newTester(t, seed))
		if err != nil {
			t.Fatal(err)
		}
		defer char.Close()
		if _, err := char.Learn(); err != nil {
			t.Fatal(err)
		}
		res, err := char.Optimize()
		if err != nil {
			t.Fatal(err)
		}
		w, ok := res.Database.Worst()
		if !ok {
			t.Fatalf("seed %d: no worst case", seed)
		}
		t.Logf("seed %d: worst case %s, WCR %.3f (%s)", seed, w.Test.Name, w.WCR, w.Class)
		return w
	}
	if w := worst(103); w.Class == wcr.Pass {
		t.Errorf("seed 103: worst case classified pass (WCR %.3f)", w.WCR)
	}
	const first, n = 1000, 20
	held := 0
	for seed := int64(first); seed < first+n; seed++ {
		if worst(seed).Class != wcr.Pass {
			held++
		}
	}
	if held < n-1 {
		t.Errorf("worst case at least weakness on %d/%d seeds, want >= %d", held, n, n-1)
	}
}

// SUTP saves measurements in real learning runs (fig. 3): the learn phase
// the characterize binary runs, at the default scale with nominal fixed
// conditions on the typical die, must spend fewer trip-point measurements
// than the same searches would at FullRangeBudget each — SUTP's mean
// per-test cost below the full-range search — on every one of seeds
// 1000–1019.
func TestLearnSUTPSavesMeasurementsAcrossSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("20 learning flows")
	}
	const first, n = 1000, 20
	held := 0
	for seed := int64(first); seed < first+n; seed++ {
		cfg := DefaultConfig(seed)
		nominal := testgen.NominalConditions()
		cfg.FixedConditions = &nominal
		cfg.Telemetry = telemetry.New("learn", nil)
		char, err := NewCharacterizer(cfg, newTester(t, seed))
		if err != nil {
			t.Fatal(err)
		}
		_, err = char.Learn()
		char.Close()
		if err != nil {
			t.Fatal(err)
		}
		reg := cfg.Telemetry.Registry()
		spent := reg.Counter("search_measurements_total").Value()
		baseline := reg.Counter("search_baseline_measurements_total").Value()
		if spent < baseline {
			held++
			t.Logf("seed %d: %d of %d full-range measurements, %.1f%% saved",
				seed, spent, baseline, 100*float64(baseline-spent)/float64(baseline))
		} else {
			t.Logf("seed %d: %d measurements, no saving over the full-range %d", seed, spent, baseline)
		}
	}
	if held < n {
		t.Errorf("SUTP saved measurements on %d/%d seeds, want %d", held, n, n)
	}
}

func TestRunTable1ReplicatedValidation(t *testing.T) {
	if _, err := RunTable1Replicated(nil, DefaultTable1Config(1), 1, 0); err == nil {
		t.Error("zero replicas accepted")
	}
}

func TestReplicationReportFormat(t *testing.T) {
	rep := &ReplicationReport{
		Replicas:       3,
		OrderingHeld:   3,
		NNGAInWeakness: 2,
		Rows: []RowStats{
			{TestName: "March Test", MeanWCR: 0.62, MinWCR: 0.61, MaxWCR: 0.63, MeanValue: 32.1},
		},
	}
	s := rep.Format()
	for _, want := range []string{"replicated 3×", "March Test", "3/3", "2/3"} {
		if !strings.Contains(s, want) {
			t.Errorf("report missing %q:\n%s", want, s)
		}
	}
}
