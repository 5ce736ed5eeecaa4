package core

import (
	"strings"
	"testing"

	"repro/internal/parallel"
)

// TestTable1OrderingHoldsAcrossSeeds is the statistical form of the
// headline claim: over several independent replicas (different seeds AND
// different dies) the paper's WCR ordering must hold in every one, and the
// NN+GA row must land in the weakness band in the clear majority.
func TestTable1OrderingHoldsAcrossSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("replicated full flows")
	}
	const n = 5
	f := parallel.NewFleet(0)
	defer f.Close()
	rep, err := RunTable1Replicated(f, DefaultTable1Config(1000), 1000, n)
	if err != nil {
		t.Fatal(err)
	}
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
