package core

import (
	"sort"
	"testing"

	"repro/internal/wcr"
)

func TestProposeSeedsRankedBySeverity(t *testing.T) {
	char, _ := learnedCharacterizer(t, 61)
	cands, err := char.ProposeSeeds()
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) != char.cfg.SeedCount {
		t.Fatalf("got %d candidates", len(cands))
	}
	if !sort.SliceIsSorted(cands, func(i, j int) bool {
		return cands[i].Severity >= cands[j].Severity
	}) {
		t.Error("candidates not sorted by severity")
	}
	for _, c := range cands {
		if c.Confidence <= 0 || c.Confidence > 1 {
			t.Errorf("confidence %g out of range", c.Confidence)
		}
		if len(c.Test.Seq) == 0 {
			t.Error("candidate with empty sequence")
		}
	}
}

func TestSeedsOutrankRandomPopulation(t *testing.T) {
	// The NN-selected seeds must have higher *measured* severity on
	// average than a random draw — the point of fig. 5 step 1.
	char, _ := learnedCharacterizer(t, 63)
	cands, err := char.ProposeSeeds()
	if err != nil {
		t.Fatal(err)
	}
	spec, isMin := char.cfg.Parameter.SpecValue()

	measure := func(tests []Candidate) float64 {
		sum := 0.0
		for _, c := range tests {
			p, err := char.ate.Profile(c.Test)
			if err != nil {
				t.Fatal(err)
			}
			sum += wcr.For(p.TDQWindowNS(), spec, isMin)
		}
		return sum / float64(len(tests))
	}
	seedWCR := measure(cands)

	randTests := make([]Candidate, len(cands))
	for i := range randTests {
		randTests[i] = Candidate{Test: char.Generator().Next()}
	}
	randWCR := measure(randTests)

	if seedWCR <= randWCR {
		t.Errorf("NN seeds mean WCR %.3f not above random %.3f", seedWCR, randWCR)
	}
}

func TestOptimizeFindsWorseThanRandom(t *testing.T) {
	char, _ := learnedCharacterizer(t, 65)
	opt, err := char.Optimize()
	if err != nil {
		t.Fatal(err)
	}
	best, ok := opt.Database.Worst()
	if !ok {
		t.Fatal("empty worst-case database")
	}
	if best.WCR < 0.75 {
		t.Errorf("GA best WCR %.3f; expected the weakness region (> 0.75)", best.WCR)
	}
	if best.WCR != opt.GA.Best.Fitness {
		t.Errorf("database best %.3f disagrees with GA best %.3f", best.WCR, opt.GA.Best.Fitness)
	}
	if opt.Measurements <= 0 {
		t.Error("no measurements accounted")
	}
	// Database entries must be sorted worst-first and well-formed.
	for i, e := range opt.Database.Entries {
		if i > 0 && e.WCR > opt.Database.Entries[i-1].WCR {
			t.Fatal("database not sorted")
		}
		if e.Class != wcr.Classify(e.WCR) {
			t.Error("entry class inconsistent")
		}
		if e.Value <= 0 {
			t.Error("entry value missing")
		}
	}
}

func TestOptimizeFromExplicitSeeds(t *testing.T) {
	char, _ := learnedCharacterizer(t, 67)
	// Random seeds (ablation: no NN guidance).
	res, err := char.OptimizeFrom(nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.GA.Best == nil {
		t.Fatal("no best individual")
	}
}

func TestValueFromWCRInversion(t *testing.T) {
	// valueFromWCR must invert eqs. 5/6.
	if got := valueFromWCR(0.904, 20, true); got < 22.0 || got > 22.3 {
		t.Errorf("min-spec inversion: %g, want ≈22.12", got)
	}
	if got := valueFromWCR(0.5, 20, false); got != 10 {
		t.Errorf("max-spec inversion: %g, want 10", got)
	}
	if got := valueFromWCR(0, 20, true); got != 0 {
		t.Errorf("zero WCR inversion: %g", got)
	}
}
