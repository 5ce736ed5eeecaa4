package core

import (
	"sort"
	"testing"

	"repro/internal/cachestore"
	"repro/internal/parallel"
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
	param := char.cfg.Parameter

	measure := func(tests []Candidate) float64 {
		sum := 0.0
		for _, c := range tests {
			p, err := char.ate.Profile(c.Test)
			if err != nil {
				t.Fatal(err)
			}
			sum += param.Spec().WCR(param.TrueValue(p))
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

// A GA generation costs the fleet at most one stage, its measurement
// stream: the memo keys are taken in the serial resolve. A generation the
// memo answers whole costs none — here every generation of a run primed
// from its own persisted memo.
func TestOptimizeFleetStagesPerGeneration(t *testing.T) {
	cfg := quickConfig(5)
	cfg.Parallelism = 2
	dir := t.TempDir()
	t.Cleanup(func() { parallel.SetFleetObserver(nil) })
	optimize := func(primed bool) (stages int, opt *OptimizationResult) {
		t.Helper()
		char, err := NewCharacterizer(cfg, newTester(t, cfg.Seed))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(char.Close)
		store, err := cachestore.Open(dir, char.MemoCacheScope())
		if err != nil {
			t.Fatal(err)
		}
		if primed && char.PrimeMemoCache(store) == 0 {
			t.Fatal("primed no memo entries")
		}
		if _, err := char.Learn(); err != nil {
			t.Fatal(err)
		}
		cands, err := char.ProposeSeeds()
		if err != nil {
			t.Fatal(err)
		}
		parallel.SetFleetObserver(func(parallel.StreamStats) { stages++ })
		opt, err = char.OptimizeFrom(SeedsForGA(cands))
		parallel.SetFleetObserver(nil)
		if err != nil {
			t.Fatal(err)
		}
		if !primed {
			if _, err := char.PersistMemoCache(store); err != nil {
				t.Fatal(err)
			}
		}
		return stages, opt
	}

	stages, cold := optimize(false)
	t.Logf("cold: %d fleet stages over %d generations", stages, cold.GA.Generations)
	if stages < 1 || stages > cold.GA.Generations {
		t.Errorf("cold run: %d fleet stages over %d generations, want 1..%d", stages, cold.GA.Generations, cold.GA.Generations)
	}
	stages, warm := optimize(true)
	if warm.Measurements != 0 {
		t.Fatalf("primed run measured %d times, want every lookup answered by the memo", warm.Measurements)
	}
	if stages != 0 {
		t.Errorf("primed run: %d fleet stages over %d generations the memo answered whole, want 0", stages, warm.GA.Generations)
	}
}
