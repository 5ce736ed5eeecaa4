package core

import (
	"fmt"
	"sort"

	"repro/internal/genetic"
	"repro/internal/neural"
	"repro/internal/parallel"
	"repro/internal/telemetry"
	"repro/internal/testgen"
)

// Candidate is one software-generated test with its NN-predicted severity
// (a WCR estimate) and the voting machine's confidence.
type Candidate struct {
	Test       testgen.Test
	Severity   float64
	Confidence float64
}

// ProposeSeeds is the fuzzy-neural network test generator of fig. 5 step 1:
// it draws CandidatePool random tests, ranks them purely in software by the
// ensemble's predicted severity (no ATE measurement), and returns the top
// SeedCount as the "sub-optimal tests selected by fuzzy-neural network test
// generator based on its previous learning experience". Ranking breaks
// severity ties toward higher confidence.
//
// Candidate generation is serial (the generator owns one random stream),
// but feature extraction and the surrogate scoring fan across the flow's
// fleet: each task encodes its candidate (a pure function of the test) and
// votes with its worker's own ensemble scratch arena (the trained weights
// are read-only), writing severities into index-addressed slots, so the
// ranking is bit-identical for any Parallelism. Vote scratches are memoized
// per persistent worker, so repeated proposal rounds (multi-era flows,
// Table 1) reuse them.
func (c *Characterizer) ProposeSeeds() ([]Candidate, error) {
	if c.learned == nil || c.learned.Ensemble == nil {
		return nil, fmt.Errorf("core: no trained ensemble; run Learn or LoadWeights first")
	}
	ph := c.tel().StartPhase("propose-seeds")
	before := c.ate.Stats()
	defer func() { ph.End(c.ate.Stats().CostSince(before)) }()

	limits := c.gen.Limits()
	ens := c.learned.Ensemble
	pool := make([]Candidate, c.cfg.CandidatePool)
	for i := range pool {
		pool[i].Test = c.gen.Next()
	}
	score := func(s *neural.EnsembleScratch, i int) error {
		pred, conf, err := ens.VoteInto(s, testgen.ExtractFeatures(pool[i].Test, limits))
		if err != nil {
			return fmt.Errorf("core: scoring candidate %d: %w", i, err)
		}
		pool[i].Severity = c.coder.Severity(pred)
		pool[i].Confidence = conf
		return nil
	}
	f := c.Fleet()
	if c.voteScratch == nil {
		c.voteScratch = make([]*neural.EnsembleScratch, f.Size())
	}
	err := parallel.RunOn(f, len(pool), func(w int) (*neural.EnsembleScratch, error) {
		if c.voteScratch[w] == nil {
			c.voteScratch[w] = ens.NewScratch()
		}
		return c.voteScratch[w], nil
	}, score)
	if err != nil {
		return nil, err
	}
	sort.SliceStable(pool, func(i, j int) bool {
		if pool[i].Severity != pool[j].Severity {
			return pool[i].Severity > pool[j].Severity
		}
		return pool[i].Confidence > pool[j].Confidence
	})
	if len(pool) > c.cfg.SeedCount {
		pool = pool[:c.cfg.SeedCount]
	}
	if len(pool) > 0 {
		ph.Span().Event("seeds",
			telemetry.I("pool", c.cfg.CandidatePool),
			telemetry.I("selected", len(pool)),
			telemetry.F("top_severity", pool[0].Severity),
		)
		c.tel().Registry().Gauge("seed_top_severity").Set(pool[0].Severity)
	}
	return pool, nil
}

// SeedsForGA converts ranked candidates into GA seeds.
func SeedsForGA(cands []Candidate) []genetic.Seed {
	seeds := make([]genetic.Seed, len(cands))
	for i, cand := range cands {
		seeds[i] = genetic.Seed{Seq: cand.Test.Seq, Cond: cand.Test.Cond}
	}
	return seeds
}

// PredictSeverity scores one test in software (no measurement): the NN
// classification task of the operation phase.
func (c *Characterizer) PredictSeverity(t testgen.Test) (severity, confidence float64, err error) {
	if c.learned == nil || c.learned.Ensemble == nil {
		return 0, 0, fmt.Errorf("core: no trained ensemble; run Learn or LoadWeights first")
	}
	feat := testgen.ExtractFeatures(t, c.gen.Limits())
	ens := c.learned.Ensemble
	pred, conf, err := ens.VoteInto(ens.NewScratch(), feat)
	if err != nil {
		return 0, 0, err
	}
	return c.coder.Severity(pred), conf, nil
}
