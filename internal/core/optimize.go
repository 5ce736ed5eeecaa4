package core

import (
	"fmt"

	"repro/internal/genetic"
	"repro/internal/telemetry"
	"repro/internal/wcr"
)

// OptimizationResult is the outcome of the fig. 5 scheme.
type OptimizationResult struct {
	GA *genetic.Result
	// Database holds the worst-case tests banked across GA eras, ranked
	// worst first.
	Database *Database
	// Measurements is the total number of ATE measurements the GA spent.
	Measurements int64
	// CacheHits and CacheMisses count fitness lookups the measurement
	// memo-cache absorbed versus lookups that had to be measured.
	CacheHits   int64
	CacheMisses int64
}

// Optimize executes the optimization scheme of fig. 5: seed the GA with the
// fuzzy-neural generator's sub-optimal candidates, evolve sequences and
// conditions with real ATE fitness, restart stagnating populations, and
// store every era's best in the worst-case test database.
func (c *Characterizer) Optimize() (*OptimizationResult, error) {
	cands, err := c.ProposeSeeds()
	if err != nil {
		return nil, err
	}
	return c.OptimizeFrom(SeedsForGA(cands))
}

// OptimizeFrom runs the GA from explicit seeds (the ablation benchmarks
// pass random seeds here to quantify the value of NN seeding).
func (c *Characterizer) OptimizeFrom(seeds []genetic.Seed) (*OptimizationResult, error) {
	gaCfg := c.cfg.GA
	gaCfg.FixedConditions = c.cfg.FixedConditions

	tel := c.tel()
	ph := tel.StartPhase("optimize")
	statsBefore := c.ate.Stats()
	defer func() { ph.End(c.ate.Stats().CostSince(statsBefore)) }()
	if tel != nil {
		// The GA's generation loop is serial, so emitting per-generation
		// trace events from its callback is deterministic.
		prev := gaCfg.OnGeneration
		gaCfg.OnGeneration = func(gen int, best float64) {
			ph.Span().Event("generation",
				telemetry.I("gen", gen),
				telemetry.F("best_wcr", best),
			)
			tel.RecordGeneration(gen, best)
			if prev != nil {
				prev(gen, best)
			}
		}
	}

	spec := c.cfg.Parameter.Spec()
	eval := newEvaluator(c)
	c.lastEval = eval

	ops := genetic.NewOperators(c.cfg.Seed+1, c.gen)
	opt, err := genetic.NewOptimizer(gaCfg, ops, eval)
	if err != nil {
		return nil, err
	}
	before := c.ate.Stats().Measurements
	gaRes, err := opt.Run(seeds)
	if err != nil {
		return nil, fmt.Errorf("core: GA optimization: %w", err)
	}

	db := NewDatabase(c.cfg.Parameter)
	for _, ind := range gaRes.EraBests {
		t := ind.Test()
		db.Add(Entry{
			Test:  t,
			WCR:   ind.Fitness,
			Class: wcr.Classify(ind.Fitness),
			Value: spec.Value(ind.Fitness),
		})
	}
	if gaRes.Best != nil {
		t := gaRes.Best.Test()
		db.Add(Entry{
			Test:  t,
			WCR:   gaRes.Best.Fitness,
			Class: wcr.Classify(gaRes.Best.Fitness),
			Value: spec.Value(gaRes.Best.Fitness),
		})
	}
	db.Sort()

	return &OptimizationResult{
		GA:           gaRes,
		Database:     db,
		Measurements: c.ate.Stats().Measurements - before,
		CacheHits:    eval.cacheHits(),
		CacheMisses:  eval.cacheMisses(),
	}, nil
}
