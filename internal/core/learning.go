package core

import (
	"fmt"

	"repro/internal/neural"
	"repro/internal/search"
	"repro/internal/telemetry"
	"repro/internal/testgen"
	"repro/internal/trippoint"
)

// LearningResult is everything fig. 4 produces: the trained voting
// ensemble, the measured DSV set it learned from, and the per-member
// training reports of the learnability/generalization checks.
type LearningResult struct {
	Ensemble *neural.Ensemble
	Reports  []neural.TrainReport
	DSV      *trippoint.DSV
	Dataset  neural.Dataset
	// EnsembleValErr is the voting machine's error on the full dataset —
	// the consistency check of fig. 4 step 4.
	EnsembleValErr float64
	// Tests are the measured learning tests, aligned with DSV.Values.
	Tests []testgen.Test
}

// Learn executes the learning scheme of fig. 4:
//
//  1. the random test generator presents tests to the ATE,
//  2. the multiple-trip-point runner measures one trip point per test
//     (first test full range per eq. 2, later tests via SUTP eqs. 3/4),
//  3. the trip point is fuzzy coded (or numerically coded),
//  4. an ensemble of networks trains on bootstrap subsets with iterative
//     learnability and generalization checks,
//  5. the trained ensemble is retained (persist it with SaveWeights).
func (c *Characterizer) Learn() (*LearningResult, error) {
	tel := c.tel()
	ph := tel.StartPhase("learn")
	before := c.ate.Stats()
	defer func() { ph.End(c.ate.Stats().CostSince(before)) }()

	runner := trippoint.NewRunner(c.ate, c.cfg.Parameter)
	runner.Searcher = &search.SUTP{Refine: true}
	budget := c.cfg.Parameter.SearchOptions().FullRangeBudget()

	limits := c.gen.Limits()
	res := &LearningResult{}
	// Measuring never touches the generator, so every test is drawn first
	// and the pattern executions run ahead of the serial search.
	tests := c.gen.Batch(c.cfg.LearnTests)
	err := c.measureTests(tests, func(i int) error {
		t := tests[i]
		m, err := runner.Measure(t)
		if err != nil {
			return fmt.Errorf("core: learning measurement %d: %w", i, err)
		}
		tel.RecordSearch(m.Measurements, budget, m.Converged)
		tel.RecordItem("learn-test", i+1, c.cfg.LearnTests)
		ph.Span().Event("trip",
			telemetry.I("i", i),
			telemetry.F("trip", m.TripPoint),
			telemetry.I("measurements", m.Measurements),
			telemetry.B("converged", m.Converged),
		)
		if !m.Converged {
			// Outside the generous range — skip as unlearnable, matching
			// ATE practice of flagging range violations for re-setup.
			return nil
		}
		res.Tests = append(res.Tests, t)
		res.Dataset = append(res.Dataset, neural.Sample{
			Input:  testgen.ExtractFeatures(t, limits),
			Target: c.coder.Encode(m.TripPoint),
		})
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.DSV = runner.DSV()
	if len(res.Dataset) < 10 {
		return nil, fmt.Errorf("core: only %d converged learning measurements; widen the search range", len(res.Dataset))
	}

	sizes := append([]int{testgen.NumFeatures}, c.cfg.HiddenLayers...)
	sizes = append(sizes, c.coder.Width())
	// Member training dispatches onto the flow's persistent fleet, so the
	// workers (and their memoized resources) that later measure GA fitness
	// are the same ones that trained the ensemble.
	ens, reports, err := neural.NewEnsemble(c.Fleet(), c.cfg.Seed, c.cfg.EnsembleSize, sizes, res.Dataset, c.cfg.Train)
	if err != nil {
		return nil, fmt.Errorf("core: training ensemble: %w", err)
	}
	res.Ensemble = ens
	res.Reports = reports
	res.EnsembleValErr, err = ens.EvaluateWith(ens.NewScratch(), res.Dataset)
	if err != nil {
		return nil, err
	}

	// Member reports arrive in member order regardless of the training
	// parallelism, so emitting from them here is deterministic.
	epochErr := tel.Registry().Histogram("nn_epoch_error", telemetry.DefaultErrorBuckets()...)
	for i, rep := range reports {
		for _, e := range rep.ErrCurve {
			epochErr.Observe(e)
		}
		ph.Span().Event("nn_member",
			telemetry.I("member", i),
			telemetry.I("epochs", len(rep.ErrCurve)),
			telemetry.F("val_err", rep.ValErr),
			telemetry.B("generalized", rep.Generalized),
		)
	}
	tel.Registry().Gauge("nn_ensemble_val_error").Set(res.EnsembleValErr)
	tel.Registry().Counter("nn_members_trained_total").Add(int64(len(reports)))

	c.learned = res
	return res, nil
}

// SaveWeights persists the trained ensemble as the NN weight file of fig. 4
// step 5.
func (c *Characterizer) SaveWeights(path string) error {
	if c.learned == nil {
		return fmt.Errorf("core: no trained ensemble; run Learn first")
	}
	meta := map[string]string{
		"parameter": c.cfg.Parameter.String(),
		"coding":    c.cfg.Coding.String(),
	}
	return c.learned.Ensemble.SaveFile(path, meta)
}

// LoadWeights installs a previously trained ensemble, enabling the
// optimization phase without re-learning ("this file will be used in
// classification task of worst case test based on only software computation
// without measurement").
func (c *Characterizer) LoadWeights(path string) error {
	ens, meta, err := neural.LoadFile(path)
	if err != nil {
		return err
	}
	if p := meta["parameter"]; p != "" && p != c.cfg.Parameter.String() {
		return fmt.Errorf("core: weight file was trained for %s, flow characterizes %s", p, c.cfg.Parameter)
	}
	if ens.Inputs() != testgen.NumFeatures {
		return fmt.Errorf("core: weight file input width %d, feature encoding needs %d", ens.Inputs(), testgen.NumFeatures)
	}
	if ens.Outputs() != c.coder.Width() {
		return fmt.Errorf("core: weight file output width %d, coder needs %d", ens.Outputs(), c.coder.Width())
	}
	c.learned = &LearningResult{Ensemble: ens}
	return nil
}
