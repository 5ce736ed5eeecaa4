// Package core implements the paper's primary contribution: the
// computational-intelligence device characterization flow that couples an
// industrial ATE with a fuzzy-coded neural-network learning scheme (fig. 4)
// and a genetic-algorithm worst-case test optimizer (fig. 5).
//
// The flow in one paragraph: a random test generator drives the ATE, which
// measures one trip point per test using the multiple-trip-point concept
// and the Search-Until-Trip-Point algorithm; trip points are encoded with
// fuzzy severity sets; an ensemble of neural networks (a voting machine)
// learns the test→severity mapping and is persisted as a weight file; the
// trained ensemble then generates sub-optimal worst-case candidates purely
// in software, which seed a dual-chromosome genetic algorithm whose fitness
// is a real ATE trip-point measurement expressed as the Worst Case Ratio;
// the best tests of every GA era land in the worst-case test database for
// detailed analysis.
package core

import (
	"fmt"

	"repro/internal/ate"
	"repro/internal/cachestore"
	"repro/internal/dut"
	"repro/internal/fuzzy"
	"repro/internal/genetic"
	"repro/internal/neural"
	"repro/internal/parallel"
	"repro/internal/telemetry"
	"repro/internal/testgen"
)

// Config assembles everything one characterization run needs.
type Config struct {
	// Parameter is the AC/DC parameter under characterization; one flow
	// characterizes exactly one parameter (§5: generate NNs "individually
	// for each parameter").
	Parameter ate.Parameter

	// Seed drives every random draw of the flow.
	Seed int64

	// Coding selects fuzzy or plain numeric trip-point encoding.
	Coding fuzzy.Coding

	// LearnTests is the number of measured random tests the NN learns
	// from (the paper used 50k ATE patterns; scaled down by default to
	// keep the simulation quick — raise it for higher-fidelity runs).
	LearnTests int

	// EnsembleSize is the number of voting networks.
	EnsembleSize int

	// HiddenLayers are the MLP hidden layer widths.
	HiddenLayers []int

	// Train configures backpropagation.
	Train neural.TrainConfig

	// CandidatePool is the number of software-only candidates the trained
	// generator ranks when proposing GA seeds.
	CandidatePool int

	// SeedCount is the number of sub-optimal tests handed to the GA.
	SeedCount int

	// GA configures the optimizer.
	GA genetic.Config

	// FixedConditions pins generated and evolved tests to one operating
	// condition set (Table 1: Vdd 1.8 V). Nil randomizes and evolves
	// conditions.
	FixedConditions *testgen.Conditions

	// Parallelism sizes the flow's one persistent worker fleet, which runs
	// every parallel stage — the pattern executions that run ahead of
	// Learn's and Table 1's serial SUTP, GA fitness batches, ensemble
	// training, seed scoring — with forked insertions that survive across
	// stages and phases. Values below 1 select one worker per CPU
	// (runtime.GOMAXPROCS); 1 is a fleet of one that runs the same stages
	// inline. Results are bit-identical for any value — see
	// internal/parallel.
	Parallelism int

	// DisableMeasurementCache turns off the GA's measurement memo-cache so
	// every individual is re-measured even when its sequence and conditions
	// are structurally identical to one already measured. Used to baseline
	// the cache's savings.
	DisableMeasurementCache bool

	// Telemetry, when non-nil, receives structured trace spans, metrics and
	// phase rows from every pipeline stage the flow executes. All emission
	// happens at deterministic program points (serial sections and
	// task-order merge loops), so traces are bit-identical for any
	// Parallelism. Nil disables instrumentation at near-zero cost.
	Telemetry *telemetry.Telemetry
}

// DefaultConfig returns a configuration sized to run the full flow in
// seconds on a laptop while preserving the paper's structure.
func DefaultConfig(seed int64) Config {
	return Config{
		Parameter:     ate.TDQ,
		Seed:          seed,
		Coding:        fuzzy.CodingFuzzy,
		LearnTests:    300,
		EnsembleSize:  3,
		HiddenLayers:  []int{20, 10},
		Train:         neural.DefaultTrainConfig(seed),
		CandidatePool: 1500,
		SeedCount:     24,
		GA:            genetic.DefaultConfig(),
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if int(c.Parameter) >= ate.NumParameters {
		return fmt.Errorf("core: unknown parameter %v", c.Parameter)
	}
	if c.LearnTests < 10 {
		return fmt.Errorf("core: LearnTests %d too small to train on", c.LearnTests)
	}
	if c.EnsembleSize < 1 {
		return fmt.Errorf("core: EnsembleSize %d must be positive", c.EnsembleSize)
	}
	if c.CandidatePool < c.SeedCount {
		return fmt.Errorf("core: CandidatePool %d smaller than SeedCount %d", c.CandidatePool, c.SeedCount)
	}
	if c.SeedCount < 1 {
		return fmt.Errorf("core: SeedCount %d must be positive", c.SeedCount)
	}
	return nil
}

// Characterizer owns one flow instance: the tester, the generator, the
// coder and (after Learn) the trained ensemble.
type Characterizer struct {
	cfg   Config
	ate   *ate.ATE
	gen   *testgen.RandomGenerator
	coder *fuzzy.TripPointCoder

	learned  *LearningResult
	lastEval *evaluator
	// primed holds disk-recovered fitness values (PrimeMemoCache) that
	// seed the next Optimize run's memo-cache.
	primed map[uint64]float64

	// fleet is the flow's persistent worker pool, created lazily by Fleet()
	// and released by Close; insertions holds each fleet worker's forked
	// tester insertion (insertionFor) and voteScratch the per-fleet-worker
	// ensemble voting arenas ProposeSeeds memoizes.
	fleet       *parallel.Fleet
	insertions  []*ate.ATE
	voteScratch []*neural.EnsembleScratch
}

// NewCharacterizer wires a flow against a tester insertion.
func NewCharacterizer(cfg Config, tester *ate.ATE) (*Characterizer, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if tester == nil {
		return nil, fmt.Errorf("core: nil ATE")
	}
	coder, err := fuzzy.NewTripPointCoder(cfg.Parameter.Spec(), cfg.Coding)
	if err != nil {
		return nil, err
	}
	gen := testgen.NewRandomGenerator(cfg.Seed, tester.Device().Geometry().Words(), testgen.DefaultConditionLimits())
	gen.FixedConditions = cfg.FixedConditions
	return &Characterizer{cfg: cfg, ate: tester, gen: gen, coder: coder}, nil
}

// Fleet returns the flow's persistent worker fleet, creating it on first
// use (sized by Config.Parallelism); never nil. All of the flow's phases
// share this one pool, so worker-memoized resources (forked insertions,
// vote scratches) persist across phases. Call Close when the flow is done.
func (c *Characterizer) Fleet() *parallel.Fleet {
	if c.fleet == nil {
		c.fleet = parallel.NewFleet(c.cfg.Parallelism)
		c.insertions = make([]*ate.ATE, c.fleet.Size())
	}
	return c.fleet
}

// insertionFor returns fleet worker w's forked tester insertion, forking it
// on first use into the slots Fleet allocates. The insertions persist
// across stages and phases (Table 1's Random row, Learn and every GA
// generation reuse them), so no stage pays a fork; each task resets the
// state it relies on (Reload before a pattern execution, Reseed before a
// fitness search). A fork clones the device as it is then, row repairs
// included, so repair the device before the flow's first phase.
func (c *Characterizer) insertionFor(w int) (*ate.ATE, error) {
	if c.insertions[w] == nil {
		wk, err := c.ate.Fork(c.cfg.Seed)
		if err != nil {
			return nil, fmt.Errorf("core: forking tester: %w", err)
		}
		c.insertions[w] = wk
	}
	return c.insertions[w], nil
}

// measureTests calls measure(i) for i = 0, 1, … in order, each with test
// i's pattern loaded in the flow's tester. The measurements share the
// tester's one noise stream, so they stay serial and in order; the pattern
// execution before them (dut.Device.Profile) is a pure function of the
// die, physics and test, so it runs ahead on the fleet's insertions and
// enters the tester through ate.Preload in the in-order delivery, charging
// the Profiles cost the tester's own load would. A test whose pattern fails
// on the insertion is left to the tester's own load, which reports the
// same error at the same point. A fleet of one runs the same code inline.
func (c *Characterizer) measureTests(tests []testgen.Test, measure func(i int) error) error {
	profiles := make([]dut.Profile, len(tests))
	ok := make([]bool, len(tests))
	return parallel.Stream(c.Fleet(), len(tests), c.insertionFor, func(wk *ate.ATE, i int) error {
		// Both Table 1 generators name their tests RND-0001, RND-0002, …,
		// so the insertion's name-keyed pattern memory must not answer.
		wk.Reload()
		p, err := wk.Profile(tests[i])
		profiles[i], ok[i] = p, err == nil
		return nil
	}, func(i int) error {
		if ok[i] {
			c.ate.Preload(profiles[i])
		}
		return measure(i)
	})
}

// Close releases the flow's persistent resources (the fleet's worker
// goroutines). Safe to call multiple times; a Characterizer that never ran
// a multi-worker phase closes trivially.
func (c *Characterizer) Close() {
	if c.fleet != nil {
		c.fleet.Close()
		c.fleet = nil
	}
}

// Generator returns the flow's random test generator.
func (c *Characterizer) Generator() *testgen.RandomGenerator { return c.gen }

// tel returns the run's telemetry handle; nil (inert) when observability is
// off.
func (c *Characterizer) tel() *telemetry.Telemetry { return c.cfg.Telemetry }

// RecordDiskCache feeds a persistent store's counters into the run
// telemetry (report disk-cache line, Prometheus gauges, live /progress).
// A nil store or nil telemetry is a no-op, so callers can pass both
// through unconditionally.
func RecordDiskCache(tel *telemetry.Telemetry, store *cachestore.Store) {
	if store == nil {
		return
	}
	st := store.Stats()
	tel.RecordDiskCache(telemetry.DiskCacheStats{
		LoadedEntries:  st.LoadedEntries,
		LoadedSegments: st.LoadedSegments,
		Hits:           st.Hits,
		Misses:         st.Misses,
		FlushedEntries: st.FlushedEntries,
		BytesOnDisk:    st.BytesOnDisk,
	})
}
