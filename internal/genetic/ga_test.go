package genetic

import (
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/testgen"
)

// activityFitness is a synthetic evaluator rewarding data-bus toggling —
// smooth enough for the GA to climb, no device model needed.
func activityFitness(t testgen.Test) (float64, error) {
	limits := testgen.DefaultConditionLimits()
	f := testgen.ExtractFeatures(t, limits)
	return 0.2 + 0.5*f[testgen.FeatToggleMean] + 0.3*f[testgen.FeatATDMean], nil
}

func newOps(seed int64) *Operators {
	gen := testgen.NewRandomGenerator(seed, 4096, testgen.DefaultConditionLimits())
	return NewOperators(seed, gen)
}

func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.PopSize = 12
	cfg.Islands = 2
	cfg.MaxGenerations = 20
	cfg.StagnationLimit = 6
	return cfg
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
	bad := DefaultConfig()
	bad.PopSize = 1
	if err := bad.Validate(); err == nil {
		t.Error("population of 1 accepted")
	}
	bad = DefaultConfig()
	bad.Islands = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero islands accepted")
	}
	bad = DefaultConfig()
	bad.Elite = bad.PopSize
	if err := bad.Validate(); err == nil {
		t.Error("all-elite population accepted")
	}
	bad = DefaultConfig()
	bad.MaxGenerations = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero generations accepted")
	}
}

func TestNewOptimizerValidation(t *testing.T) {
	if _, err := NewOptimizer(smallConfig(), nil, EvaluatorFunc(activityFitness)); err == nil {
		t.Error("nil operators accepted")
	}
	if _, err := NewOptimizer(smallConfig(), newOps(1), nil); err == nil {
		t.Error("nil evaluator accepted")
	}
	bad := smallConfig()
	bad.PopSize = 0
	if _, err := NewOptimizer(bad, newOps(1), EvaluatorFunc(activityFitness)); err == nil {
		t.Error("invalid config accepted")
	}
}

func TestGAImprovesFitness(t *testing.T) {
	opt, err := NewOptimizer(smallConfig(), newOps(5), EvaluatorFunc(activityFitness))
	if err != nil {
		t.Fatal(err)
	}
	res, err := opt.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Best == nil {
		t.Fatal("no best individual")
	}
	first, last := res.BestHistory[0], res.BestHistory[len(res.BestHistory)-1]
	if last < first {
		t.Errorf("best fitness regressed: %g → %g", first, last)
	}
	if last <= first+0.01 {
		t.Errorf("GA made no progress: %g → %g", first, last)
	}
	if res.Evaluations == 0 || res.Generations == 0 {
		t.Error("accounting missing")
	}
}

func TestGABestHistoryMonotone(t *testing.T) {
	opt, _ := NewOptimizer(smallConfig(), newOps(7), EvaluatorFunc(activityFitness))
	res, err := opt.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(res.BestHistory); i++ {
		if res.BestHistory[i] < res.BestHistory[i-1]-1e-12 {
			t.Fatalf("global best decreased at generation %d", i)
		}
	}
}

func TestGATargetStopsEarly(t *testing.T) {
	cfg := smallConfig()
	cfg.TargetFitness = 0.4 // easily reached
	cfg.MaxGenerations = 50
	opt, _ := NewOptimizer(cfg, newOps(9), EvaluatorFunc(activityFitness))
	res, err := opt.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.TargetHit {
		t.Error("target never hit")
	}
	if res.Generations == 50 {
		t.Error("ran to the cap despite hitting the target")
	}
}

func TestGASeedsEnterPopulation(t *testing.T) {
	// A seed engineered to be optimal must become the best individual
	// immediately (elitism keeps it).
	seq := make(testgen.Sequence, 200)
	for i := range seq {
		d := uint32(0)
		if i%2 == 1 {
			d = 0xFFFFFFFF
		}
		addr := uint32(0)
		if i%2 == 1 {
			addr = 4095
		}
		seq[i] = testgen.Vector{Op: testgen.OpWrite, Addr: addr, Data: d}
	}
	seed := Seed{Seq: seq, Cond: testgen.NominalConditions()}

	cfg := smallConfig()
	cfg.MaxGenerations = 2
	opt, _ := NewOptimizer(cfg, newOps(11), EvaluatorFunc(activityFitness))
	res, err := opt.Run([]Seed{seed})
	if err != nil {
		t.Fatal(err)
	}
	want, _ := activityFitness(testgen.Test{Name: "seed", Seq: seq, Cond: seed.Cond})
	if res.Best.Fitness < want-1e-9 {
		t.Errorf("seeded optimum lost: best %g, seed fitness %g", res.Best.Fitness, want)
	}
}

func TestGAFixedConditions(t *testing.T) {
	nominal := testgen.NominalConditions()
	cfg := smallConfig()
	cfg.FixedConditions = &nominal
	evalCount := 0
	eval := EvaluatorFunc(func(tt testgen.Test) (float64, error) {
		evalCount++
		if tt.Cond != nominal {
			t.Fatalf("individual escaped fixed conditions: %+v", tt.Cond)
		}
		return activityFitness(tt)
	})
	opt, _ := NewOptimizer(cfg, newOps(13), eval)
	if _, err := opt.Run(nil); err != nil {
		t.Fatal(err)
	}
	if evalCount == 0 {
		t.Fatal("nothing evaluated")
	}
}

func TestGARestartsOnStagnation(t *testing.T) {
	// A constant fitness surface stagnates immediately: with a small
	// stagnation limit the optimizer must restart populations.
	cfg := smallConfig()
	cfg.StagnationLimit = 2
	cfg.MaxGenerations = 15
	eval := EvaluatorFunc(func(testgen.Test) (float64, error) { return 0.5, nil })
	opt, _ := NewOptimizer(cfg, newOps(15), eval)
	res, err := opt.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Restarts == 0 {
		t.Error("no restarts on a flat surface")
	}
	if len(res.EraBests) == 0 {
		t.Error("era bests not banked")
	}
}

func TestGAEraBestsSorted(t *testing.T) {
	cfg := smallConfig()
	cfg.StagnationLimit = 2
	opt, _ := NewOptimizer(cfg, newOps(17), EvaluatorFunc(activityFitness))
	res, err := opt.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(res.EraBests); i++ {
		if res.EraBests[i].Fitness > res.EraBests[i-1].Fitness {
			t.Fatal("era bests not sorted worst-first")
		}
	}
}

func TestGAEvaluationErrorPropagates(t *testing.T) {
	eval := EvaluatorFunc(func(testgen.Test) (float64, error) {
		return 0, errTest
	})
	opt, _ := NewOptimizer(smallConfig(), newOps(19), eval)
	_, err := opt.Run(nil)
	if !errors.Is(err, errTest) {
		t.Fatalf("evaluator error swallowed: %v", err)
	}
	// The first individual measured names the failure.
	if !strings.Contains(err.Error(), "GA-000001") {
		t.Errorf("failing test's name missing from %q", err)
	}
}

var errTest = &testError{}

type testError struct{}

func (*testError) Error() string { return "synthetic evaluation failure" }

func TestIndividualTestNaming(t *testing.T) {
	ind := &Individual{ID: 42, Seq: testgen.Sequence{{Op: testgen.OpNop}}, Cond: testgen.NominalConditions()}
	if got := ind.Test().Name; got != "GA-000042" {
		t.Errorf("test name %q", got)
	}
	c := ind.Clone()
	c.Seq[0].Op = testgen.OpRead
	if ind.Seq[0].Op != testgen.OpNop {
		t.Error("Clone shares sequence storage")
	}
}

func TestGADeterminism(t *testing.T) {
	run := func() float64 {
		opt, _ := NewOptimizer(smallConfig(), newOps(21), EvaluatorFunc(activityFitness))
		res, err := opt.Run(nil)
		if err != nil {
			t.Fatal(err)
		}
		return res.Best.Fitness
	}
	if a, b := run(), run(); math.Abs(a-b) > 1e-12 {
		t.Errorf("same-seed GA runs diverged: %g vs %g", a, b)
	}
}

func TestGAOnGenerationCallback(t *testing.T) {
	cfg := smallConfig()
	cfg.MaxGenerations = 8
	var gens []int
	var bests []float64
	cfg.OnGeneration = func(gen int, best float64) {
		gens = append(gens, gen)
		bests = append(bests, best)
	}
	opt, err := NewOptimizer(cfg, newOps(23), EvaluatorFunc(activityFitness))
	if err != nil {
		t.Fatal(err)
	}
	res, err := opt.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(gens) != res.Generations {
		t.Fatalf("callback fired %d times over %d generations", len(gens), res.Generations)
	}
	for i, g := range gens {
		if g != i {
			t.Errorf("generation index %d at position %d", g, i)
		}
	}
	for i, b := range bests {
		if b != res.BestHistory[i] {
			t.Errorf("callback best %g != history %g at gen %d", b, res.BestHistory[i], i)
		}
	}
}
