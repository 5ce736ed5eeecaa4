// Package genetic implements the paper's test-optimization GA (§5, fig. 5;
// §6): an evolutionary search over two chromosome types — vector test
// sequences and test conditions — run as multiple co-evolving island
// populations. Fitness is a real trip-point measurement delivered by an
// Evaluator (the ATE with the Search-Until-Trip-Point method), expressed as
// the Worst Case Ratio so "the worst case tests are given by the largest
// values of WCR". Stagnating populations restart from scratch, and the best
// tests of every era accumulate in the caller's worst-case database.
package genetic

import (
	"fmt"

	"repro/internal/testgen"
)

// Individual is one GA candidate: the pairing of a sequence chromosome with
// a conditions chromosome, plus its measured fitness.
type Individual struct {
	Seq  testgen.Sequence
	Cond testgen.Conditions

	Fitness   float64
	Evaluated bool

	// ID is a unique identifier assigned at creation, stable across
	// sorting, used to name the test on the ATE (pattern reload caching)
	// and in reports.
	ID int
}

// Test materializes the individual as a runnable characterization test.
func (ind *Individual) Test() testgen.Test {
	return testgen.Test{
		Name: fmt.Sprintf("GA-%06d", ind.ID),
		Seq:  ind.Seq,
		Cond: ind.Cond,
	}
}

// Clone deep-copies the individual (fitness and ID are reset by the
// caller when appropriate).
func (ind *Individual) Clone() *Individual {
	return &Individual{
		Seq:       ind.Seq.Clone(),
		Cond:      ind.Cond,
		Fitness:   ind.Fitness,
		Evaluated: ind.Evaluated,
		ID:        ind.ID,
	}
}

// Evaluator measures the fitness of a whole generation of candidate tests.
// Every unevaluated individual of a generation — all islands — arrives in a
// single FitnessBatch call, which is where the characterization flow fans
// ATE trip-point measurements (mapped through the WCR) across its fleet;
// unit tests wire synthetic surfaces. The returned slice must hold one
// fitness per test, index-aligned, and must not depend on how the
// implementation schedules the measurements. No two tests of a call share
// a sequence buffer, and a test's sequence is valid only until FitnessBatch
// returns: the optimizer then recycles the buffers of dropped individuals,
// so an implementation that keeps a test beyond the call must copy it.
type Evaluator interface {
	FitnessBatch(tests []testgen.Test) ([]float64, error)
}

// Seed is an unevaluated candidate injected into the initial population —
// the sub-optimal worst-case tests the fuzzy-neural test generator selects
// from its weight file (fig. 5 step 1).
type Seed struct {
	Seq  testgen.Sequence
	Cond testgen.Conditions
}
