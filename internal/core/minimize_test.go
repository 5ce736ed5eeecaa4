package core

import (
	"testing"

	"repro/internal/testgen"
)

// paddedWorstTest builds a test whose provoking core (coordinated
// write pairs) is surrounded by benign filler the minimizer should strip.
func paddedWorstTest() testgen.Test {
	pairs, err := testgen.BusThrash(dutWords(), 300, testgen.NominalConditions())
	if err != nil {
		panic(err)
	}
	seq := make(testgen.Sequence, 0, 1000)
	// 200 benign read vectors of filler up front.
	for i := 0; i < 200; i++ {
		seq = append(seq, testgen.Vector{Op: testgen.OpRead, Addr: uint32(i % 8)})
	}
	// The provoking core: 150 coordinated pairs.
	seq = append(seq, pairs.Seq...)
	// 200 more benign vectors after.
	for i := 0; i < 200; i++ {
		seq = append(seq, testgen.Vector{Op: testgen.OpRead, Addr: uint32(i % 8)})
	}
	return testgen.Test{Name: "PADDED", Seq: seq, Cond: testgen.NominalConditions()}
}

func TestMinimizeStripsFiller(t *testing.T) {
	char, err := NewCharacterizer(quickConfig(77), newTester(t, 77))
	if err != nil {
		t.Fatal(err)
	}
	orig := paddedWorstTest()
	res, err := char.Minimize(orig, DefaultMinimizeConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Minimized.Seq) >= len(orig.Seq)/2 {
		t.Errorf("minimizer kept %d of %d vectors", len(res.Minimized.Seq), len(orig.Seq))
	}
	if res.MinimizedWCR < res.OriginalWCR-0.05 {
		t.Errorf("minimized WCR %.3f lost too much severity vs %.3f",
			res.MinimizedWCR, res.OriginalWCR)
	}
	if res.ReductionFactor() < 2 {
		t.Errorf("reduction factor %.1f", res.ReductionFactor())
	}
	if res.Probes <= 0 {
		t.Error("no probe accounting")
	}
	// The survivors must be dominated by the provoking writes.
	writes := res.Minimized.Seq.Writes()
	if float64(writes)/float64(len(res.Minimized.Seq)) < 0.6 {
		t.Errorf("minimized test only %d/%d writes; filler survived",
			writes, len(res.Minimized.Seq))
	}
}

func TestMinimizeRespectsProbeBudget(t *testing.T) {
	char, err := NewCharacterizer(quickConfig(79), newTester(t, 79))
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultMinimizeConfig()
	cfg.MaxProbes = 10
	res, err := char.Minimize(paddedWorstTest(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	// +1: the final verification measurement is always taken.
	if res.Probes > cfg.MaxProbes+1 {
		t.Errorf("probes %d exceeded budget %d", res.Probes, cfg.MaxProbes)
	}
}

func TestMinimizeEmptyTest(t *testing.T) {
	char, err := NewCharacterizer(quickConfig(81), newTester(t, 81))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := char.Minimize(testgen.Test{Name: "e"}, DefaultMinimizeConfig()); err == nil {
		t.Error("empty test accepted")
	}
}

func TestMinimizeRespectsMinVectors(t *testing.T) {
	char, err := NewCharacterizer(quickConfig(83), newTester(t, 83))
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultMinimizeConfig()
	cfg.MinVectors = 100
	res, err := char.Minimize(paddedWorstTest(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Minimized.Seq) < 100 {
		t.Errorf("minimized below MinVectors: %d", len(res.Minimized.Seq))
	}
}

func TestReductionFactorEdgeCases(t *testing.T) {
	r := MinimizeResult{
		Original:  testgen.Test{Seq: make(testgen.Sequence, 100)},
		Minimized: testgen.Test{Seq: make(testgen.Sequence, 25)},
	}
	if r.ReductionFactor() != 4 {
		t.Errorf("reduction %g", r.ReductionFactor())
	}
	r.Minimized.Seq = nil
	if r.ReductionFactor() != 0 {
		t.Error("empty minimized sequence should report factor 0")
	}
}
