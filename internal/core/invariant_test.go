// Property-based bit-equivalence invariants for the measurement pipeline,
// generated by internal/proptest: GA fitness evaluation, seed proposal and
// lot screening must produce bit-identical numbers for any worker count
// and — with measurement noise disabled, so duplicates re-measure to the
// same value — with the memo-cache on or off. These are the determinism
// contracts internal/parallel promises, checked end to end through the
// real evaluator, ATE and device stack on generated inputs rather than the
// fixed seeds of the example-based tests.
package core

import (
	"reflect"
	"testing"

	"repro/internal/ate"
	"repro/internal/dut"
	"repro/internal/parallel"
	"repro/internal/proptest"
	"repro/internal/testgen"
)

// noiselessEvaluator builds an evaluator over a fresh tester with
// gaussian measurement noise disabled, the configuration under which
// cache-off re-measurement of a duplicate test is bit-identical to the
// cached value.
func noiselessEvaluator(t *testing.T, seed int64, workers int, disableCache bool) *evaluator {
	t.Helper()
	cfg := quickConfig(seed)
	cfg.Parallelism = workers
	cfg.DisableMeasurementCache = disableCache
	tester := newTester(t, seed)
	tester.NoiseFraction = 0
	char, err := NewCharacterizer(cfg, tester)
	if err != nil {
		t.Fatal(err)
	}
	return newEvaluator(char)
}

// genUniqueTests draws n tests with pairwise distinct fingerprints (the
// dedupe key), discarding the case in the astronomically unlikely event
// the generator cannot produce them.
func genUniqueTests(pt *proptest.T, n int, words uint32, limits testgen.ConditionLimits) []testgen.Test {
	seen := make(map[uint64]bool, n)
	tests := make([]testgen.Test, 0, n)
	for len(tests) < n {
		tt := proptest.GenTest(pt, words, limits, 1, 30)
		if seen[tt.Fingerprint()] {
			pt.Discard()
		}
		seen[tt.Fingerprint()] = true
		tests = append(tests, tt)
	}
	return tests
}

// TestFitnessBatchBitEquivalentAcrossWorkersAndCache: one generated batch
// of tests — with deliberate duplicates, so dedupe and memoization paths
// both fire — evaluated serial/parallel × cache-on/cache-off must yield
// four bit-identical fitness vectors.
//
// The duplicates deliberately clone only non-first tests: the first test
// is the one whose value comes from the RTP-establishing full-range
// search (eq. 2), so a cache-off re-measurement of its clone runs SUTP
// instead and lands within the resolution but not on the identical bit
// pattern. Every SUTP-measured test re-measures bit-identically once the
// noise is off.
func TestFitnessBatchBitEquivalentAcrossWorkersAndCache(t *testing.T) {
	proptest.Check(t, 6, func(pt *proptest.T) {
		seed := pt.Int64Range(1, 1<<40)
		workers := pt.IntRange(2, 8)
		limits := testgen.DefaultConditionLimits()
		words := dut.DefaultGeometry().Words()

		n := pt.IntRange(4, 10)
		tests := genUniqueTests(pt, n, words, limits)
		for i := 0; i < 3; i++ { // duplicates of random non-first batch members
			tests = append(tests, tests[pt.IntRange(1, n-1)])
		}
		pt.Logf("seed=%d workers=%d batch=%d (3 duplicates)", seed, workers, len(tests))

		baseline, err := noiselessEvaluator(t, seed, 1, false).FitnessBatch(tests)
		if err != nil {
			pt.Fatalf("serial cached evaluation: %v", err)
		}
		variants := []struct {
			label        string
			workers      int
			disableCache bool
		}{
			{"parallel+cache", workers, false},
			{"serial+nocache", 1, true},
			{"parallel+nocache", workers, true},
		}
		for _, v := range variants {
			got, err := noiselessEvaluator(t, seed, v.workers, v.disableCache).FitnessBatch(tests)
			if err != nil {
				pt.Fatalf("%s evaluation: %v", v.label, err)
			}
			for i := range baseline {
				if got[i] != baseline[i] {
					pt.Errorf("%s: fitness[%d] = %v, serial cached = %v", v.label, i, got[i], baseline[i])
				}
			}
		}
	})
}

// TestFitnessBatchOrderInvariance: once the reference trip point is
// anchored by the batch's first test, every later test's fitness is a pure
// function of the test alone — so permuting the rest of the batch must
// assign every test the identical value. (The first test stays put: it is
// the eq. 2 anchor, and moving it moves the RTP every SUTP search starts
// from.) This is the property that makes elite carry-over and migration
// between GA islands sound.
func TestFitnessBatchOrderInvariance(t *testing.T) {
	proptest.Check(t, 4, func(pt *proptest.T) {
		seed := pt.Int64Range(1, 1<<40)
		limits := testgen.DefaultConditionLimits()
		words := dut.DefaultGeometry().Words()
		n := pt.IntRange(4, 8)
		tests := genUniqueTests(pt, n, words, limits)
		// A generated permutation of indices 1..n-1, keeping the anchor.
		perm := make([]int, n)
		for i := range perm {
			perm[i] = i
		}
		for i := n - 1; i > 1; i-- {
			j := pt.IntRange(1, i)
			perm[i], perm[j] = perm[j], perm[i]
		}
		pt.Logf("seed=%d n=%d perm=%v", seed, n, perm)

		forward, err := noiselessEvaluator(t, seed, 1, false).FitnessBatch(tests)
		if err != nil {
			pt.Fatalf("forward evaluation: %v", err)
		}
		shuffled := make([]testgen.Test, n)
		for i, p := range perm {
			shuffled[i] = tests[p]
		}
		permuted, err := noiselessEvaluator(t, seed, 1, false).FitnessBatch(shuffled)
		if err != nil {
			pt.Fatalf("permuted evaluation: %v", err)
		}
		for i, p := range perm {
			if permuted[i] != forward[p] {
				pt.Errorf("test %d scored %v in original order, %v after permutation", p, forward[p], permuted[i])
			}
		}
	})
}

// TestProposeSeedsBitEquivalentAcrossWorkers: the full learn → propose
// pipeline on generated seeds must emit the identical ranked candidate
// list for any worker count (Learn and the NN scoring fan-out both run on
// the deterministic pool).
func TestProposeSeedsBitEquivalentAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full learning phase twice per case")
	}
	proptest.Check(t, 2, func(pt *proptest.T) {
		seed := pt.Int64Range(1, 1<<40)
		workers := pt.IntRange(2, 8)
		pt.Logf("seed=%d workers=%d", seed, workers)

		propose := func(parallelism int) []Candidate {
			cfg := quickConfig(seed)
			cfg.Parallelism = parallelism
			char, err := NewCharacterizer(cfg, newTester(t, seed))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := char.Learn(); err != nil {
				pt.Fatalf("Learn(parallelism=%d): %v", parallelism, err)
			}
			cands, err := char.ProposeSeeds()
			if err != nil {
				pt.Fatalf("ProposeSeeds(parallelism=%d): %v", parallelism, err)
			}
			return cands
		}
		serial := propose(1)
		par := propose(workers)
		if len(serial) != len(par) {
			pt.Fatalf("candidate counts differ: %d vs %d", len(serial), len(par))
		}
		for i := range serial {
			if serial[i].Severity != par[i].Severity || serial[i].Confidence != par[i].Confidence ||
				serial[i].Test.Fingerprint() != par[i].Test.Fingerprint() {
				pt.Errorf("candidate %d differs: serial {sev=%v conf=%v} parallel {sev=%v conf=%v}",
					i, serial[i].Severity, serial[i].Confidence, par[i].Severity, par[i].Confidence)
			}
		}
	})
}

// TestScreenLotBitEquivalentAcrossWorkers: screening a generated lot of
// dies must produce a report identical to the serial screen for any worker
// count — per-die insertions are hermetic and seeded by die ID, so
// multi-site parallelism may not leak into any reported number.
func TestScreenLotBitEquivalentAcrossWorkers(t *testing.T) {
	proptest.Check(t, 6, func(pt *proptest.T) {
		seed := pt.Int64Range(1, 1<<40)
		workers := pt.IntRange(2, 8)
		geom := dut.DefaultGeometry()
		limits := testgen.DefaultConditionLimits()
		param := proptest.Pick(pt, []ate.Parameter{ate.TDQ, ate.Fmax, ate.VddMin})

		dies := make([]*dut.Die, pt.IntRange(2, 5))
		for i := range dies {
			dies[i] = proptest.GenDie(pt, i, geom.Words())
		}
		tests := make([]testgen.Test, pt.IntRange(1, 3))
		for i := range tests {
			tests[i] = proptest.GenTest(pt, geom.Words(), limits, 1, 25)
		}
		pt.Logf("seed=%d workers=%d param=%s dies=%d tests=%d", seed, workers, param, len(dies), len(tests))

		serial, err := screenDies(param, tests, dies, geom, seed, nil)
		if err != nil {
			pt.Fatalf("serial screen: %v", err)
		}
		f := parallel.NewFleet(workers)
		defer f.Close()
		par, err := screenDies(param, tests, dies, geom, seed, f)
		if err != nil {
			pt.Fatalf("parallel screen: %v", err)
		}
		if !reflect.DeepEqual(serial, par) {
			pt.Errorf("lot reports differ between serial and %d workers:\nserial:   %+v\nparallel: %+v",
				workers, serial, par)
		}
	})
}
