package core

import (
	"slices"
	"testing"

	"repro/internal/parallel"
	"repro/internal/testgen"
)

// The tentpole guarantee of internal/parallel: any Parallelism value
// produces bit-identical results for the same seed. These tests pin that
// for the GA optimization path, the Table 1 comparison, and the replicated
// experiment, and pin the memo-cache's measurement savings.

func optimizeWith(t *testing.T, seed int64, parallelism int, disableCache bool) *OptimizationResult {
	t.Helper()
	cfg := quickConfig(seed)
	cfg.Parallelism = parallelism
	cfg.DisableMeasurementCache = disableCache
	char, err := NewCharacterizer(cfg, newTester(t, seed))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := char.Learn(); err != nil {
		t.Fatal(err)
	}
	res, err := char.Optimize()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestOptimizeDeterministicAcrossParallelism(t *testing.T) {
	serial := optimizeWith(t, 73, 1, false)
	for _, workers := range []int{2, 8} {
		par := optimizeWith(t, 73, workers, false)
		if par.GA.Best.Fitness != serial.GA.Best.Fitness {
			t.Errorf("parallelism=%d best fitness %g, serial %g", workers, par.GA.Best.Fitness, serial.GA.Best.Fitness)
		}
		if len(par.GA.BestHistory) != len(serial.GA.BestHistory) {
			t.Fatalf("parallelism=%d history length %d, serial %d", workers, len(par.GA.BestHistory), len(serial.GA.BestHistory))
		}
		for i := range serial.GA.BestHistory {
			if par.GA.BestHistory[i] != serial.GA.BestHistory[i] {
				t.Fatalf("parallelism=%d BestHistory[%d] = %g, serial %g", workers, i, par.GA.BestHistory[i], serial.GA.BestHistory[i])
			}
		}
		if par.GA.Evaluations != serial.GA.Evaluations {
			t.Errorf("parallelism=%d evaluations %d, serial %d", workers, par.GA.Evaluations, serial.GA.Evaluations)
		}
		if par.Measurements != serial.Measurements {
			t.Errorf("parallelism=%d measurements %d, serial %d", workers, par.Measurements, serial.Measurements)
		}
		if par.CacheHits != serial.CacheHits || par.CacheMisses != serial.CacheMisses {
			t.Errorf("parallelism=%d cache %d/%d, serial %d/%d",
				workers, par.CacheHits, par.CacheMisses, serial.CacheHits, serial.CacheMisses)
		}
		se, pe := serial.Database.Entries, par.Database.Entries
		if len(se) != len(pe) {
			t.Fatalf("parallelism=%d database size %d, serial %d", workers, len(pe), len(se))
		}
		for i := range se {
			if se[i].WCR != pe[i].WCR || se[i].Test.Name != pe[i].Test.Name {
				t.Fatalf("parallelism=%d database[%d] = %s/%g, serial %s/%g",
					workers, i, pe[i].Test.Name, pe[i].WCR, se[i].Test.Name, se[i].WCR)
			}
		}
	}
}

func TestProposeSeedsDeterministicAcrossParallelism(t *testing.T) {
	// The surrogate scoring pass fans ensemble voting across workers with
	// one scratch arena each; the ranked candidate list must stay
	// bit-identical for any worker count.
	proposeWith := func(parallelism int) []Candidate {
		cfg := quickConfig(41)
		cfg.Parallelism = parallelism
		char, err := NewCharacterizer(cfg, newTester(t, 41))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := char.Learn(); err != nil {
			t.Fatal(err)
		}
		cands, err := char.ProposeSeeds()
		if err != nil {
			t.Fatal(err)
		}
		return cands
	}
	serial := proposeWith(1)
	if len(serial) == 0 {
		t.Fatal("no candidates proposed")
	}
	for _, workers := range []int{2, 8} {
		par := proposeWith(workers)
		if len(par) != len(serial) {
			t.Fatalf("parallelism=%d proposed %d candidates, serial %d", workers, len(par), len(serial))
		}
		for i := range serial {
			if par[i].Test.Name != serial[i].Test.Name ||
				par[i].Severity != serial[i].Severity ||
				par[i].Confidence != serial[i].Confidence {
				t.Fatalf("parallelism=%d candidate %d = %s/%g/%g, serial %s/%g/%g",
					workers, i, par[i].Test.Name, par[i].Severity, par[i].Confidence,
					serial[i].Test.Name, serial[i].Severity, serial[i].Confidence)
			}
		}
	}
}

func smallTable1Config(seed int64) Table1Config {
	return Table1Config{
		Flow:             quickConfig(seed),
		RandomTests:      80,
		MarchWindowWords: 30,
	}
}

func TestTable1DeterministicAcrossParallelism(t *testing.T) {
	run := func(parallelism int) *Table1 {
		cfg := smallTable1Config(71)
		cfg.Flow.Parallelism = parallelism
		tab, err := RunTable1(cfg, newTester(t, 71))
		if err != nil {
			t.Fatal(err)
		}
		return tab
	}
	serial := run(1)
	par := run(8)
	if len(serial.Rows) != len(par.Rows) {
		t.Fatalf("row counts differ: %d vs %d", len(serial.Rows), len(par.Rows))
	}
	for i := range serial.Rows {
		s, p := serial.Rows[i], par.Rows[i]
		if s != p {
			t.Errorf("row %d differs:\nserial   %+v\nparallel %+v", i, s, p)
		}
	}
	if serial.Stats != par.Stats {
		t.Errorf("stats differ:\nserial   %+v\nparallel %+v", serial.Stats, par.Stats)
	}
	if serial.CacheHits != par.CacheHits || serial.CacheMisses != par.CacheMisses {
		t.Errorf("cache hits/misses differ: serial %d/%d, parallel %d/%d",
			serial.CacheHits, serial.CacheMisses, par.CacheHits, par.CacheMisses)
	}
}

// TestMeasureTestsPreloadsEachTestsOwnPattern streams two batches whose
// tests share names, as Table 1's two generators do, through the same
// persistent insertions: every delivery must find its own test's pattern
// loaded, at the cost of one pattern load per test. The second batch runs
// in reverse, so on one worker its first test shares its name with the
// pattern the insertion loaded last.
func TestMeasureTestsPreloadsEachTestsOwnPattern(t *testing.T) {
	for _, workers := range []int{1, 3} {
		cfg := quickConfig(5)
		cfg.Parallelism = workers
		tester := newTester(t, 5)
		char, err := NewCharacterizer(cfg, tester)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := tester.Device().Clone()
		if err != nil {
			t.Fatal(err)
		}
		for _, seed := range []int64{1, 2} {
			gen := testgen.NewRandomGenerator(seed, ref.Geometry().Words(), testgen.DefaultConditionLimits())
			tests := gen.Batch(7)
			if seed == 2 {
				slices.Reverse(tests)
			}
			tester.ResetStats()
			err := char.measureTests(tests, func(i int) error {
				got, err := tester.Profile(tests[i])
				if err != nil {
					return err
				}
				want, err := ref.Profile(tests[i])
				if err != nil {
					return err
				}
				if got.Act != want.Act || got.Func.Mismatches != want.Func.Mismatches {
					t.Errorf("workers %d, generator %d: %s loaded another test's pattern", workers, seed, tests[i].Name)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if got := tester.Stats().Profiles; got != int64(len(tests)) {
				t.Errorf("workers %d, generator %d: %d pattern loads for %d tests", workers, seed, got, len(tests))
			}
		}
		char.Close()
	}
}

// TestMeasureTestsLeavesFailedPatternToTester: a test whose pattern cannot
// execute fails where the tester's own load would fail it, with the same
// error, after every earlier test was measured and before any later one.
func TestMeasureTestsLeavesFailedPatternToTester(t *testing.T) {
	tester := newTester(t, 9)
	cfg := quickConfig(9)
	cfg.Parallelism = 2
	char, err := NewCharacterizer(cfg, tester)
	if err != nil {
		t.Fatal(err)
	}
	defer char.Close()
	gen := testgen.NewRandomGenerator(9, tester.Device().Geometry().Words(), testgen.DefaultConditionLimits())
	tests := gen.Batch(4)
	tests[2].Seq = testgen.Sequence{{Op: testgen.OpRead, Addr: tester.Device().Geometry().Words()}}
	_, want := newTester(t, 9).FunctionalPass(tests[2])
	if want == nil {
		t.Fatal("the out-of-range test executed")
	}
	var measured []int
	err = char.measureTests(tests, func(i int) error {
		measured = append(measured, i)
		_, err := tester.FunctionalPass(tests[i])
		return err
	})
	if err == nil || err.Error() != want.Error() {
		t.Fatalf("error %v, want the tester's own %v", err, want)
	}
	if !slices.Equal(measured, []int{0, 1, 2}) {
		t.Errorf("measured %v, want [0 1 2]", measured)
	}
}

func TestReplicatedDeterministicAcrossWorkers(t *testing.T) {
	run := func(f *parallel.Fleet) *ReplicationReport {
		rep, err := RunTable1Replicated(f, smallTable1Config(41), 41, 2)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	serial := run(nil)
	f := parallel.NewFleet(4)
	defer f.Close()
	par := run(f)
	if serial.OrderingHeld != par.OrderingHeld || serial.NNGAInWeakness != par.NNGAInWeakness {
		t.Errorf("qualitative counts differ: serial %d/%d, parallel %d/%d",
			serial.OrderingHeld, serial.NNGAInWeakness, par.OrderingHeld, par.NNGAInWeakness)
	}
	if len(serial.Rows) != len(par.Rows) {
		t.Fatalf("row counts differ: %d vs %d", len(serial.Rows), len(par.Rows))
	}
	for i := range serial.Rows {
		if serial.Rows[i] != par.Rows[i] {
			t.Errorf("row %d stats differ:\nserial   %+v\nparallel %+v", i, serial.Rows[i], par.Rows[i])
		}
	}
}

func TestCharacterizerCloseIdempotent(t *testing.T) {
	char, err := NewCharacterizer(quickConfig(7), newTester(t, 7))
	if err != nil {
		t.Fatal(err)
	}
	if f := char.Fleet(); f == nil {
		t.Fatal("Fleet() returned nil")
	}
	char.Close()
	char.Close()
}

func TestMeasurementCacheMemoizes(t *testing.T) {
	cfg := quickConfig(11)
	cfg.Parallelism = 3
	char, err := NewCharacterizer(cfg, newTester(t, 11))
	if err != nil {
		t.Fatal(err)
	}
	eval := newEvaluator(char)
	tests := char.Generator().Batch(5)
	// Duplicate content under a different name must share one measurement.
	dup := tests[2].Clone()
	dup.Name = "duplicate-of-2"
	tests = append(tests, dup)

	first, err := eval.FitnessBatch(tests)
	if err != nil {
		t.Fatal(err)
	}
	if first[5] != first[2] {
		t.Errorf("structural duplicate measured differently: %g vs %g", first[5], first[2])
	}
	if eval.evaluations != 5 {
		t.Errorf("first batch performed %d searches, want 5 (dedupe)", eval.evaluations)
	}

	before := char.ate.Stats().Measurements
	second, err := eval.FitnessBatch(tests)
	if err != nil {
		t.Fatal(err)
	}
	if spent := char.ate.Stats().Measurements - before; spent != 0 {
		t.Errorf("re-evaluating memoized tests spent %d ATE measurements", spent)
	}
	for i := range first {
		if second[i] != first[i] {
			t.Errorf("memoized fitness %d changed: %g vs %g", i, second[i], first[i])
		}
	}
	if eval.cacheHits() < int64(len(tests)) {
		t.Errorf("cache hits = %d, want at least %d", eval.cacheHits(), len(tests))
	}
}

func TestMeasurementCacheReducesGAWork(t *testing.T) {
	cached := optimizeWith(t, 73, 4, false)
	uncached := optimizeWith(t, 73, 4, true)
	if cached.CacheHits == 0 {
		t.Error("GA run produced no cache hits; duplicate individuals were expected")
	}
	if cached.Measurements >= uncached.Measurements {
		t.Errorf("cache did not reduce ATE measurements: cached %d, uncached %d",
			cached.Measurements, uncached.Measurements)
	}
	if uncached.CacheHits != 0 {
		t.Errorf("disabled cache reported %d hits", uncached.CacheHits)
	}
}

// TestEvaluatorFixedConditions guards the GA contract that fixed
// conditions flow into every measured test (Table 1 pins Vdd 1.8 V).
func TestEvaluatorFixedConditions(t *testing.T) {
	cfg := quickConfig(13)
	if cfg.FixedConditions == nil {
		t.Fatal("quickConfig should pin conditions")
	}
	char, err := NewCharacterizer(cfg, newTester(t, 13))
	if err != nil {
		t.Fatal(err)
	}
	eval := newEvaluator(char)
	tt := char.Generator().Next()
	if tt.Cond != *cfg.FixedConditions {
		t.Fatalf("generator ignored fixed conditions: %+v", tt.Cond)
	}
	if _, err := eval.FitnessBatch([]testgen.Test{tt}); err != nil {
		t.Fatal(err)
	}
	if eval.evaluations != 1 {
		t.Errorf("one-test batch performed %d searches", eval.evaluations)
	}
}
