package core

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"testing"
	"time"

	"repro/internal/fuzzy"
	"repro/internal/neural"
	"repro/internal/parallel"
	"repro/internal/proptest"
	"repro/internal/testgen"
)

// referenceProposeSeeds is ProposeSeeds as it ranked before the chunked
// draw: every candidate drawn with Next and live at once, scored serially,
// stably sorted by severity then confidence (both descending) and
// truncated to seedCount.
func referenceProposeSeeds(t *testing.T, gen *testgen.RandomGenerator, ens *neural.Ensemble, coder *fuzzy.TripPointCoder, pool, seedCount int) []Candidate {
	t.Helper()
	cands := make([]Candidate, pool)
	s := ens.NewScratch()
	for i := range cands {
		cands[i].Test = gen.Next()
		pred, conf, err := ens.VoteInto(s, testgen.ExtractFeatures(cands[i].Test, gen.Limits()))
		if err != nil {
			t.Fatal(err)
		}
		cands[i].Severity = coder.Severity(pred)
		cands[i].Confidence = conf
	}
	return sortAndTruncate(cands, seedCount)
}

// sortAndTruncate is the reference ranking: a stable sort by severity, then
// confidence, both descending.
func sortAndTruncate(cands []Candidate, k int) []Candidate {
	sort.SliceStable(cands, func(i, j int) bool {
		if cands[i].Severity != cands[j].Severity {
			return cands[i].Severity > cands[j].Severity
		}
		return cands[i].Confidence > cands[j].Confidence
	})
	return cands[:min(len(cands), k)]
}

// sameCandidates reports the first difference between two rankings: name,
// sequence, conditions, severity or confidence.
func sameCandidates(got, want []Candidate) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d candidates, reference %d", len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Test.Name != w.Test.Name || !slices.Equal(g.Test.Seq, w.Test.Seq) || g.Test.Cond != w.Test.Cond ||
			g.Severity != w.Severity || g.Confidence != w.Confidence {
			return fmt.Errorf("candidate %d is %s/%g/%g, reference %s/%g/%g",
				i, g.Test.Name, g.Severity, g.Confidence, w.Test.Name, w.Severity, w.Confidence)
		}
	}
	return nil
}

// TestProposeSeedsMatchesFullSortReference runs the chunked ProposeSeeds
// against the full-pool reference for pools at and around the chunk
// boundaries, on fleets of one, two and three workers (a Characterizer's
// fleet is never nil; a fleet of one runs inline as a nil fleet does). The
// seeds and the generator's next draw must match the reference's.
func TestProposeSeedsMatchesFullSortReference(t *testing.T) {
	const seed, seedCount = 67, 24
	_, learned := learnedCharacterizer(t, seed)
	for _, pool := range []int{seedCount, drawChunk - 1, drawChunk, drawChunk + 1, 3*drawChunk + 5, 1500} {
		cfg := quickConfig(seed)
		cfg.CandidatePool, cfg.SeedCount = pool, seedCount
		for _, workers := range []int{1, 2, 3} {
			cfg.Parallelism = workers
			char, err := NewCharacterizer(cfg, newTester(t, seed))
			if err != nil {
				t.Fatal(err)
			}
			char.learned = learned
			ref := testgen.NewRandomGenerator(cfg.Seed, char.ate.Device().Geometry().Words(), testgen.DefaultConditionLimits())
			ref.FixedConditions = cfg.FixedConditions
			want := referenceProposeSeeds(t, ref, learned.Ensemble, char.coder, pool, seedCount)
			got, err := char.ProposeSeeds()
			char.Close()
			if err != nil {
				t.Fatal(err)
			}
			if err := sameCandidates(got, want); err != nil {
				t.Fatalf("pool %d, %d workers: %v", pool, workers, err)
			}
			if g, w := char.gen.Next(), ref.Next(); g.Name != w.Name || !slices.Equal(g.Seq, w.Seq) || g.Cond != w.Cond {
				t.Fatalf("pool %d, %d workers: next draw %s differs from the reference's %s", pool, workers, g.Name, w.Name)
			}
		}
	}
}

// TestProposeSeedsMergeMatchesStableSortProperty merges random candidates
// one at a time with rankCandidate, each lent in one shared buffer that is
// overwritten after its merge, and compares the ranking with the stable
// sort and truncation of all of them. Severities come from at most four
// values and confidences from at most three, so ties are common.
func TestProposeSeedsMergeMatchesStableSortProperty(t *testing.T) {
	proptest.Check(t, 1000, func(pt *proptest.T) {
		k := pt.IntRange(1, 30)
		n := pt.IntRange(0, 120)
		sevs := make([]float64, pt.IntRange(1, 4))
		confs := make([]float64, pt.IntRange(1, 3))
		for i := range sevs {
			sevs[i] = pt.Float01()
		}
		for i := range confs {
			confs[i] = pt.Float01()
		}
		all := make([]Candidate, n)
		var ranked []Candidate
		lent := make(testgen.Sequence, 0, 8)
		for i := range all {
			seq := make(testgen.Sequence, pt.IntRange(1, 8))
			for j := range seq {
				seq[j] = testgen.Vector{Op: testgen.OpWrite, Addr: uint32(i), Data: pt.Uint32()}
			}
			all[i] = Candidate{
				Test:       testgen.Test{Name: fmt.Sprintf("C%d", i), Seq: seq},
				Severity:   proptest.Pick(pt, sevs),
				Confidence: proptest.Pick(pt, confs),
			}
			cand := all[i]
			lent = append(lent[:0], seq...)
			cand.Test.Seq = lent
			ranked = rankCandidate(ranked, k, cand)
			for j := range lent {
				lent[j] = testgen.Vector{}
			}
		}
		if err := sameCandidates(ranked, sortAndTruncate(all, k)); err != nil {
			pt.Fatalf("k=%d n=%d: %v", k, n, err)
		}
	})
}

// sameTest reports whether two tests have one name, sequence and
// conditions.
func sameTest(a, b testgen.Test) bool {
	return a.Name == b.Name && slices.Equal(a.Seq, b.Seq) && a.Cond == b.Cond
}

// drawFleet returns a fleet of the given size for the drawTests tests;
// size 0 stands for the nil fleet.
func drawFleet(size int) *parallel.Fleet {
	if size == 0 {
		return nil
	}
	return parallel.NewFleet(size)
}

// waitGoroutinesAtMost fails unless the goroutine count falls to baseline
// within a few seconds: a goroutine that closed its done channel may still
// be exiting, one that never ends is a leak.
func waitGoroutinesAtMost(t *testing.T, baseline int, context string) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if runtime.NumGoroutine() <= baseline {
			return
		}
	}
	t.Fatalf("%s: %d goroutines remain, %d before drawTests", context, runtime.NumGoroutine(), baseline)
}

// TestDrawTestsMatchesSerialDraws runs drawTests for counts at and around
// both chunk sizes on a nil fleet and on fleets of one, two and three
// workers, and checks every chunk against a reference stream of Next
// draws: its first index and length (drawChunk on a fleet of one, half
// that on a larger one), and each test's name, sequence and conditions,
// both when use starts and when it returns (the next chunk is being drawn
// meanwhile on a larger fleet). The generator's next draw must be the
// reference's, and a fleet of one must draw inline: no goroutine runs
// beside the caller while use runs, and none is left after.
func TestDrawTestsMatchesSerialDraws(t *testing.T) {
	const words = 1024
	for _, n := range []int{1, drawChunk/2 - 1, drawChunk / 2, drawChunk/2 + 1, drawChunk - 1, drawChunk, drawChunk + 1, 300, 1000} {
		for _, size := range []int{0, 1, 2, 3} {
			f := drawFleet(size)
			chunk := drawChunk
			if size > 1 {
				chunk = drawChunk / 2
			}
			gen := testgen.NewRandomGenerator(int64(n), words, testgen.DefaultConditionLimits())
			ref := testgen.NewRandomGenerator(int64(n), words, testgen.DefaultConditionLimits())
			baseline := runtime.NumGoroutine()
			next := 0
			err := drawTests(f, gen, n, func(first int, tests []testgen.Test) error {
				if f.Size() == 1 && runtime.NumGoroutine() > baseline {
					return fmt.Errorf("a fleet of one runs %d goroutines in use, %d before drawTests", runtime.NumGoroutine(), baseline)
				}
				if first != next || len(tests) != min(chunk, n-first) {
					return fmt.Errorf("chunk of %d tests at %d, want %d at %d", len(tests), first, min(chunk, n-next), next)
				}
				want := make([]testgen.Test, len(tests))
				for i := range want {
					want[i] = ref.Next()
					if !sameTest(tests[i], want[i]) {
						return fmt.Errorf("test %d is %s, reference %s", first+i, tests[i].Name, want[i].Name)
					}
				}
				for i := range want {
					if !sameTest(tests[i], want[i]) {
						return fmt.Errorf("test %d changed to %s while use ran", first+i, tests[i].Name)
					}
				}
				next += len(tests)
				return nil
			})
			f.Close()
			context := fmt.Sprintf("n=%d, fleet %d", n, size)
			if err != nil {
				t.Fatalf("%s: %v", context, err)
			}
			if next != n {
				t.Fatalf("%s: use saw %d tests", context, next)
			}
			if g, w := gen.Next(), ref.Next(); !sameTest(g, w) {
				t.Fatalf("%s: next draw %s differs from the reference's %s", context, g.Name, w.Name)
			}
			waitGoroutinesAtMost(t, baseline, context)
		}
	}
}

// TestDrawTestsReturnsUseError fails use on each chunk of a draw in turn,
// on every fleet size: drawTests returns that error without handing on a
// later chunk, and leaves no goroutine behind. The generator stops where
// the draws stop: after the failed chunk on a fleet of one, after the
// chunk drawn ahead of it on a larger fleet.
func TestDrawTestsReturnsUseError(t *testing.T) {
	const n = 3*drawChunk + 5
	errUse := errors.New("use failed")
	for _, size := range []int{0, 1, 2, 3} {
		chunk, ahead := drawChunk, 0
		if size > 1 {
			chunk, ahead = drawChunk/2, 1
		}
		for k := 0; k*chunk < n; k++ {
			f := drawFleet(size)
			gen := testgen.NewRandomGenerator(int64(k), 1024, testgen.DefaultConditionLimits())
			ref := testgen.NewRandomGenerator(int64(k), 1024, testgen.DefaultConditionLimits())
			baseline := runtime.NumGoroutine()
			chunks := 0
			err := drawTests(f, gen, n, func(first int, _ []testgen.Test) error {
				chunks++
				if first == k*chunk {
					return errUse
				}
				return nil
			})
			f.Close()
			context := fmt.Sprintf("fleet %d, error on chunk %d", size, k)
			if !errors.Is(err, errUse) || chunks != k+1 {
				t.Fatalf("%s: drawTests returned %v after %d chunks", context, err, chunks)
			}
			for range min(n, (k+1+ahead)*chunk) {
				ref.Next()
			}
			if g, w := gen.Next(), ref.Next(); !sameTest(g, w) {
				t.Fatalf("%s: next draw %s differs from the reference's %s", context, g.Name, w.Name)
			}
			waitGoroutinesAtMost(t, baseline, context)
		}
	}
}
