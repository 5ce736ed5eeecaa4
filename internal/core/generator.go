package core

import (
	"fmt"
	"slices"

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
// severity ties toward higher confidence, then toward the earlier draw.
//
// Candidates are drawn a chunk at a time into reused buffers (drawTests),
// and each scored chunk merges into a running top SeedCount
// (rankCandidate), so only one chunk is ever live. Drawing is serial (the
// generator owns one random stream), but feature extraction and the
// surrogate scoring fan across the flow's fleet: each task encodes its
// candidate (a pure function of the test) and votes with its worker's own
// ensemble scratch arena (the trained weights are read-only), writing
// severities into index-addressed slots, so the ranking is bit-identical
// for any Parallelism. Vote scratches are memoized per persistent worker,
// so repeated proposal rounds (multi-era flows, Table 1) reuse them.
func (c *Characterizer) ProposeSeeds() ([]Candidate, error) {
	if c.learned == nil || c.learned.Ensemble == nil {
		return nil, fmt.Errorf("core: no trained ensemble; run Learn or LoadWeights first")
	}
	ph := c.tel().StartPhase("propose-seeds")
	before := c.ate.Stats()
	defer func() { ph.End(c.ate.Stats().CostSince(before)) }()

	limits := c.gen.Limits()
	ens := c.learned.Ensemble
	f := c.Fleet()
	if c.voteScratch == nil {
		c.voteScratch = make([]*neural.EnsembleScratch, f.Size())
	}
	scratchFor := func(w int) (*neural.EnsembleScratch, error) {
		if c.voteScratch[w] == nil {
			c.voteScratch[w] = ens.NewScratch()
		}
		return c.voteScratch[w], nil
	}
	ranked := make([]Candidate, 0, c.cfg.SeedCount)
	scored := make([]Candidate, min(c.cfg.CandidatePool, drawChunk))
	err := drawTests(c.gen, c.cfg.CandidatePool, func(first int, tests []testgen.Test) error {
		err := parallel.RunOn(f, len(tests), scratchFor, func(s *neural.EnsembleScratch, i int) error {
			pred, conf, err := ens.VoteInto(s, testgen.ExtractFeatures(tests[i], limits))
			if err != nil {
				return fmt.Errorf("core: scoring candidate %d: %w", first+i, err)
			}
			scored[i] = Candidate{Test: tests[i], Severity: c.coder.Severity(pred), Confidence: conf}
			return nil
		})
		if err != nil {
			return err
		}
		for _, cand := range scored[:len(tests)] {
			ranked = rankCandidate(ranked, c.cfg.SeedCount, cand)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if len(ranked) > 0 {
		ph.Span().Event("seeds",
			telemetry.I("pool", c.cfg.CandidatePool),
			telemetry.I("selected", len(ranked)),
			telemetry.F("top_severity", ranked[0].Severity),
		)
		c.tel().Registry().Gauge("seed_top_severity").Set(ranked[0].Severity)
	}
	return ranked, nil
}

// rankCandidate merges cand into ranked, which is ordered by severity, then
// confidence, both descending, and keeps at most k entries: cand goes after
// every entry it does not beat, so merging candidates in draw order gives
// the stable sort of them all, truncated to k (severities and confidences
// are finite, so the order is total). cand's sequence is only borrowed; an
// entrant's is copied into the evicted entry's buffer, or a new one while
// the ranking fills.
func rankCandidate(ranked []Candidate, k int, cand Candidate) []Candidate {
	p := len(ranked)
	for p > 0 && (cand.Severity > ranked[p-1].Severity ||
		cand.Severity == ranked[p-1].Severity && cand.Confidence > ranked[p-1].Confidence) {
		p--
	}
	if p == k {
		return ranked
	}
	if len(ranked) == k {
		cand.Test.Seq = append(ranked[k-1].Test.Seq[:0], cand.Test.Seq...)
		ranked = ranked[:k-1]
	} else {
		cand.Test.Seq = cand.Test.Seq.Clone()
	}
	return slices.Insert(ranked, p, cand)
}

// drawChunk is how many tests drawTests holds at once: enough tasks to keep
// a fleet stage busy, few enough to bound a phase's live sequences.
const drawChunk = 128

// drawTests draws n tests from gen, drawChunk at a time, into one chunk of
// reused buffers of capacity MaxSequenceLen, and hands each chunk and the
// index of its first test to use before drawing the next. The draws are
// Next's, in order; a test is valid until use returns. Each buffer is an
// allocation of its own, of the GA's buffer size, so the memory one phase
// frees serves the next (one block for the whole chunk raised Table 1's
// resident set by 3%).
func drawTests(gen *testgen.RandomGenerator, n int, use func(first int, tests []testgen.Test) error) error {
	chunk := make([]testgen.Test, min(n, drawChunk))
	for i := range chunk {
		chunk[i].Seq = make(testgen.Sequence, 0, testgen.MaxSequenceLen)
	}
	for first := 0; first < n; first += len(chunk) {
		tests := chunk[:min(len(chunk), n-first)]
		for i := range tests {
			tests[i] = gen.NextInto(tests[i].Seq)
		}
		if err := use(first, tests); err != nil {
			return err
		}
	}
	return nil
}

// SeedsForGA converts ranked candidates into GA seeds.
func SeedsForGA(cands []Candidate) []genetic.Seed {
	seeds := make([]genetic.Seed, len(cands))
	for i, cand := range cands {
		seeds[i] = genetic.Seed{Seq: cand.Test.Seq, Cond: cand.Test.Cond}
	}
	return seeds
}
