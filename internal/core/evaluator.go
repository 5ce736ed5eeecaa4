package core

import (
	"fmt"
	"slices"

	"repro/internal/ate"
	"repro/internal/parallel"
	"repro/internal/search"
	"repro/internal/testgen"
	"repro/internal/wcr"
)

// evaluator measures GA fitness the way fig. 5 prescribes — "GA fitness =
// TPV measurement via ATE using equation (2), (3) and (4)" — and streams a
// whole generation over the flow's persistent fleet. It is the only fitness
// evaluator: a serial run is a fleet of one, not another path. The first
// measured test runs a full-range search and establishes the reference trip
// point (eq. 2, done serially); every later test costs only a handful of
// SUTP steps from that reference, on the fleet worker's forked insertion,
// which the Characterizer owns (insertionFor) and reseeds per task.
//
// Determinism: task t (a global counter across batches) is measured on an
// insertion reseeded with Seed + t, so its trip point depends only on the
// test and the counter — never on which worker ran it or in what order.
// Per-task cost counters are merged into the main tester in task order.
// The memo-cache is consulted before dispatch and filled by the in-order
// merge, keyed by the test's structural fingerprint (sequence + conditions; the
// flow is already scoped to one die and one parameter), so elites, migrants
// and duplicate individuals never burn ATE time twice. The keys are taken
// in the serial resolve: a generation's fingerprints cost less than a fleet
// stage's round trip.
type evaluator struct {
	c    *Characterizer
	opts search.Options
	spec wcr.Spec
	// cache is the memo-cache: test fingerprint → WCR (nil disables
	// memoization). Only the calling goroutine touches it — the resolve
	// before each Stream and the merge inside Stream's in-order delivery —
	// so it needs no lock. hits/misses count resolve lookups.
	cache        map[uint64]float64
	hits, misses int64

	rtp     float64
	haveRTP bool
	taskSeq int64 // measured-task counter across batches; drives seeds

	evaluations int64 // SUTP searches actually performed
	budget      int   // full-range search cost, the per-search baseline

	// The resolve state of one FitnessBatch call, kept across calls and
	// reset by each, so a generation allocates none once an earlier one
	// has sized it. out is the slice FitnessBatch returns.
	out       []float64
	groupOf   map[uint64]int // fingerprint → group, cache on
	group     []int          // per test: the group whose value it takes, -1 for a hit
	reps      []int          // per group: its representative (first) test
	keys      []uint64       // per group: the representative's fingerprint, cache on
	results   []search.Result
	taskStats []ate.Stats
}

func newEvaluator(c *Characterizer) *evaluator {
	e := &evaluator{
		c:    c,
		opts: c.cfg.Parameter.SearchOptions(),
		spec: c.cfg.Parameter.Spec(),
	}
	e.budget = e.opts.FullRangeBudget()
	if !c.cfg.DisableMeasurementCache {
		// Seed disk-recovered values (scope-bound to this exact flow, see
		// MemoCacheScope): primed tests are served without measuring, and
		// because the values equal what a cold run would measure, the GA
		// trajectory — and thus the results — stay bit-identical.
		e.cache = make(map[uint64]float64, len(c.primed))
		for k, v := range c.primed {
			e.cache[k] = v
		}
		e.groupOf = map[uint64]int{}
	}
	return e
}

// measureTask runs one hermetic trip-point search on the forked insertion:
// reseed, fresh SUTP anchored to the shared reference (when established),
// search. Reseed makes the task independent of whatever the insertion ran
// before, in this batch or another stage. Returns the search result and the
// task's cost counters.
func (e *evaluator) measureTask(wk *ate.ATE, tt testgen.Test, seed int64) (search.Result, ate.Stats, error) {
	wk.Reseed(seed)
	s := &search.SUTP{Refine: true}
	if e.haveRTP {
		s.SetReference(e.rtp)
	}
	res, err := s.Search(wk.Measurer(e.c.cfg.Parameter, tt), e.opts)
	return res, wk.Stats(), err
}

// FitnessBatch implements genetic.Evaluator. The returned slice is the
// evaluator's own and valid until the next call; the GA reads it at once.
func (e *evaluator) FitnessBatch(tests []testgen.Test) ([]float64, error) {
	out := slices.Grow(e.out[:0], len(tests))[:len(tests)]
	e.out = out
	fleet := e.c.Fleet()

	// Resolve memoized tests and dedupe the rest by fingerprint, keeping
	// first-appearance order so seeds and stats stay index-deterministic.
	// With the cache disabled every test is its own group — the no-cache
	// baseline measures every individual.
	group := slices.Grow(e.group[:0], len(tests))[:len(tests)]
	reps, keys := e.reps[:0], e.keys[:0]
	clear(e.groupOf)
	var hits int64
	for i := range tests {
		if e.cache != nil {
			fp := tests[i].Fingerprint()
			if v, ok := e.cache[fp]; ok {
				out[i] = v
				group[i] = -1
				hits++
				continue
			}
			if g, ok := e.groupOf[fp]; ok {
				group[i] = g
				continue
			}
			e.groupOf[fp] = len(reps)
			keys = append(keys, fp)
		}
		group[i] = len(reps)
		reps = append(reps, i)
	}
	e.group, e.reps, e.keys = group, reps, keys
	// The resolve loop above is serial, so the cache-effectiveness deltas
	// are deterministic regardless of the worker count below.
	if e.cache != nil {
		misses := int64(len(tests)) - hits
		e.hits += hits
		e.misses += misses
		e.c.tel().RecordCacheLookups(hits, misses, e.budget)
	}
	if len(reps) == 0 {
		return out, nil
	}

	results := slices.Grow(e.results[:0], len(reps))[:len(reps)]
	taskStats := slices.Grow(e.taskStats[:0], len(reps))[:len(reps)]
	e.results, e.taskStats = results, taskStats

	// merge folds task t's outcome into the flow in strict task order: cost
	// counters (float-sum order must not depend on the worker count),
	// telemetry and memoization, streamed from the in-order delivery while
	// later tasks are still measuring. The value lands in the
	// representative's slot; its duplicates copy it once the batch is in.
	merge := func(t int) {
		e.c.ate.AddStats(taskStats[t])
		e.c.tel().RecordSearch(results[t].Measurements, e.budget, results[t].Converged)
		// Non-converged searches still carry information: an all-fail
		// range means the trip point is beyond the pass-side end
		// (catastrophically bad, large WCR via the endpoint value); an
		// all-pass range means huge margin (small WCR).
		v := e.spec.WCR(results[t].TripPoint)
		if e.cache != nil {
			e.cache[keys[t]] = v
		}
		out[reps[t]] = v
	}

	// Establish the reference trip point serially: the full-range search
	// (eq. 2) happens once, before any fan-out, so every parallelism level
	// sees the identical reference.
	start := 0
	for ; start < len(reps) && !e.haveRTP; start++ {
		wk, err := e.c.insertionFor(0)
		if err != nil {
			return nil, err
		}
		res, st, err := e.measureTask(wk, tests[reps[start]], e.c.cfg.Seed+e.taskSeq+int64(start))
		if err != nil {
			return nil, fmt.Errorf("core: evaluating %s: %w", tests[reps[start]].Name, err)
		}
		results[start] = res
		taskStats[start] = st
		if res.Converged {
			e.rtp = res.TripPoint
			e.haveRTP = true
		}
	}

	measure := func(wk *ate.ATE, i int) error {
		t := start + i
		res, st, err := e.measureTask(wk, tests[reps[t]], e.c.cfg.Seed+e.taskSeq+int64(t))
		if err != nil {
			return fmt.Errorf("core: evaluating %s: %w", tests[reps[t]].Name, err)
		}
		results[t] = res
		taskStats[t] = st
		return nil
	}

	// The serial prefix merges immediately (it is already in task order),
	// then the remaining unique tests stream over the persistent insertions
	// with the merge riding the in-order delivery — no generation barrier
	// between measurement and selection input.
	for t := 0; t < start; t++ {
		merge(t)
	}
	if n := len(reps) - start; n > 0 {
		err := parallel.Stream(fleet, n, e.c.insertionFor, measure, func(i int) error {
			merge(start + i)
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	for i, g := range group {
		if g >= 0 {
			out[i] = out[reps[g]]
		}
	}
	e.taskSeq += int64(len(reps))
	e.evaluations += int64(len(reps))
	return out, nil
}

// cacheHits returns how many fitness lookups the memo-cache absorbed.
func (e *evaluator) cacheHits() int64 { return e.hits }

// cacheMisses returns how many fitness lookups had to be measured.
func (e *evaluator) cacheMisses() int64 {
	if e.cache == nil {
		return e.evaluations
	}
	return e.misses
}
