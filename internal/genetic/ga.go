package genetic

import (
	"fmt"
	"sort"

	"repro/internal/testgen"
)

// Config parameterizes the optimizer.
type Config struct {
	// PopSize is the number of individuals per island population.
	PopSize int
	// Islands is the number of co-evolving populations ("evolving multiple
	// populations of different individuals over a number of generations").
	Islands int
	// Elite is the number of top individuals copied unchanged per
	// generation and island.
	Elite int
	// TournamentK is the selection tournament size.
	TournamentK int
	// CrossoverRate is the probability offspring come from recombination
	// rather than cloning a parent.
	CrossoverRate float64
	// MaxGenerations caps the total generations across all eras.
	MaxGenerations int
	// StagnationLimit restarts an island with a brand-new population after
	// this many generations without island-best improvement (fig. 5 step 4:
	// "Then go to (1) and a brand new population will start GA again").
	StagnationLimit int
	// TargetFitness stops the run early once the global best reaches it
	// ("until ... the worst case is detected based on worst case ratio
	// theorem"). Zero disables the target.
	TargetFitness float64
	// MigrateEvery exchanges the island bests in a ring every this many
	// generations. Zero disables migration.
	MigrateEvery int
	// FixedConditions pins every individual to the given conditions
	// (Table 1 is measured at Vdd 1.8 V); nil lets conditions evolve.
	FixedConditions *testgen.Conditions

	// OnGeneration, when non-nil, observes every completed generation:
	// the zero-based generation index and the global best fitness so far.
	// It runs on the serial generation loop after evaluation, so callers
	// may emit trace events from it without racing the fitness workers.
	OnGeneration func(gen int, bestFitness float64)
}

// DefaultConfig returns tuned defaults sized for the experiments.
func DefaultConfig() Config {
	return Config{
		PopSize:         24,
		Islands:         3,
		Elite:           2,
		TournamentK:     3,
		CrossoverRate:   0.85,
		MaxGenerations:  60,
		StagnationLimit: 8,
		MigrateEvery:    5,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.PopSize < 2 {
		return fmt.Errorf("genetic: population size %d too small", c.PopSize)
	}
	if c.Islands < 1 {
		return fmt.Errorf("genetic: need at least one island, got %d", c.Islands)
	}
	if c.Elite < 0 || c.Elite >= c.PopSize {
		return fmt.Errorf("genetic: elite %d out of range for population %d", c.Elite, c.PopSize)
	}
	if c.MaxGenerations < 1 {
		return fmt.Errorf("genetic: max generations %d too small", c.MaxGenerations)
	}
	return nil
}

// Result summarizes one optimization run.
type Result struct {
	Best        *Individual
	BestHistory []float64 // global best fitness after each generation
	Generations int
	Evaluations int
	Restarts    int
	TargetHit   bool
	// EraBests are the best individuals of each era (between restarts) —
	// the candidates that go to the worst-case database.
	EraBests []*Individual
}

// Optimizer runs the dual-chromosome, multi-population GA.
type Optimizer struct {
	cfg  Config
	ops  *Operators
	eval Evaluator

	nextID  int
	islands [][]*Individual
	eraBest []*Individual // per-island best of the current era
	stall   []int
}

// NewOptimizer wires a configuration, operators and an evaluator.
func NewOptimizer(cfg Config, ops *Operators, eval Evaluator) (*Optimizer, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if ops == nil || eval == nil {
		return nil, fmt.Errorf("genetic: nil operators or evaluator")
	}
	return &Optimizer{cfg: cfg, ops: ops, eval: eval}, nil
}

func (o *Optimizer) newIndividual(seq testgen.Sequence, cond testgen.Conditions) *Individual {
	o.nextID++
	if o.cfg.FixedConditions != nil {
		cond = *o.cfg.FixedConditions
	}
	return &Individual{Seq: seq, Cond: cond, ID: o.nextID}
}

// initIslands seeds island 0 with the provided seeds (NN candidates) and
// fills everything else randomly.
func (o *Optimizer) initIslands(seeds []Seed) {
	o.islands = make([][]*Individual, o.cfg.Islands)
	o.eraBest = make([]*Individual, o.cfg.Islands)
	o.stall = make([]int, o.cfg.Islands)
	si := 0
	for i := range o.islands {
		pop := make([]*Individual, 0, o.cfg.PopSize)
		for len(pop) < o.cfg.PopSize {
			if si < len(seeds) {
				s := seeds[si]
				si++
				pop = append(pop, o.newIndividual(s.Seq.Clone(), s.Cond))
				continue
			}
			seq, cond := o.ops.RandomIndividual(o.cfg.FixedConditions)
			pop = append(pop, o.newIndividual(seq, cond))
		}
		o.islands[i] = pop
	}
}

// restartIsland replaces an island with a brand-new random population,
// banking its era best.
func (o *Optimizer) restartIsland(i int, res *Result) {
	if b := o.eraBest[i]; b != nil {
		res.EraBests = append(res.EraBests, b.Clone())
	}
	pop := make([]*Individual, 0, o.cfg.PopSize)
	for len(pop) < o.cfg.PopSize {
		seq, cond := o.ops.RandomIndividual(o.cfg.FixedConditions)
		pop = append(pop, o.newIndividual(seq, cond))
	}
	o.islands[i] = pop
	o.eraBest[i] = nil
	o.stall[i] = 0
	res.Restarts++
}

// evaluateGeneration measures every unevaluated individual across all
// islands in one FitnessBatch call, island-major, so the evaluator can fan
// the whole generation across parallel workers, then ranks each island by
// fitness.
func (o *Optimizer) evaluateGeneration(res *Result) error {
	var pending []*Individual
	for _, pop := range o.islands {
		for _, ind := range pop {
			if !ind.Evaluated {
				pending = append(pending, ind)
			}
		}
	}
	if len(pending) > 0 {
		tests := make([]testgen.Test, len(pending))
		for i, ind := range pending {
			tests[i] = ind.Test()
		}
		fits, err := o.eval.FitnessBatch(tests)
		if err != nil {
			return fmt.Errorf("genetic: evaluating generation batch: %w", err)
		}
		if len(fits) != len(pending) {
			return fmt.Errorf("genetic: batch evaluator returned %d fitnesses for %d tests", len(fits), len(pending))
		}
		for i, ind := range pending {
			ind.Fitness = fits[i]
			ind.Evaluated = true
		}
		res.Evaluations += len(pending)
	}
	for _, pop := range o.islands {
		sort.SliceStable(pop, func(a, b int) bool { return pop[a].Fitness > pop[b].Fitness })
	}
	return nil
}

// Run executes the GA until the generation cap or the fitness target.
func (o *Optimizer) Run(seeds []Seed) (*Result, error) {
	res := &Result{}
	o.initIslands(seeds)

	var globalBest *Individual
	for gen := 0; gen < o.cfg.MaxGenerations; gen++ {
		res.Generations = gen + 1
		if err := o.evaluateGeneration(res); err != nil {
			return res, err
		}
		for i, pop := range o.islands {
			islandBest := pop[0]
			if o.eraBest[i] == nil || islandBest.Fitness > o.eraBest[i].Fitness {
				o.eraBest[i] = islandBest.Clone()
				o.stall[i] = 0
			} else {
				o.stall[i]++
			}
			if globalBest == nil || islandBest.Fitness > globalBest.Fitness {
				globalBest = islandBest.Clone()
			}
		}
		res.Best = globalBest
		res.BestHistory = append(res.BestHistory, globalBest.Fitness)
		if o.cfg.OnGeneration != nil {
			o.cfg.OnGeneration(gen, globalBest.Fitness)
		}

		if o.cfg.TargetFitness > 0 && globalBest.Fitness >= o.cfg.TargetFitness {
			res.TargetHit = true
			break
		}

		// Ring migration of island bests. Collect every migrant before
		// placing any, so island i+1's emigrant is chosen from its own
		// population, never from a freshly arrived migrant. A migrant only
		// displaces the destination's worst individual when it actually
		// improves on it, and arrives clone-and-invalidated: the clone
		// never aliases its source island, and the cleared evaluation
		// re-requests its fitness on the destination (a memoizing evaluator
		// answers from cache for free).
		if o.cfg.MigrateEvery > 0 && gen > 0 && gen%o.cfg.MigrateEvery == 0 && o.cfg.Islands > 1 {
			migrants := make([]*Individual, o.cfg.Islands)
			for i := range o.islands {
				migrants[(i+1)%o.cfg.Islands] = o.islands[i][0].Clone()
			}
			for i, m := range migrants {
				dst := o.islands[i]
				if m.Fitness > dst[len(dst)-1].Fitness {
					m.Evaluated = false
					dst[len(dst)-1] = m
				}
			}
		}

		// Breed the next generation per island.
		for i, pop := range o.islands {
			if o.stall[i] >= o.cfg.StagnationLimit && o.cfg.StagnationLimit > 0 {
				o.restartIsland(i, res)
				continue
			}
			next := make([]*Individual, 0, o.cfg.PopSize)
			for e := 0; e < o.cfg.Elite && e < len(pop); e++ {
				// Clone-and-invalidate: the clone keeps the elite from
				// aliasing the old generation (the batch evaluator hands
				// individuals to concurrent workers and must own each one
				// exclusively); invalidating re-requests its fitness next
				// generation, which a memoizing evaluator answers from
				// cache for free while a noise-resampling one re-draws it.
				elite := pop[e].Clone()
				elite.Evaluated = false
				next = append(next, elite)
			}
			for len(next) < o.cfg.PopSize {
				p1 := o.ops.Tournament(pop, o.cfg.TournamentK)
				var childSeq testgen.Sequence
				var childCond testgen.Conditions
				if o.ops.Chance(o.cfg.CrossoverRate) {
					p2 := o.ops.Tournament(pop, o.cfg.TournamentK)
					childSeq = o.ops.CrossoverSeq(p1.Seq, p2.Seq)
					childCond = o.ops.CrossoverCond(p1.Cond, p2.Cond)
				} else {
					childSeq = p1.Seq.Clone()
					childCond = p1.Cond
				}
				childSeq = o.ops.MutateSeq(childSeq)
				if o.cfg.FixedConditions == nil {
					childCond = o.ops.MutateCond(childCond)
				}
				next = append(next, o.newIndividual(childSeq, childCond))
			}
			o.islands[i] = next
		}
	}

	// Bank the final era bests.
	for i := range o.eraBest {
		if b := o.eraBest[i]; b != nil {
			res.EraBests = append(res.EraBests, b.Clone())
		}
	}
	if res.Best == nil {
		return res, fmt.Errorf("genetic: no individual was evaluated")
	}
	sort.SliceStable(res.EraBests, func(a, b int) bool {
		return res.EraBests[a].Fitness > res.EraBests[b].Fitness
	})
	return res, nil
}
