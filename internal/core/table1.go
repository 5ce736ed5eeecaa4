package core

import (
	"fmt"
	"strings"

	"repro/internal/ate"
	"repro/internal/search"
	"repro/internal/testgen"
	"repro/internal/trippoint"
	"repro/internal/wcr"
)

// Table1Row is one row of the paper's Table 1: the winning test of one
// technique, its WCR (eq. 6 minimization for T_DQ) and its measured value.
type Table1Row struct {
	TestName     string
	Technique    string
	WCR          float64
	Value        float64 // measured parameter (T_DQ in ns for the paper's table)
	Class        wcr.Class
	Measurements int64 // ATE measurements this technique consumed
}

// Table1 is the full comparison.
type Table1 struct {
	Parameter ate.Parameter
	VddV      float64
	Rows      []Table1Row

	// Stats is the whole comparison's tester cost, summed across the three
	// techniques (each row runs on freshly reset counters).
	Stats ate.Stats
	// CacheHits and CacheMisses are the NN+GA row's measurement memo-cache
	// effectiveness (zero when the flow ran with the cache disabled).
	CacheHits   int64
	CacheMisses int64
}

// Format renders the table in the paper's layout.
func (t *Table1) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 1 — Comparison of %s with different approaches (Vdd %.1fV)\n", t.Parameter, t.VddV)
	fmt.Fprintf(&b, "%-14s %-18s %7s %10s %-9s %13s\n", "Test Name", "Technique", "WCR",
		fmt.Sprintf("%s (%s)", t.Parameter, t.Parameter.Unit()), "Class", "Measurements")
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "%-14s %-18s %7.3f %10.1f %-9s %13d\n",
			r.TestName, r.Technique, r.WCR, r.Value, r.Class, r.Measurements)
	}
	if lookups := t.CacheHits + t.CacheMisses; lookups > 0 {
		fmt.Fprintf(&b, "NNGA measurement cache: %d hits / %d misses (hit rate %.1f%%)\n",
			t.CacheHits, t.CacheMisses, 100*float64(t.CacheHits)/float64(lookups))
	}
	return b.String()
}

// Table1Config extends the flow configuration with the baseline workloads.
type Table1Config struct {
	Flow Config
	// RandomTests is the size of the pure-random comparison set (the
	// paper's shmoo overlays 1000 tests).
	RandomTests int
	// MarchWindowWords is the address-window width of the March baseline.
	MarchWindowWords uint32
}

// DefaultTable1Config sizes the comparison like the paper (scaled learning
// set, 1000 random tests, Vdd fixed at 1.8 V).
func DefaultTable1Config(seed int64) Table1Config {
	flow := DefaultConfig(seed)
	nominal := testgen.NominalConditions()
	flow.FixedConditions = &nominal
	return Table1Config{
		Flow:             flow,
		RandomTests:      1000,
		MarchWindowWords: 100,
	}
}

// RunTable1 reproduces Table 1: the deterministic March baseline, the best
// of a pure random set, and the NN+GA flow, each reported with the worst
// WCR it found and the ATE measurements it spent.
func RunTable1(cfg Table1Config, tester *ate.ATE) (*Table1, error) {
	if cfg.RandomTests < 1 {
		return nil, fmt.Errorf("core: Table 1 needs at least one random test")
	}
	flowCfg := cfg.Flow
	if flowCfg.FixedConditions == nil {
		nominal := testgen.NominalConditions()
		flowCfg.FixedConditions = &nominal
	}
	cond := *flowCfg.FixedConditions
	param := flowCfg.Parameter
	spec := param.Spec()

	table := &Table1{Parameter: param, VddV: cond.VddV}
	tel := flowCfg.Telemetry
	fullBudget := param.SearchOptions().FullRangeBudget()

	// The NN+GA row's flow exists from the start: the Random row runs its
	// pattern executions ahead on the flow's fleet and insertions.
	char, err := NewCharacterizer(flowCfg, tester)
	if err != nil {
		return nil, err
	}
	defer char.Close()

	// --- Row 1: deterministic March baseline, single-trip-point style ----
	tester.ResetStats()
	ph := tel.StartPhase("table1-march")
	suite, err := testgen.MarchSuite(testgen.MarchCMinus(), 0, cfg.MarchWindowWords, cond)
	if err != nil {
		return nil, err
	}
	ranking := wcr.NewRanking(spec)
	full := search.SuccessiveApproximation{}
	for _, t := range suite {
		res, err := full.Search(tester.Measurer(param, t), param.SearchOptions())
		if err != nil {
			return nil, fmt.Errorf("core: March baseline %s: %w", t.Name, err)
		}
		tel.RecordSearch(res.Measurements, fullBudget, res.Converged)
		ranking.Add(t.Name, res.TripPoint)
	}
	worst, _ := ranking.Worst()
	rowStats := tester.Stats()
	table.Stats.Add(rowStats)
	ph.End(rowStats.Cost())
	tel.RecordItem("table1-row", 1, 3)
	table.Rows = append(table.Rows, Table1Row{
		TestName:     "March Test",
		Technique:    "Deterministic",
		WCR:          worst.WCR,
		Value:        worst.Value,
		Class:        worst.Class,
		Measurements: rowStats.Measurements,
	})

	// --- Row 2: pure random multiple-trip-point set ----------------------
	tester.ResetStats()
	ph = tel.StartPhase("table1-random")
	gen := testgen.NewRandomGenerator(flowCfg.Seed+100, tester.Device().Geometry().Words(), testgen.DefaultConditionLimits())
	gen.FixedConditions = &cond
	runner := trippoint.NewRunner(tester, param)
	runnerBudget := param.SearchOptions().FullRangeBudget()
	ranking = wcr.NewRanking(spec)
	err = drawTests(gen, cfg.RandomTests, func(_ int, tests []testgen.Test) error {
		return char.measureTests(tests, func(i int) error {
			m, err := runner.Measure(tests[i])
			if err != nil {
				return fmt.Errorf("core: random baseline: %w", err)
			}
			tel.RecordSearch(m.Measurements, runnerBudget, m.Converged)
			if m.Converged {
				ranking.Add(tests[i].Name, m.TripPoint)
			}
			return nil
		})
	})
	if err != nil {
		return nil, err
	}
	worst, ok := ranking.Worst()
	if !ok {
		return nil, fmt.Errorf("core: no random test converged")
	}
	rowStats = tester.Stats()
	table.Stats.Add(rowStats)
	ph.End(rowStats.Cost())
	tel.RecordItem("table1-row", 2, 3)
	table.Rows = append(table.Rows, Table1Row{
		TestName:     "Random Test",
		Technique:    "Random",
		WCR:          worst.WCR,
		Value:        worst.Value,
		Class:        worst.Class,
		Measurements: rowStats.Measurements,
	})

	// --- Row 3: the paper's NN + GA flow ---------------------------------
	// No table1-nnga phase: the flow's own learn / propose-seeds / optimize
	// phases cover this row's cost, keeping the report's phase breakdown a
	// partition (no double counting).
	tester.ResetStats()
	if _, err := char.Learn(); err != nil {
		return nil, err
	}
	opt, err := char.Optimize()
	if err != nil {
		return nil, err
	}
	best, ok := opt.Database.Worst()
	if !ok {
		return nil, fmt.Errorf("core: GA produced no worst-case entry")
	}
	rowStats = tester.Stats()
	table.Stats.Add(rowStats)
	table.CacheHits = opt.CacheHits
	table.CacheMisses = opt.CacheMisses
	tel.RecordItem("table1-row", 3, 3)
	table.Rows = append(table.Rows, Table1Row{
		TestName:     "NNGA Test",
		Technique:    "Neural & Genetic",
		WCR:          best.WCR,
		Value:        best.Value,
		Class:        best.Class,
		Measurements: rowStats.Measurements,
	})

	return table, nil
}
