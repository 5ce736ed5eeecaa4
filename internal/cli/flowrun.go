package cli

import (
	"flag"
	"fmt"
	"io"
	"time"

	"repro/internal/ate"
	"repro/internal/cachestore"
	"repro/internal/charspec"
	"repro/internal/core"
	"repro/internal/dut"
	"repro/internal/frame"
	"repro/internal/neural"
	"repro/internal/parallel"
	"repro/internal/pdn"
	"repro/internal/shmoo"
	"repro/internal/telemetry"
	"repro/internal/testgen"
	"repro/internal/wcr"
)

// The flow bodies of cmd/characterize, cmd/shmoo and cmd/lotchar, shared
// with the job service so a job executes the exact code path the binary
// does. Each body runs inside Run, which owns the whole run lifecycle: the
// body gets the run's telemetry handle, writes its human-readable output to
// out and returns the run's tester totals. The checkCancel polls at phase
// boundaries are no-ops outside the job service.

// characterizeFlags holds cmd/characterize's workload flags.
type characterizeFlags struct {
	Param         ate.Parameter
	Table1        bool
	LearnOnly     bool
	LearnTests    int
	RandTests     int
	Corner        dut.Corner
	WeightsOut    string
	DBOut         string
	PatternOut    string
	CycleTraceOut string
	Minimize      bool
	EvolveCond    bool
}

// registerCharacterizeFlags installs cmd/characterize's workload flags and
// returns its flow, a Table 1 run with -table1.
func registerCharacterizeFlags(fs *flag.FlagSet) flowFunc {
	f := &characterizeFlags{}
	ParsedVar(fs, &f.Param, "param", "tdq", "parameter to characterize: tdq, fmax, vddmin", ParseParam)
	fs.BoolVar(&f.Table1, "table1", false, "reproduce the paper's Table 1 comparison")
	fs.BoolVar(&f.LearnOnly, "learn-only", false, "stop after the learning scheme (train and report the NN ensemble; skip the GA optimization)")
	fs.IntVar(&f.LearnTests, "learn-tests", 300, "number of measured tests in the learning phase")
	fs.IntVar(&f.RandTests, "random-tests", 1000, "random tests in the Table 1 baseline")
	ParsedVar(fs, &f.Corner, "corner", "tt", "process corner of the device: tt, ff, ss", parseCorner)
	fs.StringVar(&f.WeightsOut, "weights", "", "write the trained NN weight file here")
	fs.StringVar(&f.DBOut, "db", "", "write the worst-case test database here")
	fs.StringVar(&f.PatternOut, "patterns", "", "write the worst-case tests as a text vector file here")
	fs.StringVar(&f.CycleTraceOut, "cycle-trace", "", "write the worst test's per-cycle trace as CSV here (with PDN droop analysis)")
	fs.BoolVar(&f.Minimize, "minimize", false, "minimize the worst-case test for failure analysis")
	fs.BoolVar(&f.EvolveCond, "evolve-conditions", false, "let the GA evolve test conditions (default: fixed at nominal)")
	return func(c *Common, out io.Writer) error {
		name := "characterize"
		if f.Table1 {
			name = "table1"
		}
		return c.Run(name, out, func(tel *telemetry.Telemetry) (ate.Stats, error) {
			return runCharacterize(c, f, out, tel)
		})
	}
}

// runCharacterize runs the characterization flow end to end: the fig. 4
// learning scheme, then (unless -learn-only) the fig. 5 optimization
// scheme, or the Table 1 comparison with -table1.
func runCharacterize(c *Common, f *characterizeFlags, out io.Writer, tel *telemetry.Telemetry) (ate.Stats, error) {
	param := f.Param
	die := dut.NewDie(0, f.Corner)
	dev, err := dut.NewDevice(dut.DefaultGeometry(), die)
	if err != nil {
		return ate.Stats{}, err
	}
	tester := ate.New(dev, c.Seed)

	cfg := core.DefaultConfig(c.Seed)
	cfg.Parameter = param
	cfg.LearnTests = f.LearnTests
	cfg.Parallelism = c.Parallel
	cfg.DisableMeasurementCache = c.NoCache
	cfg.Telemetry = tel
	if !f.EvolveCond {
		nominal := testgen.NominalConditions()
		cfg.FixedConditions = &nominal
	}

	if f.Table1 {
		if err := c.checkCancel(); err != nil {
			return ate.Stats{}, err
		}
		t1cfg := core.Table1Config{Flow: cfg, RandomTests: f.RandTests, MarchWindowWords: 100}
		tab, err := core.RunTable1(t1cfg, tester)
		if err != nil {
			return ate.Stats{}, err
		}
		fmt.Fprint(out, tab.Format())
		return tab.Stats, nil
	}

	char, err := core.NewCharacterizer(cfg, tester)
	if err != nil {
		return ate.Stats{}, err
	}
	defer char.Close()

	// With -cache-dir, recover the previous identical run's memoized
	// fitness values: the store scope binds parameter, geometry, die and
	// seed, so only entries this exact flow produced ever load.
	memoStore, err := c.OpenCacheStore(char.MemoCacheScope())
	if err != nil {
		return ate.Stats{}, err
	}
	if memoStore != nil {
		if n := char.PrimeMemoCache(memoStore); n > 0 {
			fmt.Fprintf(out, "disk cache: primed %d memoized measurements from %s\n", n, c.CacheDir)
		}
	}

	if err := c.checkCancel(); err != nil {
		return ate.Stats{}, err
	}
	fmt.Fprintf(out, "Learning scheme (fig. 4): %d random tests on %s die, parameter %s\n",
		cfg.LearnTests, die.Corner, param)
	learned, err := char.Learn()
	if err != nil {
		return ate.Stats{}, err
	}
	stats := learned.DSV.Stats()
	fmt.Fprintf(out, "  trip points: min %.3f %s (%s), max %.3f %s, spread %.3f %s\n",
		stats.Min, param.Unit(), stats.MinTest, stats.Max, param.Unit(), stats.Range, param.Unit())
	fmt.Fprintf(out, "  SUTP cost: first search %d measurements, follow-up mean %.1f\n",
		stats.FirstSearchCost, stats.FollowupSearchCost)
	if iv, err := learned.DSV.WorstCaseInterval(param.Spec(), 0.05, 1000, c.Seed); err == nil {
		fmt.Fprintf(out, "  worst trip bootstrap 95%% interval: [%.3f, %.3f] %s (observed %.3f)\n",
			iv.Lo, iv.Hi, param.Unit(), iv.Observed)
	}
	fmt.Fprintf(out, "  ensemble of %d networks, MSE %.5f\n", learned.Ensemble.Size(), learned.EnsembleValErr)
	for i, rep := range learned.Reports {
		fmt.Fprintf(out, "  member %d: %d epochs, train %.5f, val %.5f, learned=%v generalized=%v\n",
			i, rep.Epochs, rep.TrainErr, rep.ValErr, rep.Learned, rep.Generalized)
	}

	imps, err := neural.PermutationImportance(learned.Ensemble, learned.Dataset, c.Seed, 3)
	if err != nil {
		return ate.Stats{}, err
	}
	featNames := testgen.FeatureNames()
	fmt.Fprintf(out, "  NN feature importance (top 4):")
	for i, im := range imps {
		if i >= 4 {
			break
		}
		fmt.Fprintf(out, " %s=%.5f", featNames[im.Feature], im.DeltaMSE)
	}
	fmt.Fprintln(out)

	if f.WeightsOut != "" {
		if err := char.SaveWeights(f.WeightsOut); err != nil {
			return ate.Stats{}, err
		}
		fmt.Fprintf(out, "  weight file written to %s\n", f.WeightsOut)
	}

	if f.LearnOnly {
		core.RecordDiskCache(tel, memoStore)
		s := tester.Stats()
		fmt.Fprintf(out, "Tester totals: %d measurements, %d vectors, %.2f s simulated test time\n",
			s.Measurements, s.VectorsApplied, s.TestTimeSec)
		return s, nil
	}

	if err := c.checkCancel(); err != nil {
		return ate.Stats{}, err
	}
	fmt.Fprintln(out, "Optimization scheme (fig. 5): NN-seeded dual-chromosome GA")
	opt, err := char.Optimize()
	if err != nil {
		return ate.Stats{}, err
	}
	best, ok := opt.Database.Worst()
	if !ok {
		return ate.Stats{}, fmt.Errorf("optimization produced no worst-case test")
	}
	fmt.Fprintf(out, "  GA: %d generations, %d evaluations, %d restarts, %d ATE measurements\n",
		opt.GA.Generations, opt.GA.Evaluations, opt.GA.Restarts, opt.Measurements)
	PrintCacheSummary(out, opt.CacheHits, opt.CacheMisses)
	if memoStore != nil {
		n, err := char.PersistMemoCache(memoStore)
		if err != nil {
			return ate.Stats{}, err
		}
		fmt.Fprintf(out, "  disk cache: %d memoized measurements persisted (%d bytes on disk)\n",
			n, memoStore.BytesOnDisk())
		core.RecordDiskCache(tel, memoStore)
	}
	fmt.Fprintf(out, "  worst case: %s  WCR %.3f (%s)  %s = %.3f %s\n",
		best.Test.Name, best.WCR, best.Class, param, best.Value, param.Unit())
	if best.Class == wcr.Weakness || best.Class == wcr.Fail {
		fmt.Fprintln(out, "  → design weakness candidate: schedule wafer-probe / circuit-level analysis")
	}
	fmt.Fprintf(out, "  database: %d entries\n", opt.Database.Len())
	for i, e := range opt.Database.Entries {
		if i >= 5 {
			fmt.Fprintf(out, "  … %d more\n", opt.Database.Len()-5)
			break
		}
		fmt.Fprintf(out, "   %2d. %-10s WCR %.3f (%s) %.3f %s\n", i+1, e.Test.Name, e.WCR, e.Class, e.Value, param.Unit())
	}

	// Fuzzy rule-base diagnosis of the worst test (§5's linguistic output).
	diag, err := core.NewDiagnosis()
	if err != nil {
		return ate.Stats{}, err
	}
	expl, err := diag.ExplainTest(best.Test, char.Generator().Limits())
	if err != nil {
		return ate.Stats{}, err
	}
	fmt.Fprintf(out, "  diagnosis: %s\n", expl)

	if f.Minimize {
		if err := c.checkCancel(); err != nil {
			return ate.Stats{}, err
		}
		res, err := char.Minimize(best.Test, core.DefaultMinimizeConfig())
		if err != nil {
			return ate.Stats{}, err
		}
		fmt.Fprintf(out, "  minimized: %d → %d vectors (%.1f×), WCR %.3f → %.3f, %d probes\n",
			len(res.Original.Seq), len(res.Minimized.Seq), res.ReductionFactor(),
			res.OriginalWCR, res.MinimizedWCR, res.Probes)
	}

	if f.DBOut != "" {
		if err := opt.Database.SaveFile(f.DBOut); err != nil {
			return ate.Stats{}, err
		}
		fmt.Fprintf(out, "  database written to %s\n", f.DBOut)
	}
	if f.CycleTraceOut != "" {
		records, _, err := dev.Trace(best.Test)
		if err != nil {
			return ate.Stats{}, err
		}
		if err := frame.PublishWith(f.CycleTraceOut, func(w io.Writer) error {
			return dut.WriteTraceCSV(w, records)
		}); err != nil {
			return ate.Stats{}, err
		}
		fmt.Fprintf(out, "  trace: %d cycles written to %s\n", len(records), f.CycleTraceOut)
		if start, end, mean, ok := dut.HotWindow(records, 32); ok {
			fmt.Fprintf(out, "  hot window: cycles %d–%d (mean SSN %.2f)\n", start, end, mean)
		}
		network := pdn.Default()
		droop, err := network.Simulate(records, best.Test.Cond.VddV, best.Test.Cond.ClockMHz)
		if err != nil {
			return ate.Stats{}, err
		}
		fmt.Fprintf(out, "  PDN: peak droop %.3f V at %.1f ns (cycle %d), mean %.4f V; network f0 %.1f MHz, ζ %.2f\n",
			droop.PeakDroopV, droop.PeakAtNS, droop.PeakCycle, droop.MeanDroopV,
			network.ResonantHz()/1e6, network.DampingRatio())
	}

	if f.PatternOut != "" {
		tests := make([]testgen.Test, 0, opt.Database.Len())
		for _, e := range opt.Database.Entries {
			tests = append(tests, e.Test)
		}
		if err := frame.PublishWith(f.PatternOut, func(w io.Writer) error {
			return testgen.WriteTests(w, tests)
		}); err != nil {
			return ate.Stats{}, err
		}
		fmt.Fprintf(out, "  %d pattern(s) written to %s\n", len(tests), f.PatternOut)
	}

	s := tester.Stats()
	fmt.Fprintf(out, "Tester totals: %d measurements, %d vectors, %.2f s simulated test time\n",
		s.Measurements, s.VectorsApplied, s.TestTimeSec)
	return s, nil
}

// shmooFlags holds cmd/shmoo's workload flags.
type shmooFlags struct {
	Tests  int
	DBPath string
	VddMin float64
	VddMax float64
	XMin   float64
	XMax   float64
}

// registerShmooFlags installs cmd/shmoo's workload flags and returns its
// flow.
func registerShmooFlags(fs *flag.FlagSet) flowFunc {
	f := &shmooFlags{}
	fs.IntVar(&f.Tests, "tests", 1000, "number of random tests to overlay")
	fs.StringVar(&f.DBPath, "db", "", "also overlay the tests of this worst-case database")
	fs.Float64Var(&f.VddMin, "vdd-min", 1.4, "Y axis lower bound (V)")
	fs.Float64Var(&f.VddMax, "vdd-max", 2.2, "Y axis upper bound (V)")
	fs.Float64Var(&f.XMin, "tdq-min", 18, "X axis lower bound (ns)")
	fs.Float64Var(&f.XMax, "tdq-max", 36, "X axis upper bound (ns)")
	return func(c *Common, out io.Writer) error {
		return c.Run("shmoo", out, func(tel *telemetry.Telemetry) (ate.Stats, error) {
			return runShmoo(c, f, out, tel)
		})
	}
}

// runShmoo regenerates the fig. 8 overlay shmoo plot.
func runShmoo(c *Common, f *shmooFlags, out io.Writer, tel *telemetry.Telemetry) (ate.Stats, error) {
	dev, err := dut.NewDevice(dut.DefaultGeometry(), dut.NewDie(0, dut.CornerTypical))
	if err != nil {
		return ate.Stats{}, err
	}
	tester := ate.New(dev, c.Seed)
	cond := testgen.NominalConditions()
	gen := testgen.NewRandomGenerator(c.Seed+1, dev.Geometry().Words(), testgen.DefaultConditionLimits())
	gen.FixedConditions = &cond

	x := shmoo.DefaultTDQAxis()
	x.Min, x.Max = f.XMin, f.XMax
	y := shmoo.DefaultVddAxis()
	y.Min, y.Max = f.VddMin, f.VddMax

	plot, err := shmoo.NewPlot(x, y)
	if err != nil {
		return ate.Stats{}, err
	}
	batch := gen.Batch(f.Tests)
	if f.DBPath != "" {
		db, err := core.LoadDatabaseFile(f.DBPath)
		if err != nil {
			return ate.Stats{}, err
		}
		for _, e := range db.Entries {
			batch = append(batch, e.Test)
		}
		fmt.Fprintf(out, "overlaying %d database tests on top of %d random tests\n", db.Len(), f.Tests)
	}
	if err := c.checkCancel(); err != nil {
		return ate.Stats{}, err
	}
	ph := tel.StartPhase("shmoo-overlay")
	sweep := ph.Span()
	plot.OnTest = func(index int, cost ate.Stats) {
		sweep.Event("test", telemetry.I("i", index),
			telemetry.I("measurements", cost.Measurements),
			telemetry.I("vectors", cost.VectorsApplied))
		tel.RecordItem("shmoo-test", index+1, len(batch))
	}
	fl := parallel.NewFleet(parallel.Bound(c.Parallel, len(batch)))
	defer fl.Close()
	if err := plot.AddTestsOn(fl, tester, batch, c.Seed); err != nil {
		return ate.Stats{}, err
	}
	plot.OnTest = nil
	ph.End(tester.Stats().Cost())

	fmt.Fprint(out, plot.Render())
	fmt.Fprintf(out, "worst-case trip point variation: %.2f ns\n", plot.WorstCaseVariation())
	allPass, anyPass, ok := plot.BoundarySpread(plot.Y.Steps / 2)
	if ok {
		fmt.Fprintf(out, "at mid supply: all tests pass up to %.2f ns, some up to %.2f ns\n", allPass, anyPass)
	}
	s := tester.Stats()
	fmt.Fprintf(out, "tester: %d measurements, %.1f s simulated test time\n", s.Measurements, s.TestTimeSec)
	return s, nil
}

// lotFlags holds cmd/lotchar's workload flags.
type lotFlags struct {
	DBPath    string
	Dies      minInt
	Wafers    minInt
	Guardband float64
}

// registerLotFlags installs cmd/lotchar's workload flags and returns its
// flow.
func registerLotFlags(fs *flag.FlagSet) flowFunc {
	f := &lotFlags{Dies: minInt{min: 1}, Wafers: minInt{min: 0}}
	fs.StringVar(&f.DBPath, "db", "", "worst-case database from 'characterize -db' (optional)")
	minIntVar(fs, &f.Dies, "dies", 20, "number of dies in the sample lot (with -wafers: dies per wafer)")
	minIntVar(fs, &f.Wafers, "wafers", 0, "screen a wafer lot with spatially structured process variation (0 = flat i.i.d. lot)")
	fs.Float64Var(&f.Guardband, "guardband", 0.05, "spec extraction guardband fraction")
	return func(c *Common, out io.Writer) error {
		return c.Run("lotchar", out, func(tel *telemetry.Telemetry) (ate.Stats, error) {
			return runLot(c, f, out, tel)
		})
	}
}

// printLotCost prints the one-line lot cost summary: throughput, total
// ATE measurements, and disk-cache effectiveness when a store is attached.
func printLotCost(out io.Writer, rep *core.LotReport, store *cachestore.Store, wallSec float64) {
	dps := 0.0
	if wallSec > 0 {
		dps = float64(rep.DieCount) / wallSec
	}
	line := fmt.Sprintf("lot cost: %d dies in %.2fs (%.1f dies/sec), %d ATE measurements",
		rep.DieCount, wallSec, dps, rep.Measurements)
	if store != nil {
		st := store.Stats()
		line += fmt.Sprintf(", disk cache hit rate %.1f%% (%d/%d, %d bytes on disk)",
			100*telemetry.HitRate(st.Hits, st.Misses), st.Hits, st.Hits+st.Misses, st.BytesOnDisk)
	}
	fmt.Fprintln(out, line)
}

// runLot screens a lot of dies with the worst-case tests and extracts the
// final device specification on the worst die.
func runLot(c *Common, f *lotFlags, out io.Writer, tel *telemetry.Telemetry) (ate.Stats, error) {
	geom := dut.DefaultGeometry()
	cond := testgen.NominalConditions()

	// Assemble the screened test set: the database tests (or a built-in
	// coordinated worst-case pattern) plus a March C- baseline.
	var tests []testgen.Test
	if f.DBPath != "" {
		db, err := core.LoadDatabaseFile(f.DBPath)
		if err != nil {
			return ate.Stats{}, err
		}
		for i, e := range db.Entries {
			if i >= 5 {
				break // the five worst are plenty for a lot screen
			}
			tests = append(tests, e.Test)
		}
		fmt.Fprintf(out, "loaded %d worst-case tests from %s\n", len(tests), f.DBPath)
	} else {
		worst, err := testgen.BusThrash(geom.Words(), 400, cond)
		if err != nil {
			return ate.Stats{}, err
		}
		worst.Name = "WORST-BUILTIN" // the lot cache key hashes the name
		tests = append(tests, worst)
		fmt.Fprintln(out, "no database given; using the built-in coordinated worst-case pattern")
	}
	march, err := testgen.MarchTest(testgen.MarchCMinus(), 0, 100, 0x55555555, cond)
	if err != nil {
		return ate.Stats{}, err
	}
	tests = append(tests, march)

	// --- Lot screen ---------------------------------------------------
	// Flat lots keep the legacy i.i.d. sample; -wafers switches to the
	// spatial wafer model. Either way the dies stream through the bounded
	// pipeline — per-die results are not retained, so lot size no longer
	// bounds memory.
	var src dut.DieSource
	if f.Wafers.n > 0 {
		wl, err := dut.NewWaferLot(c.Seed, f.Wafers.n, f.Dies.n)
		if err != nil {
			return ate.Stats{}, err
		}
		src = wl
	} else {
		src = dut.LotSlice(dut.NewDieLot(c.Seed, f.Dies.n))
	}
	store, err := c.OpenCacheStore(core.LotCacheScope)
	if err != nil {
		return ate.Stats{}, err
	}
	fl := parallel.NewFleet(parallel.Bound(c.Parallel, src.Len()))
	defer fl.Close()
	if err := c.checkCancel(); err != nil {
		return ate.Stats{}, err
	}
	screenStart := time.Now()
	rep, err := core.ScreenLotStream(ate.TDQ, tests, src, geom, c.Seed, core.LotOptions{
		Fleet:     fl,
		Cache:     store,
		Telemetry: tel,
	})
	if err != nil {
		return ate.Stats{}, err
	}
	screenWall := time.Since(screenStart).Seconds()
	fmt.Fprintln(out)
	fmt.Fprint(out, rep.Format())
	printLotCost(out, rep, store, screenWall)

	// --- Spec extraction on the worst die -----------------------------
	var worstDie *dut.Die
	for i := 0; i < src.Len(); i++ {
		if d := src.Die(i); d.ID == rep.WorstDie.DieID {
			worstDie = d
			break
		}
	}
	dev, err := dut.NewDevice(geom, worstDie)
	if err != nil {
		return ate.Stats{}, err
	}
	tester := ate.New(dev, c.Seed+999)
	cfg := charspec.DefaultConfig()
	cfg.Guardband = f.Guardband
	if err := c.checkCancel(); err != nil {
		return ate.Stats{}, err
	}
	ph := tel.StartPhase("spec-extract")
	spec, err := charspec.Extract(tester, ate.TDQ, tests, cfg)
	ph.End(tester.Stats().Cost())
	if err != nil {
		return ate.Stats{}, err
	}
	fmt.Fprintln(out)
	fmt.Fprintf(out, "environmental sweep on the worst die (#%d, %s):\n", worstDie.ID, worstDie.Corner)
	fmt.Fprint(out, spec.Format())

	total := rep.Stats
	total.Add(tester.Stats())
	return total, nil
}
