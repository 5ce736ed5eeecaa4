package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"repro/internal/ate"
	"repro/internal/cachestore"
	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/dut"
	"repro/internal/jobs"
	"repro/internal/parallel"
	"repro/internal/shmoo"
	"repro/internal/testgen"
)

// workload is one benchmark workload after set-up. Unit k runs on the
// inputs of seed+k; tr is nil for untimed and untraced units.
type workload interface {
	// unit runs unit k for client c. The returned finish checks and hashes
	// the output and releases the unit's files; the harness calls it after
	// the timed window, so it must hold only the unit's small results.
	unit(c, k int, tr *tracer) (finish, error)
	// recheck re-runs unit k another way — on one worker, or for a job
	// through the CLI flow path — and returns its digest.
	recheck(k int) (string, error)
	close() error
}

type finish func() (output, error)

// output is what a unit produced, reduced to what the benchmark checks and
// reports.
type output struct {
	digest       string
	measurements int64   // ATE measurements, the paper's cost unit
	simSec       float64 // simulated ATE test time
	wcr          [3]float64
}

// env is what a workload is set up from.
type env struct {
	seed    int64
	workers int
	smoke   bool
	dir     string // scratch directory owned by this instance
}

// spec describes a workload: its closed-loop client count, its fixed unit
// set (large enough that the tail percentile has ten units beyond it), the
// units of a traced pass, the units set-up runs untimed, and how many units
// are re-checked another way.
type spec struct {
	name     string
	why      string
	clients  int
	units    int
	tail     float64
	traced   int
	warmups  int
	rechecks int
	open     func(env) (workload, error)
}

var specs = []spec{
	{"table1", "the paper's headline flow; the only one where neural, genetic and the memo-cache do most of the work",
		1, 40, 75, 10, 1, 1, openTable1},
	{"shmoo", "DUT execution and grid measurement streamed over the fleet, with no search, NN or GA",
		1, 100, 90, 25, 1, 1, openShmoo},
	{"lot-cold", "many tiny tasks: fleet dispatch, the serial resolve and merge, and cachestore writes",
		1, 50, 80, 10, 1, 1, func(e env) (workload, error) { return openLot(e, false) }},
	{"lot-warm", "the same lot served from a populated cachestore: store load and decode, DUT work near zero",
		1, 100, 90, 25, 1, 1, func(e env) (workload, error) { return openLot(e, true) }},
	{"jobs", "the job service: journal fsyncs, trace writing and ledger finalization on the critical path",
		2, 100, 90, 24, 4, 4, openJobs},
}

// smokeUnits is the unit count of every workload at -scale smoke.
const smokeUnits = 2

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

func digest(parts ...string) string {
	h := sha256.New()
	for _, p := range parts {
		io.WriteString(h, p)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func typicalTester(seed int64) (*ate.ATE, error) {
	dev, err := dut.NewDevice(dut.DefaultGeometry(), dut.NewDie(0, dut.CornerTypical))
	if err != nil {
		return nil, err
	}
	return ate.New(dev, seed), nil
}

// --- table1 ---------------------------------------------------------------

type table1Bench struct{ env }

func openTable1(e env) (workload, error) { return &table1Bench{e}, nil }

func (w *table1Bench) unit(_, k int, tr *tracer) (finish, error) { return w.run(k, w.workers, tr) }

func (w *table1Bench) recheck(k int) (string, error) { return digestOf(w.run(k, 1, nil)) }

func (w *table1Bench) close() error { return nil }

func (w *table1Bench) run(k, workers int, tr *tracer) (finish, error) {
	seed := w.seed + int64(k)
	tester, err := typicalTester(seed)
	if err != nil {
		return nil, err
	}
	cfg := core.DefaultTable1Config(seed)
	cfg.Flow.Parallelism = workers
	if w.smoke {
		cfg.RandomTests = 40
		cfg.Flow.LearnTests = 30
		cfg.Flow.CandidatePool = 60
		cfg.Flow.SeedCount = 8
		cfg.Flow.GA.PopSize = 8
		cfg.Flow.GA.Islands = 1
		cfg.Flow.GA.MaxGenerations = 3
	}
	if tr != nil {
		tester.Profiler = tr.profile
		cfg.Flow.Telemetry = tr.telemetry()
	}
	tab, err := core.RunTable1(cfg, tester)
	if err != nil {
		return nil, err
	}
	return func() (output, error) {
		if len(tab.Rows) != 3 {
			return output{}, fmt.Errorf("table1 seed %d: %d rows, want 3", seed, len(tab.Rows))
		}
		return output{
			digest:       digest(tab.Format(), fmt.Sprintf("%+v\n", tab.Stats)),
			measurements: tab.Stats.Measurements,
			simSec:       tab.Stats.TestTimeSec,
			wcr:          [3]float64{tab.Rows[0].WCR, tab.Rows[1].WCR, tab.Rows[2].WCR},
		}, nil
	}, nil
}

// --- shmoo ----------------------------------------------------------------

type shmooBench struct {
	env
	fleet *parallel.Fleet
}

func openShmoo(e env) (workload, error) {
	return &shmooBench{env: e, fleet: parallel.NewFleet(e.workers)}, nil
}

func (w *shmooBench) unit(_, k int, tr *tracer) (finish, error) { return w.run(k, w.fleet, tr) }

func (w *shmooBench) recheck(k int) (string, error) {
	fl := parallel.NewFleet(1)
	defer fl.Close()
	return digestOf(w.run(k, fl, nil))
}

func (w *shmooBench) close() error {
	w.fleet.Close()
	return nil
}

// run overlays the fig. 8 shmoo of a batch of nominal random tests, as
// cmd/shmoo does with its default axes.
func (w *shmooBench) run(k int, fl *parallel.Fleet, tr *tracer) (finish, error) {
	seed := w.seed + int64(k)
	tester, err := typicalTester(seed)
	if err != nil {
		return nil, err
	}
	tests := 1000
	if w.smoke {
		tests = 20
	}
	t0 := time.Now()
	gen := testgen.NewRandomGenerator(seed+1, tester.Device().Geometry().Words(), testgen.DefaultConditionLimits())
	cond := testgen.NominalConditions()
	gen.FixedConditions = &cond
	batch := gen.Batch(tests)
	if tr != nil {
		tr.timed("testgen.gen", time.Since(t0))
		tester.Profiler = tr.profile
	}
	plot, err := shmoo.NewPlot(shmoo.DefaultTDQAxis(), shmoo.DefaultVddAxis())
	if err != nil {
		return nil, err
	}
	if err := plot.AddTestsOn(fl, tester, batch, seed); err != nil {
		return nil, err
	}
	s := tester.Stats() // the finish must not hold the tester's device
	return func() (output, error) {
		if plot.Tests != tests {
			return output{}, fmt.Errorf("shmoo seed %d: %d tests overlaid, want %d", seed, plot.Tests, tests)
		}
		return output{
			digest:       digest(plot.Render(), fmt.Sprintf("variation %.6f\n%+v\n", plot.WorstCaseVariation(), s)),
			measurements: s.Measurements,
			simSec:       s.TestTimeSec,
		}, nil
	}, nil
}

// --- lot-cold / lot-warm --------------------------------------------------

type lotBench struct {
	env
	warm   bool
	fleet  *parallel.Fleet
	tests  []testgen.Test
	wafers int
	dies   int
	seq    int

	// lot-warm: the store populated during set-up and the digest of the
	// cold screen that populated it, which every warm unit must equal.
	warmDir string
	cold    string
}

func openLot(e env, warm bool) (workload, error) {
	w := &lotBench{env: e, warm: warm, fleet: parallel.NewFleet(e.workers), wafers: 4, dies: 2500}
	if e.smoke {
		w.wafers, w.dies = 2, 50
	}
	var err error
	if w.tests, err = lotTests(); err != nil {
		w.fleet.Close()
		return nil, err
	}
	if warm {
		w.warmDir = filepath.Join(e.dir, "warm")
		out, err := digestFinish(w.screen(w.seed, w.warmDir, w.fleet, nil))
		if err != nil {
			w.fleet.Close()
			return nil, fmt.Errorf("populating the warm store: %w", err)
		}
		w.cold = out.digest
	}
	return w, nil
}

// lotTests is cmd/lotchar's built-in screen: the coordinated worst-case
// pattern plus a March C- baseline.
func lotTests() ([]testgen.Test, error) {
	cond := testgen.NominalConditions()
	words := dut.DefaultGeometry().Words()
	seq := make(testgen.Sequence, 0, 400)
	for i := 0; i < 200; i++ {
		base := uint32(0)
		if i%2 == 1 {
			base = words - 2
		}
		seq = append(seq,
			testgen.Vector{Op: testgen.OpWrite, Addr: base, Data: 0},
			testgen.Vector{Op: testgen.OpWrite, Addr: base + 1, Data: 0xFFFFFFFF},
		)
	}
	march, err := testgen.MarchTest(testgen.MarchCMinus(), 0, 100, 0x55555555, cond)
	if err != nil {
		return nil, err
	}
	return []testgen.Test{{Name: "WORST-BUILTIN", Seq: seq, Cond: cond}, march}, nil
}

func (w *lotBench) unit(_, k int, tr *tracer) (finish, error) {
	if w.warm {
		return w.screen(w.seed, w.warmDir, w.fleet, tr)
	}
	return w.screen(w.seed+int64(k), w.freshDir(), w.fleet, tr)
}

func (w *lotBench) recheck(k int) (string, error) {
	fl := parallel.NewFleet(1)
	defer fl.Close()
	if w.warm {
		return digestOf(w.screen(w.seed, w.warmDir, fl, nil))
	}
	return digestOf(w.screen(w.seed+int64(k), w.freshDir(), fl, nil))
}

func (w *lotBench) close() error {
	w.fleet.Close()
	return nil
}

func (w *lotBench) freshDir() string {
	w.seq++
	return filepath.Join(w.dir, fmt.Sprintf("store-%d", w.seq))
}

// screen streams one wafer lot through core.ScreenLotStream with the store
// in dir. A cold unit's store is removed by its finish.
func (w *lotBench) screen(seed int64, dir string, fl *parallel.Fleet, tr *tracer) (finish, error) {
	t0 := time.Now()
	store, err := cachestore.Open(dir, core.LotCacheScope)
	if err != nil {
		return nil, err
	}
	opened := time.Since(t0)
	var src dut.DieSource
	if src, err = dut.NewWaferLot(seed, w.wafers, w.dies); err != nil {
		return nil, err
	}
	opts := core.LotOptions{Fleet: fl, Cache: store}
	if tr != nil {
		tr.timed("cachestore.open", opened)
		src = timedSource{src, tr}
		opts.Telemetry = tr.telemetry()
	}
	rep, err := core.ScreenLotStream(ate.TDQ, w.tests, src, dut.DefaultGeometry(), seed, opts)
	if err != nil {
		return nil, err
	}
	st := store.Stats() // the finish must not hold the store's entries
	return func() (output, error) {
		if dir != w.warmDir {
			defer os.RemoveAll(dir)
		}
		if want := w.wafers * w.dies; rep.DieCount != want {
			return output{}, fmt.Errorf("lot seed %d: %d dies screened, want %d", seed, rep.DieCount, want)
		}
		if tr != nil {
			tr.store(st.Hits, st.Misses, st.BytesOnDisk)
		}
		out := output{
			digest:       digest(rep.Format(), fmt.Sprintf("%d\n%+v\n", rep.Measurements, rep.Stats)),
			measurements: rep.Measurements,
			simSec:       rep.Stats.TestTimeSec,
		}
		if w.cold != "" && out.digest != w.cold {
			return out, fmt.Errorf("lot seed %d: warm screen differs from the cold screen that populated the store", seed)
		}
		return out, nil
	}, nil
}

// --- jobs -----------------------------------------------------------------

type jobsBench struct {
	env
	srv *jobs.Server
	seq int
}

func openJobs(e env) (workload, error) {
	srv, err := jobs.New(jobs.Options{
		QueueDir: filepath.Join(e.dir, "queue"),
		RunDir:   filepath.Join(e.dir, "runs"),
		Workers:  e.workers,
	})
	if err != nil {
		return nil, err
	}
	return &jobsBench{env: e, srv: srv}, nil
}

// submission is job k: the flows rotate through learn, shmoo, lot and
// optimize at sizes that keep one job near a twentieth of a second.
func (w *jobsBench) submission(k int) jobs.Submission {
	args := []map[string]string{
		{"learn-tests": "60"},
		{"tests": "200"},
		{"wafers": "4", "dies": "500"},
		{"learn-tests": "60"},
	}
	if w.smoke {
		args = []map[string]string{
			{"learn-tests": "20"},
			{"tests": "20"},
			{"wafers": "1", "dies": "20"},
			{"learn-tests": "20"},
		}
	}
	flows := []string{"learn", "shmoo", "lot", "optimize"}
	return jobs.Submission{Flow: flows[k%4], Seed: w.seed + int64(k), Args: args[k%4], Parallel: 1}
}

// unit submits job k and waits until it is terminal, as a closed-loop
// client does.
func (w *jobsBench) unit(c, k int, tr *tracer) (finish, error) {
	t0 := time.Now()
	j, err := w.srv.Submit(w.submission(k))
	if err != nil {
		return nil, err
	}
	submitted := time.Now()
	p := w.srv.Progress(j.ID)
	timeout := time.NewTimer(2 * time.Minute)
	defer timeout.Stop()
	for {
		changed := p.Watch()
		if j, err = w.srv.Get(j.ID); err != nil {
			return nil, err
		}
		if j.State.Terminal() {
			break
		}
		select {
		case <-changed:
		case <-timeout.C:
			return nil, fmt.Errorf("job %s (%s) not finished after 2m", j.ID, j.Flow)
		}
	}
	end := time.Now()
	if j.State != jobs.StateDone {
		return nil, fmt.Errorf("job %s (%s) %s: %s", j.ID, j.Flow, j.State, j.Error)
	}
	if tr != nil {
		tr.job(c, t0, submitted, end, j.StartedUnixNano, j.FinishedUnixNano)
	}
	return func() (output, error) {
		rec, err := w.srv.Store().Get(j.RunID)
		if err != nil {
			return output{}, err
		}
		tot, ok := rec.Totals()
		if !ok {
			return output{}, fmt.Errorf("job %s: run %s has no report totals", j.ID, j.RunID)
		}
		return output{digest: j.RunID, measurements: tot.Measurements, simSec: tot.SimTimeSec}, nil
	}, nil
}

// recheck runs job k's flow directly through cli.NewFlowRun at full
// parallelism; the content-addressed run ID must equal the job's.
func (w *jobsBench) recheck(k int) (string, error) {
	return w.direct(k, true, w.workers)
}

// direct runs job k's flow in process the way the server executes it, with
// the run ledger on or off.
func (w *jobsBench) direct(k int, ledger bool, workers int) (string, error) {
	sub := w.submission(k)
	if sub.Seed == 0 {
		sub.Seed = 1 // jobs.Server.Submit's default, which the job ran with
	}
	fr, err := cli.NewFlowRun(cli.FlowSpec{Flow: sub.Flow, Seed: sub.Seed, Args: sub.Args})
	if err != nil {
		return "", err
	}
	c := fr.Common
	c.Embedded = true
	c.Parallel = workers
	if ledger {
		w.seq++
		c.RunDir = filepath.Join(w.dir, fmt.Sprintf("direct-%d", w.seq))
		defer os.RemoveAll(c.RunDir)
	}
	if err := fr.Run(io.Discard); err != nil {
		return "", err
	}
	id, _ := c.LastRun()
	return id, nil
}

// ledgerOverhead times the four flows run directly with the run ledger on
// and off, three pairs each, alternating which goes first, and returns
// on/off − 1.
func (w *jobsBench) ledgerOverhead() (float64, error) {
	var on, off time.Duration
	for k := 0; k < 12; k++ {
		for i := 0; i < 2; i++ {
			ledger := (i+k)%2 == 1
			t0 := time.Now()
			if _, err := w.direct(k%4, ledger, 1); err != nil {
				return 0, err
			}
			if ledger {
				on += time.Since(t0)
			} else {
				off += time.Since(t0)
			}
		}
	}
	return on.Seconds()/off.Seconds() - 1, nil
}

func (w *jobsBench) close() error { return w.srv.Close() }

func digestFinish(fin finish, err error) (output, error) {
	if err != nil {
		return output{}, err
	}
	return fin()
}

func digestOf(fin finish, err error) (string, error) {
	out, err := digestFinish(fin, err)
	return out.digest, err
}
