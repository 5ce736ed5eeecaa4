package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// config is one run of one workload.
type config struct {
	workload string
	seed     int64
	seconds  float64 // 0: exactly the fixed unit set
	trace    bool
	smoke    bool
	chrome   bool
	dir      string // scratch directory, removed by whoever created it
}

// result is what one run reports; a child process prints it as JSON.
type result struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Trace     bool               `json:"trace"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Checks    string             `json:"checks"`
	Metrics   map[string]float64 `json:"metrics"`
	Info      map[string]float64 `json:"info,omitempty"`
	Digests   []string           `json:"digests,omitempty"`
	Problems  []string           `json:"problems,omitempty"`
	Events    []chromeEvent      `json:"events,omitempty"`
}

// setupRounds is how often a run sets its workload up; setup_s is the
// median, so slow rounds (the first pays for lazy runtime start-up) do not
// move it.
const setupRounds = 5

//go:embed testdata/expected.json
var expectedJSON []byte

// pins maps scale → seed → workload → per-unit digests.
type pins map[string]map[string]map[string][]string

func loadPins() (pins, error) {
	var p pins
	if err := json.Unmarshal(expectedJSON, &p); err != nil {
		return nil, fmt.Errorf("testdata/expected.json: %w", err)
	}
	return p, nil
}

// pinned returns the pinned digests unit k of the workload must match; a
// lot-warm unit must match the cold screen of the same lot.
func (p pins) pinned(scale string, seed int64, workload string) []string {
	byName := p[scale][strconv.FormatInt(seed, 10)]
	if workload == "lot-warm" {
		cold := byName["lot-cold"]
		if len(cold) == 0 {
			return nil
		}
		return []string{cold[0]}
	}
	return byName[workload]
}

func scaleName(smoke bool) string {
	if smoke {
		return "smoke"
	}
	return "full"
}

// unitRec is one unit as the harness saw it.
type unitRec struct {
	k          int
	start, end time.Time
	fin        finish
	err        error
	rssMB      float64 // resident set size when the unit ended
}

func (u unitRec) ms() float64 { return float64(u.end.Sub(u.start).Nanoseconds()) / 1e6 }

// runUnits runs units from k = from up with the workload's closed-loop
// clients for as long as more(k) allows, and returns them in unit order.
// With one client and a tracer, each unit's spans are attributed as it ends.
func runUnits(w workload, clients, from int, more func(k int) bool, tr *tracer) []unitRec {
	var (
		next atomic.Int64
		mu   sync.Mutex
		recs []unitRec
		wg   sync.WaitGroup
	)
	next.Store(int64(from))
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				k := int(next.Add(1) - 1)
				if !more(k) {
					return
				}
				if tr != nil && clients == 1 {
					tr.beginUnit()
				}
				r := unitRec{k: k, start: time.Now()}
				r.fin, r.err = w.unit(c, k, tr)
				r.end = time.Now()
				r.rssMB = residentMB()
				if tr != nil && clients == 1 {
					tr.endUnit(r.start, r.end)
				}
				mu.Lock()
				recs = append(recs, r)
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	sort.Slice(recs, func(i, j int) bool { return recs[i].k < recs[j].k })
	return recs
}

// checker verifies unit outputs: pinned digests where the seed has them,
// the set-up's warm-up units against the same units timed (same inputs,
// same process), and re-runs on another worker count.
type checker struct {
	pinned   []string
	warmups  []string
	outs     map[int]output
	failed   map[int]bool
	problems []string
	matched  int
}

func (c *checker) fail(k int, format string, args ...any) {
	c.failed[k] = true
	c.problems = append(c.problems, fmt.Sprintf("unit %d: ", k)+fmt.Sprintf(format, args...))
}

// check finishes a pass's units and checks each against the pins and the
// warm-up.
func (c *checker) check(recs []unitRec, lotWarm bool) {
	for _, r := range recs {
		if r.err != nil {
			c.fail(r.k, "%v", r.err)
			continue
		}
		out, err := r.fin()
		if err != nil {
			c.fail(r.k, "%v", err)
			continue
		}
		if prev, ok := c.outs[r.k]; ok && prev.digest != out.digest {
			c.fail(r.k, "digest differs between the untraced and traced pass")
			continue
		}
		c.outs[r.k] = out
		pin := r.k
		if lotWarm {
			pin = 0
		}
		if pin < len(c.pinned) {
			if out.digest != c.pinned[pin] {
				c.fail(r.k, "digest %.16s… differs from pinned %.16s…", out.digest, c.pinned[pin])
				continue
			}
			c.matched++
		}
		warm := r.k
		if lotWarm {
			warm = 0
		}
		if warm < len(c.warmups) && out.digest != c.warmups[warm] {
			c.fail(r.k, "digest differs from the set-up's warm-up run of the same unit")
		}
	}
}

// runWorkload sets the workload up, runs it, checks every output and
// returns its metrics: end-to-end ones untraced, per-layer ones traced.
func runWorkload(cfg config) (*result, error) {
	origin := time.Now()
	sp, ok := specByName(cfg.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	p, err := loadPins()
	if err != nil {
		return nil, err
	}
	units, traced := sp.units, sp.traced
	if cfg.smoke {
		units, traced = smokeUnits, smokeUnits
	}
	e := env{seed: cfg.seed, workers: runtime.NumCPU(), smoke: cfg.smoke}
	chk := &checker{
		pinned: p.pinned(scaleName(cfg.smoke), cfg.seed, sp.name),
		outs:   map[int]output{},
		failed: map[int]bool{},
	}

	// Set-up: build the workload from nothing and run its untimed warm-up
	// units, several times; the last round's instance is the one measured.
	var (
		w      workload
		setups []float64
	)
	for r := 0; r < setupRounds; r++ {
		e.dir = filepath.Join(cfg.dir, fmt.Sprintf("setup-%d", r))
		t0 := time.Now()
		if w, err = sp.open(e); err != nil {
			return nil, fmt.Errorf("%s set-up: %w", sp.name, err)
		}
		fins := make([]finish, sp.warmups)
		for k := range fins {
			if fins[k], err = w.unit(0, k, nil); err != nil {
				break
			}
		}
		setups = append(setups, time.Since(t0).Seconds())
		chk.warmups = chk.warmups[:0]
		for k := 0; err == nil && k < len(fins); k++ {
			var out output
			out, err = fins[k]()
			chk.warmups = append(chk.warmups, out.digest)
		}
		if err != nil {
			w.close()
			return nil, fmt.Errorf("%s warm-up: %w", sp.name, err)
		}
		if r < setupRounds-1 {
			if err := w.close(); err != nil {
				return nil, err
			}
			os.RemoveAll(e.dir)
		}
	}
	defer w.close()

	res := &result{Workload: sp.name, Seed: cfg.seed, Trace: cfg.trace}
	timeUp := func(t0 time.Time, seconds float64) bool {
		return seconds <= 0 || time.Since(t0).Seconds() >= seconds
	}
	lotWarm := sp.name == "lot-warm"

	var recs []unitRec
	if !cfg.trace {
		ru0, t0 := cpuTime(), time.Now()
		recs = runUnits(w, sp.clients, 0, func(k int) bool { return k < units || !timeUp(t0, cfg.seconds) }, nil)
		window := time.Since(t0).Seconds()
		cpu := cpuTime() - ru0
		chk.check(recs, lotWarm)

		ms := make([]float64, len(recs))
		rss := make([]float64, len(recs))
		for i, r := range recs {
			ms[i], rss[i] = r.ms(), r.rssMB
		}
		n := float64(len(recs))
		res.Metrics = map[string]float64{
			"setup_s":         percentile(setups, 50),
			"unit_p50_ms":     percentile(ms, 50),
			"unit_tail_ms":    percentile(ms, sp.tail),
			"units_per_s":     n / window,
			"cpu_ms_per_unit": cpu.Seconds() / n * 1e3,
			"rss_p50_mb":      percentile(rss, 50),
		}
		// The ATE cost covers the fixed unit set only, so it repeats
		// exactly for a seed however many units the window fits.
		var meas, sim, shapeOK float64
		var wcr [3]float64
		for k := 0; k < units; k++ {
			out := chk.outs[k]
			meas += float64(out.measurements)
			sim += out.simSec
			for i := range wcr {
				wcr[i] += out.wcr[i] / float64(units)
			}
			if out.wcr[0] < out.wcr[1] && out.wcr[1] < out.wcr[2] {
				shapeOK++
			}
		}
		res.Metrics["ate_meas_per_unit"] = meas / float64(units)
		res.Info = map[string]float64{"ate_sim_s_per_unit": sim / float64(units)}
		if sp.name == "table1" {
			res.Info["march_wcr_mean"] = wcr[0]
			res.Info["random_wcr_mean"] = wcr[1]
			res.Info["nnga_wcr_mean"] = wcr[2]
			res.Info["shape_ok_frac"] = shapeOK / float64(units)
		}
	} else {
		// The same units twice, untraced and traced, the latter on a second
		// instance set up the same way, so the trace overhead compares like
		// with like. End-to-end numbers never come from the traced pass.
		eT := e
		eT.dir = filepath.Join(cfg.dir, "traced")
		wT, err := sp.open(eT)
		if err != nil {
			return nil, fmt.Errorf("%s traced set-up: %w", sp.name, err)
		}
		defer wT.close()
		for k := 0; k < sp.warmups; k++ {
			if _, err := digestFinish(wT.unit(0, k, nil)); err != nil {
				return nil, fmt.Errorf("%s traced warm-up: %w", sp.name, err)
			}
		}

		// Blocks of one unit per client, alternating which pass goes first.
		tr := newTracer(origin, cfg.chrome)
		var recsT []unitRec
		t0 := time.Now()
		for from := 0; from < traced || !timeUp(t0, cfg.seconds); from += sp.clients {
			block := func(k int) bool { return k < from+sp.clients }
			plain := func() { recs = append(recs, runUnits(w, sp.clients, from, block, nil)...) }
			hooked := func() {
				tr.traced(func() { recsT = append(recsT, runUnits(wT, sp.clients, from, block, tr)...) })
			}
			if from/sp.clients%2 == 0 {
				plain()
				hooked()
			} else {
				hooked()
				plain()
			}
		}
		chk.check(recs, lotWarm)
		chk.check(recsT, lotWarm)

		var untraced time.Duration
		for _, r := range recs {
			untraced += r.end.Sub(r.start)
		}
		ledger := 0.0
		if jb, ok := w.(*jobsBench); ok {
			if ledger, err = jb.ledgerOverhead(); err != nil {
				return nil, fmt.Errorf("ledger overhead: %w", err)
			}
		}
		res.Metrics = tr.results(untraced, ledger)
		res.Events = tr.events
	}

	// Re-run the first units on another worker count (for jobs, through the
	// CLI path); the deterministic simulator must reproduce every digest.
	rechecks := 0
	for k := 0; k < sp.rechecks && k < len(recs); k++ {
		out, ok := chk.outs[k]
		if !ok {
			continue
		}
		rechecks++
		d, err := w.recheck(k)
		switch {
		case err != nil:
			chk.fail(k, "recheck: %v", err)
		case d != out.digest:
			chk.fail(k, "digest %.16s… differs on a recheck with another worker count (%.16s…)", out.digest, d)
		}
	}

	res.Attempted = len(recs)
	res.Failed = len(chk.failed)
	res.Problems = chk.problems
	for k := 0; k < len(recs); k++ {
		res.Digests = append(res.Digests, chk.outs[k].digest)
	}
	pinned := fmt.Sprintf("%d units matched pinned digests", chk.matched)
	if len(chk.pinned) == 0 {
		pinned = fmt.Sprintf("no pinned digests for seed %d at scale %s", cfg.seed, scaleName(cfg.smoke))
	}
	res.Checks = fmt.Sprintf("%s; compared %d warm-up unit(s) and %d recheck(s) on another worker count",
		pinned, len(chk.warmups), rechecks)
	return res, nil
}

// residentMB returns the process's resident set size in MiB, or 0 where
// /proc/self/statm cannot be read.
func residentMB() float64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0
	}
	pages, err := strconv.ParseFloat(f[1], 64)
	if err != nil {
		return 0
	}
	return pages * float64(os.Getpagesize()) / (1 << 20)
}

// cpuTime returns the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
