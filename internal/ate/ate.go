// Package ate simulates the industrial automatic test equipment the paper
// drives: it applies characterization tests to a device under test,
// performs single pass/fail measurements at programmable operating points,
// adds realistic measurement noise, and accounts for every measurement and
// every applied vector so the test-time savings of the Search Until Trip
// Point method can be quantified the way the paper quantifies them.
package ate

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/dut"
	"repro/internal/randstream"
	"repro/internal/search"
	"repro/internal/telemetry"
	"repro/internal/testgen"
)

// Stats accumulates the cost of everything the ATE executed.
type Stats struct {
	Measurements   int64   // pass/fail strobe measurements
	VectorsApplied int64   // total vector cycles driven into the DUT
	TestTimeSec    float64 // simulated tester wall time
	Profiles       int64   // distinct pattern loads (profile computations)

	// PerParam splits Measurements by the swept parameter (indexed by
	// Parameter); Functional counts full-pattern functional replays, which
	// sweep nothing. PerParam[...]+Functional == Measurements.
	PerParam   [NumParameters]int64
	Functional int64
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.Measurements += other.Measurements
	s.VectorsApplied += other.VectorsApplied
	s.TestTimeSec += other.TestTimeSec
	s.Profiles += other.Profiles
	for i := range s.PerParam {
		s.PerParam[i] += other.PerParam[i]
	}
	s.Functional += other.Functional
}

// Cost is these counters as a run-telemetry phase cost.
func (s Stats) Cost() telemetry.Cost {
	return telemetry.Cost{
		Measurements: s.Measurements,
		Vectors:      s.VectorsApplied,
		Profiles:     s.Profiles,
		SimTimeSec:   s.TestTimeSec,
	}
}

// CostSince is the tester cost consumed between the before snapshot and s.
func (s Stats) CostSince(before Stats) telemetry.Cost {
	return telemetry.Cost{
		Measurements: s.Measurements - before.Measurements,
		Vectors:      s.VectorsApplied - before.VectorsApplied,
		Profiles:     s.Profiles - before.Profiles,
		SimTimeSec:   s.TestTimeSec - before.TestTimeSec,
	}
}

// setupTimeSec is the fixed per-measurement tester overhead (pattern
// restart, level settle, strobe reprogram).
const setupTimeSec = 1e-3

// ATE is one tester insertion: a device in the socket plus the measurement
// electronics. Not safe for concurrent use; clone one ATE per goroutine.
type ATE struct {
	dev *dut.Device
	src *randstream.Source // the noise stream; rng draws it for single strobes
	rng *rand.Rand

	// NoiseFraction scales gaussian measurement noise: the sigma applied
	// to a measured parameter is NoiseFraction × the search resolution for
	// that parameter. Zero disables noise.
	NoiseFraction float64

	// Heating, when non-nil, models device self-heating across the
	// session: every applied measurement warms the junction and the
	// measured parameters shift accordingly (the drift of §1/§4). Nil
	// keeps the junction at the programmed ambient.
	Heating *Thermal

	// Profiler, when non-nil, replaces dev.Profile as the pattern-execution
	// path, so a caller can observe every pattern execution; charbench's
	// tracer wraps dev.Profile here to time them. (The lot screen installs
	// nothing: it shares executions across dies through Preload.) The
	// override must return results bit-identical to dev.Profile; cost
	// accounting (Profiles, pattern-load time) is unchanged, because the
	// tester still charges a pattern load even when the simulation
	// shortcuts it. Fork copies it, so it may run on several insertions at
	// once, and a profile it computes on a fork may be installed here with
	// Preload.
	Profiler func(dev *dut.Device, t testgen.Test) (dut.Profile, error)

	stats Stats

	// profile cache for the test currently loaded in pattern memory;
	// reloading patterns is what costs tester time, so consecutive
	// measurements of the same test reuse the profile.
	cached     dut.Profile
	cachedName string
	haveCached bool

	// value memo: the loaded profile's noiseless value of memoParam at the
	// last operating point (vdd, junction temperature, clock) a strobe
	// evaluated. install empties it with a NaN key, which never matches.
	memoParam                               Parameter
	memoVdd, memoTemp, memoClock, memoValue float64
}

// New creates a tester with the device in the socket. The seed drives
// measurement noise, the stream of math/rand's rand.NewSource(seed).
func New(dev *dut.Device, seed int64) *ATE {
	src := randstream.New(seed)
	return &ATE{
		dev:           dev,
		src:           src,
		rng:           rand.New(src),
		NoiseFraction: 0.25,
	}
}

// Device returns the device in the socket.
func (a *ATE) Device() *dut.Device { return a.dev }

// Stats returns a copy of the accumulated cost counters.
func (a *ATE) Stats() Stats { return a.stats }

// ResetStats clears the cost counters and invalidates the pattern-memory
// profile cache. The two must reset together: a phase that starts with a
// warm profile cache under-reports its Profiles cost, so per-phase
// breakdowns (Table 1 rows, run-report phases) would not sum to a
// fresh-tester run. The profile recomputation is deterministic, so the
// extra reload never changes measurement outcomes.
func (a *ATE) ResetStats() {
	a.stats = Stats{}
	a.Reload()
}

// Reload invalidates the pattern-memory profile cache. Call after anything
// that changes the device's behaviour for an already-loaded test — row
// repair, physics swap — so the next measurement re-executes the pattern.
// That measurement installs the new profile, which also empties the
// value memo, so no strobe reads a value of the old one.
func (a *ATE) Reload() { a.haveCached = false; a.cachedName = "" }

// load makes the test's profile current, computing it (through Profiler
// when set) if the pattern memory holds a different test, and returns the
// cached profile, valid until the next load, Preload or Reload. Tests are
// distinguished by name; one generator gives every test a unique name, but
// two generators may reuse one, so a phase that switches generators must
// start from a Reload (ResetStats does one). A profile computed elsewhere
// enters through Preload, which charges the same cost.
func (a *ATE) load(t testgen.Test) (*dut.Profile, error) {
	if a.haveCached && a.cachedName == t.Name {
		return &a.cached, nil
	}
	var p dut.Profile
	var err error
	if a.Profiler != nil {
		p, err = a.Profiler(a.dev, t)
	} else {
		p, err = a.dev.Profile(t)
	}
	if err != nil {
		return nil, err
	}
	a.install(p)
	return &a.cached, nil
}

// Preload installs a profile computed elsewhere for this device as the
// loaded pattern: on another insertion of it (a Fork, which clones the
// die, physics and repairs), so the pattern execution can run ahead on
// another goroutine while this tester keeps its own noise stream, or on
// another device and rebound to this one (dut.Profile.Rebind). It charges
// exactly what load would: nothing when p's test is already loaded (the
// loaded profile stays, as load would keep it), otherwise one pattern
// load. The next measurement of p.Test then strobes the profile without
// re-executing it.
func (a *ATE) Preload(p dut.Profile) {
	if a.haveCached && a.cachedName == p.Test.Name {
		return
	}
	a.install(p)
}

// install makes p the loaded pattern, empties the value memo and charges
// one pattern load. Every change of the loaded profile goes through here —
// load, Preload, and the first strobe after a Reload or Reseed — so the
// memo only ever holds a value of the profile it is strobed against.
func (a *ATE) install(p dut.Profile) {
	a.cached = p
	a.cachedName = p.Test.Name
	a.haveCached = true
	a.memoVdd = math.NaN()
	a.stats.Profiles++
}

// value returns the loaded profile p's noiseless value of param at the
// operating point, evaluating the physics once per parameter and point: the
// strobes of a shmoo row or an SUTP search all hit one point unless Heating
// moves the junction between them. param must be a known parameter.
func (a *ATE) value(param Parameter, p *dut.Profile, vdd, tempC, clockMHz float64) float64 {
	if param != a.memoParam || vdd != a.memoVdd || tempC != a.memoTemp || clockMHz != a.memoClock {
		a.memoParam, a.memoVdd, a.memoTemp, a.memoClock = param, vdd, tempC, clockMHz
		a.memoValue = parameters[param].value(p, vdd, tempC, clockMHz)
	}
	return a.memoValue
}

// chargeMeasurement accounts one pass/fail measurement of the test against
// the swept parameter (or the functional bucket when param is
// NumParameters) and advances the thermal model.
func (a *ATE) chargeMeasurement(t testgen.Test, activity float64, param Parameter) {
	a.tick(t, a.charge(t, param, 1), activity)
}

// charge counts n pass/fail measurements of the test against param (or the
// functional bucket when param is NumParameters) and returns the tester
// time each one takes; each must then tick the clock once.
func (a *ATE) charge(t testgen.Test, param Parameter, n int) float64 {
	if int(param) < len(a.stats.PerParam) {
		a.stats.PerParam[param] += int64(n)
	} else {
		a.stats.Functional += int64(n)
	}
	a.stats.Measurements += int64(n)
	a.stats.VectorsApplied += int64(n) * int64(len(t.Seq))
	clockHz := t.Cond.ClockMHz * 1e6
	if clockHz <= 0 {
		clockHz = 100e6
	}
	return setupTimeSec + float64(len(t.Seq))/clockHz
}

// tick runs one charged measurement of the test that takes dtSec. One
// float add per measurement keeps TestTimeSec's rounding as it was.
func (a *ATE) tick(t testgen.Test, dtSec, activity float64) {
	a.stats.TestTimeSec += dtSec
	a.Heating.advance(a.stats.TestTimeSec, len(t.Seq), activity)
}

// noise returns one gaussian noise sample with the given sigma. A single
// strobe draws through rng, which keeps the source's lazy O(1) reseed.
func (a *ATE) noise(sigma float64) float64 {
	if !a.noisy(sigma) {
		return 0
	}
	return a.rng.NormFloat64() * sigma
}

// noisy reports whether a measurement with this sigma draws noise.
func (a *ATE) noisy(sigma float64) bool { return !(sigma <= 0 || a.NoiseFraction <= 0) }

// Profile exposes the cached profile path for analysis tools (shmoo, WCR
// reports) that need parameter values rather than pass/fail bits.
func (a *ATE) Profile(t testgen.Test) (dut.Profile, error) {
	p, err := a.load(t)
	if err != nil {
		return dut.Profile{}, err
	}
	return *p, nil
}

// MeasurePass performs one pass/fail strobe of param at x for the test at
// its own conditions: a T_DQ strobe time, an Fmax clock or a Vddmin supply.
// The device passes when its noisy value lies on the pass side of x, the
// side the parameter's search orientation names.
func (a *ATE) MeasurePass(param Parameter, t testgen.Test, x float64) (bool, error) {
	if int(param) >= NumParameters {
		return false, fmt.Errorf("ate: unknown parameter %v", param)
	}
	p, err := a.load(t)
	if err != nil {
		return false, err
	}
	a.chargeMeasurement(t, p.MeanActivity(), param)
	temp := t.Cond.TempC + a.Heating.RiseC()
	opts := &parameters[param].opts
	v := a.value(param, p, t.Cond.VddV, temp, t.Cond.ClockMHz) + a.noise(a.NoiseFraction*opts.Resolution)
	if opts.Orientation == search.PassHigh {
		return x >= v, nil
	}
	return v >= x, nil
}

// MeasureShmooRow performs one shmoo row of T_DQ strobe measurements with
// the supply overridden to vdd (fig. 8's two axes): pass[i] reports whether
// the window covers strobes[i]; pass must be at least as long as strobes.
// The row measures exactly what len(strobes) single strobes at vdd would,
// in order: every strobe is charged, heats the junction and draws its own
// noise. Only the pattern load and the per-strobe cost are worked out once,
// the simulated clock runs in a local with the same adds, and a noisy row
// draws through a cursor on the noise stream, which it hands back after.
func (a *ATE) MeasureShmooRow(t testgen.Test, vdd float64, strobes []float64, pass []bool) error {
	p, err := a.load(t)
	if err != nil {
		return err
	}
	dt := a.charge(t, TDQ, len(strobes))
	activity := p.MeanActivity()
	sigma := a.NoiseFraction * TDQ.Resolution()
	noisy := a.noisy(sigma)
	var cur randstream.Cursor
	if noisy {
		cur = a.src.Cursor()
	}
	now := a.stats.TestTimeSec
	pass = pass[:len(strobes)]
	for i, strobe := range strobes {
		now += dt
		if a.Heating != nil {
			a.Heating.advance(now, len(t.Seq), activity)
		}
		temp := t.Cond.TempC + a.Heating.RiseC()
		var noise float64
		if noisy {
			noise = cur.NormFloat64() * sigma
		}
		pass[i] = a.value(TDQ, p, vdd, temp, t.Cond.ClockMHz)+noise >= strobe
	}
	a.stats.TestTimeSec = now
	if noisy {
		a.src.Resume(cur)
	}
	return nil
}

// FunctionalPass applies the test once at its own conditions and reports
// whether every read returned correct data. Functional failure patterns are
// stored separately from parametric drift in the paper's flow.
func (a *ATE) FunctionalPass(t testgen.Test) (bool, error) {
	p, err := a.load(t)
	if err != nil {
		return false, err
	}
	a.chargeMeasurement(t, p.MeanActivity(), Parameter(NumParameters))
	return !p.Func.Failed(), nil
}

// Measurer returns a search.Measurer that sweeps the given parameter for
// the test. Every Passes call is one accounted ATE measurement.
func (a *ATE) Measurer(param Parameter, t testgen.Test) search.Measurer {
	return search.MeasurerFunc(func(x float64) (bool, error) { return a.MeasurePass(param, t, x) })
}
