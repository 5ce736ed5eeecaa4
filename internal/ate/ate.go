// Package ate simulates the industrial automatic test equipment the paper
// drives: it applies characterization tests to a device under test,
// performs single pass/fail measurements at programmable operating points,
// adds realistic measurement noise, and accounts for every measurement and
// every applied vector so the test-time savings of the Search Until Trip
// Point method can be quantified the way the paper quantifies them.
package ate

import (
	"fmt"
	"math/rand"

	"repro/internal/dut"
	"repro/internal/search"
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

// ForParam returns the pass/fail measurement count charged to the
// parameter.
func (s Stats) ForParam(p Parameter) int64 {
	if int(p) >= len(s.PerParam) {
		return 0
	}
	return s.PerParam[p]
}

// setupTimeSec is the fixed per-measurement tester overhead (pattern
// restart, level settle, strobe reprogram).
const setupTimeSec = 1e-3

// ATE is one tester insertion: a device in the socket plus the measurement
// electronics. Not safe for concurrent use; clone one ATE per goroutine.
type ATE struct {
	dev *dut.Device
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

	// Repeats is the settling-repeat count: each Measurer pass/fail
	// decision is the majority of this many physical measurements, the
	// standard ATE defence against noise at the trip-point edge. Values
	// below 1 and even values round up to the next odd count. Default 1
	// (single measurement).
	Repeats int

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
}

// New creates a tester with the device in the socket. The seed drives
// measurement noise, the stream of math/rand's rand.NewSource(seed).
func New(dev *dut.Device, seed int64) *ATE {
	return &ATE{
		dev:           dev,
		rng:           rand.New(newNoiseSource(seed)),
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

// install makes p the loaded pattern and charges one pattern load.
func (a *ATE) install(p dut.Profile) {
	a.cached = p
	a.cachedName = p.Test.Name
	a.haveCached = true
	a.stats.Profiles++
}

// chargeMeasurement accounts one pass/fail measurement of the test against
// the swept parameter (or the functional bucket when param is
// NumParameters) and advances the thermal model.
func (a *ATE) chargeMeasurement(t testgen.Test, activity float64, param Parameter) {
	if int(param) < len(a.stats.PerParam) {
		a.stats.PerParam[param]++
	} else {
		a.stats.Functional++
	}
	a.stats.Measurements++
	a.stats.VectorsApplied += int64(len(t.Seq))
	clockHz := t.Cond.ClockMHz * 1e6
	if clockHz <= 0 {
		clockHz = 100e6
	}
	a.stats.TestTimeSec += setupTimeSec + float64(len(t.Seq))/clockHz
	a.Heating.advance(a.stats.TestTimeSec, len(t.Seq), activity)
}

// JunctionTempC returns the effective junction temperature for a test:
// programmed ambient plus the self-heating rise.
func (a *ATE) JunctionTempC(t testgen.Test) float64 {
	return t.Cond.TempC + a.Heating.RiseC()
}

// noise returns one gaussian noise sample with the given sigma.
func (a *ATE) noise(sigma float64) float64 {
	if sigma <= 0 || a.NoiseFraction <= 0 {
		return 0
	}
	return a.rng.NormFloat64() * sigma
}

// Profile exposes the cached profile path for analysis tools (shmoo, WCR
// reports) that need parameter values rather than pass/fail bits.
func (a *ATE) Profile(t testgen.Test) (dut.Profile, error) {
	p, err := a.load(t)
	if err != nil {
		return dut.Profile{}, err
	}
	return *p, nil
}

// MeasureTDQPass performs one strobe measurement of the data-output valid
// window: the device passes when its window at the test's conditions covers
// the strobe.
func (a *ATE) MeasureTDQPass(t testgen.Test, strobeNS float64) (bool, error) {
	p, err := a.load(t)
	if err != nil {
		return false, err
	}
	a.chargeMeasurement(t, p.MeanActivity(), TDQ)
	temp := t.Cond.TempC + a.Heating.RiseC()
	w := p.TDQWindowNSAtCond(t.Cond.VddV, temp, t.Cond.ClockMHz) + a.noise(a.NoiseFraction*TDQ.Resolution())
	return w >= strobeNS, nil
}

// MeasureShmooPoint performs one shmoo-point measurement: pass/fail of the
// T_DQ strobe with the supply overridden to vdd (fig. 8's two axes).
func (a *ATE) MeasureShmooPoint(t testgen.Test, vdd, strobeNS float64) (bool, error) {
	p, err := a.load(t)
	if err != nil {
		return false, err
	}
	a.chargeMeasurement(t, p.MeanActivity(), TDQ)
	temp := t.Cond.TempC + a.Heating.RiseC()
	w := p.TDQWindowNSAtCond(vdd, temp, t.Cond.ClockMHz) + a.noise(a.NoiseFraction*TDQ.Resolution())
	return w >= strobeNS, nil
}

// MeasureFmaxPass reports whether the device runs functionally at the given
// clock frequency under the test.
func (a *ATE) MeasureFmaxPass(t testgen.Test, clockMHz float64) (bool, error) {
	p, err := a.load(t)
	if err != nil {
		return false, err
	}
	a.chargeMeasurement(t, p.MeanActivity(), Fmax)
	temp := t.Cond.TempC + a.Heating.RiseC()
	f := p.FmaxMHzAtCond(t.Cond.VddV, temp) + a.noise(a.NoiseFraction*Fmax.Resolution())
	return clockMHz <= f, nil
}

// MeasureVddMinPass reports whether the device passes with the supply set
// to vdd.
func (a *ATE) MeasureVddMinPass(t testgen.Test, vdd float64) (bool, error) {
	p, err := a.load(t)
	if err != nil {
		return false, err
	}
	a.chargeMeasurement(t, p.MeanActivity(), VddMin)
	temp := t.Cond.TempC + a.Heating.RiseC()
	vmin := p.VddMinVAtCond(temp) + a.noise(a.NoiseFraction*VddMin.Resolution())
	return vdd >= vmin, nil
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

// majority wraps a single-measurement function with the settling-repeat
// majority vote.
func (a *ATE) majority(one func() (bool, error)) (bool, error) {
	k := a.Repeats
	if k < 1 {
		k = 1
	}
	if k%2 == 0 {
		k++
	}
	passes := 0
	for i := 0; i < k; i++ {
		ok, err := one()
		if err != nil {
			return false, err
		}
		if ok {
			passes++
		}
		// Early exit once the vote is decided.
		if passes > k/2 || (i+1-passes) > k/2 {
			break
		}
	}
	return passes > k/2, nil
}

// Measurer returns a search.Measurer that sweeps the given parameter for
// the test. Every Passes call is Repeats accounted ATE measurements
// (majority voted); with the default Repeats of 1, exactly one.
func (a *ATE) Measurer(param Parameter, t testgen.Test) search.Measurer {
	switch param {
	case TDQ:
		return search.MeasurerFunc(func(v float64) (bool, error) {
			return a.majority(func() (bool, error) { return a.MeasureTDQPass(t, v) })
		})
	case Fmax:
		return search.MeasurerFunc(func(v float64) (bool, error) {
			return a.majority(func() (bool, error) { return a.MeasureFmaxPass(t, v) })
		})
	case VddMin:
		return search.MeasurerFunc(func(v float64) (bool, error) {
			return a.majority(func() (bool, error) { return a.MeasureVddMinPass(t, v) })
		})
	default:
		return search.MeasurerFunc(func(float64) (bool, error) {
			return false, fmt.Errorf("ate: unknown parameter %v", param)
		})
	}
}
