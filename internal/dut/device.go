package dut

import (
	"fmt"
	"maps"

	"repro/internal/testgen"
)

// Device is one simulated memory test chip: a die (process corner), a
// functional array and the parametric physics. A Device is what the ATE
// simulator contacts; it is not safe for concurrent use.
type Device struct {
	die  *Die
	mem  *Memory
	phys Physics
}

// NewDevice assembles a device from a geometry and a die, using the default
// physics.
func NewDevice(geom Geometry, die *Die) (*Device, error) {
	return NewDeviceWithPhysics(geom, die, DefaultPhysics())
}

// NewDeviceWithPhysics assembles a device with explicit physics constants
// (used by ablation benchmarks).
func NewDeviceWithPhysics(geom Geometry, die *Die, phys Physics) (*Device, error) {
	mem, err := NewMemory(geom, die)
	if err != nil {
		return nil, err
	}
	return &Device{die: die, mem: mem, phys: phys}, nil
}

// Clone returns an independent device around the same die: a fresh memory
// array with the same geometry, the same physics constants and a copy of
// the row repairs made so far. The die is shared — it is read-only during
// measurement — so a clone measures the same silicon without sharing any
// mutable state, which is what a parallel worker needs. Repairs made after
// the clone do not reach it.
func (d *Device) Clone() (*Device, error) {
	c, err := NewDeviceWithPhysics(d.mem.Geometry(), d.die, d.phys)
	if err != nil {
		return nil, err
	}
	c.mem.rowRemap = maps.Clone(d.mem.rowRemap)
	copy(c.mem.sparesUsed, d.mem.sparesUsed)
	return c, nil
}

// Retarget swaps a different die into the device, reusing the memory array
// (contents, open-row state and per-die repairs are cleared). After
// Retarget the device measures the new silicon exactly as a freshly
// constructed device would; it exists so a lot-screening worker can walk
// thousands of dies without a per-die array allocation.
func (d *Device) Retarget(die *Die) error {
	if err := d.mem.Retarget(die); err != nil {
		return err
	}
	d.die = die
	return nil
}

// Die returns the device's die.
func (d *Device) Die() *Die { return d.die }

// Geometry returns the array geometry.
func (d *Device) Geometry() Geometry { return d.mem.Geometry() }

// Profile is the result of executing one test on a device: the provoked
// activity and the functional outcome. Parametric values at any operating
// point derive cheaply from a Profile, because switching activity depends
// on the vector sequence, not on the measurement point.
type Profile struct {
	Test testgen.Test
	Act  Activity
	Func FunctionalResult

	die  *Die
	phys Physics
}

// Profile executes the test sequence once on a freshly cleared array and
// returns the activity/functional profile. When the die hosts weak cells
// the execution is repeated with the droop-corrected effective supply so
// functional corruption reflects the activity the sequence itself provokes.
func (d *Device) Profile(t testgen.Test) (Profile, error) {
	if err := t.Seq.Validate(d.mem.Geometry().Words()); err != nil {
		return Profile{}, fmt.Errorf("dut: profiling %s: %w", t.Name, err)
	}
	d.mem.Reset()
	act, fn := d.mem.Execute(t.Seq, t.Cond.VddV)
	if d.die.WeakCellCount() > 0 {
		vddEff := d.phys.EffectiveVdd(t.Cond.VddV, t.Cond.TempC, act, d.die)
		d.mem.Reset()
		act, fn = d.mem.Execute(t.Seq, vddEff)
	}
	return Profile{Test: t, Act: act, Func: fn, die: d.die, phys: d.phys}, nil
}

// Rebind returns the profile dev would compute for the same test, reusing
// this profile's pattern execution with dev's die and physics. Without
// weak cells, activity and the functional result depend only on the
// sequence and the geometry — row repairs move storage, not data — so a
// lot can execute each test once and rebind it to every clean die. ok is
// false when either die has weak cells, whose corruption depends on the
// die's own supply margin. dev must have the geometry p was executed on.
func (p *Profile) Rebind(dev *Device) (Profile, bool) {
	if p.die.WeakCellCount() > 0 || dev.die.WeakCellCount() > 0 {
		return Profile{}, false
	}
	q := *p
	q.die, q.phys = dev.die, dev.phys
	return q, true
}

// TDQWindowNS returns the data-output valid window at the profile's own
// test conditions.
func (p *Profile) TDQWindowNS() float64 {
	return p.TDQWindowNSAt(p.Test.Cond.VddV)
}

// TDQWindowNSAt returns the valid window with the supply overridden to vdd
// (temperature and clock stay at the test's conditions). The shmoo engine
// sweeps this axis.
func (p *Profile) TDQWindowNSAt(vdd float64) float64 {
	return p.phys.TDQWindowNS(vdd, p.Test.Cond.TempC, p.Test.Cond.ClockMHz, p.Act, p.die)
}

// TDQWindowNSAtCond returns the valid window at a fully overridden
// operating point. The ATE uses this to fold in junction self-heating on
// top of the programmed ambient.
func (p *Profile) TDQWindowNSAtCond(vdd, tempC, clockMHz float64) float64 {
	return p.phys.TDQWindowNS(vdd, tempC, clockMHz, p.Act, p.die)
}

// FmaxMHzAtCond returns Fmax at an overridden operating point.
func (p *Profile) FmaxMHzAtCond(vdd, tempC float64) float64 {
	return p.phys.FmaxMHz(vdd, tempC, p.Act, p.die)
}

// VddMinVAtCond returns Vddmin at an overridden temperature.
func (p *Profile) VddMinVAtCond(tempC float64) float64 {
	return p.phys.VddMinV(tempC, p.Act, p.die)
}

// MeanActivity returns a scalar activity summary in [0, 1], the heat the
// test deposits per cycle (used by the tester's thermal model).
func (p *Profile) MeanActivity() float64 {
	return (p.Act.ATDMean + p.Act.ToggleMean) / 2
}

// FmaxMHz returns the maximum passing clock frequency at the profile's
// conditions.
func (p *Profile) FmaxMHz() float64 {
	return p.phys.FmaxMHz(p.Test.Cond.VddV, p.Test.Cond.TempC, p.Act, p.die)
}

// VddMinV returns the minimum passing supply voltage at the profile's
// conditions.
func (p *Profile) VddMinV() float64 {
	return p.phys.VddMinV(p.Test.Cond.TempC, p.Act, p.die)
}

// EffectiveVdd returns the droop-corrected on-die supply at the profile's
// conditions.
func (p *Profile) EffectiveVdd() float64 {
	return p.phys.EffectiveVdd(p.Test.Cond.VddV, p.Test.Cond.TempC, p.Act, p.die)
}

// Ridge exposes the weakness-interaction activation for analysis tooling.
func (p *Profile) Ridge() float64 { return p.phys.Ridge(p.Act) }
