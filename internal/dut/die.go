// Package dut implements the device under test: a behavioural model of the
// 140 nm memory test chip the paper characterizes. The model has two layers:
//
//   - a functional layer (memory.go): a banked SRAM array that executes test
//     sequences cycle by cycle and records the switching activity the
//     sequence provokes on the address and data buses;
//   - a parametric layer (physics.go, device.go): supply-noise and timing
//     physics that map the recorded activity, the test conditions and the
//     die's process corner onto measurable AC parameters — the data output
//     valid time T_DQ of fig. 7, the maximum clock frequency, and the
//     minimum operating voltage.
//
// The essential property reproduced from the paper is that the parameters
// are *test dependent*: different vector sequences provoke different trip
// points, and a narrow class of high-activity sequences provokes a much
// larger drift (the hidden "design weakness") that deterministic March
// baselines and uniform random tests are unlikely to excite.
package dut

import (
	"math"
	"math/rand"
	"sort"

	"repro/internal/testgen"
)

// Corner identifies a process corner of a fabricated die.
type Corner uint8

const (
	// CornerTypical is the nominal process point.
	CornerTypical Corner = iota
	// CornerFast has faster transistors (larger timing margins).
	CornerFast
	// CornerSlow has slower transistors (smaller timing margins).
	CornerSlow
)

// String returns the conventional corner name.
func (c Corner) String() string {
	switch c {
	case CornerTypical:
		return "TT"
	case CornerFast:
		return "FF"
	case CornerSlow:
		return "SS"
	default:
		return "corner?"
	}
}

// Die captures the per-device process variation of one fabricated sample.
// Characterization selects "a statistically significant sample of devices"
// (§1); NewDieLot draws such a sample.
type Die struct {
	ID     int
	Corner Corner

	// tdqOffsetNS shifts the die's nominal T_DQ window (process spread).
	tdqOffsetNS float64
	// speedFactor scales access-time sensitivity (1.0 = nominal).
	speedFactor float64
	// leakageFactor scales temperature-dependent leakage (1.0 = nominal).
	leakageFactor float64
	// weakCells maps word addresses to the effective-Vdd threshold below
	// which reads of that cell corrupt (functional failure injection).
	weakCells map[uint32]float64
}

// DieOption customizes dies produced by NewDie.
type DieOption func(*Die)

// WithExtraTDQOffsetNS shifts the die's nominal T_DQ window by an
// additional amount on top of the corner's — used to construct explicit
// process outliers (e.g. marginal dies that violate the spec only under
// the worst-case test) in screening scenarios and tests.
func WithExtraTDQOffsetNS(deltaNS float64) DieOption {
	return func(d *Die) { d.tdqOffsetNS += deltaNS }
}

// WithWeakCell injects a marginal cell: reads of addr corrupt whenever the
// effective supply (after droop) is below thresholdV. The paper stores
// functional failure patterns separately from parametric drift; weak cells
// are what provokes them in this model.
func WithWeakCell(addr uint32, thresholdV float64) DieOption {
	return func(d *Die) {
		if d.weakCells == nil {
			d.weakCells = make(map[uint32]float64)
		}
		d.weakCells[addr] = thresholdV
	}
}

// NewDie constructs a die at the given corner with deterministic
// corner-dependent parameters.
func NewDie(id int, corner Corner, opts ...DieOption) *Die {
	d := &Die{ID: id, Corner: corner, speedFactor: 1, leakageFactor: 1}
	switch corner {
	case CornerFast:
		d.tdqOffsetNS = +1.2
		d.speedFactor = 0.92
		d.leakageFactor = 1.35
	case CornerSlow:
		d.tdqOffsetNS = -1.1
		d.speedFactor = 1.09
		d.leakageFactor = 0.8
	}
	for _, o := range opts {
		o(d)
	}
	return d
}

// NewDieLot draws n dies with random within-corner spread from the seeded
// source, emulating a characterization sample lot. Roughly 60% of dies are
// typical, 20% fast and 20% slow.
func NewDieLot(seed int64, n int) []*Die {
	rng := rand.New(rand.NewSource(seed))
	lot := make([]*Die, n)
	for i := range lot {
		var corner Corner
		switch r := rng.Float64(); {
		case r < 0.6:
			corner = CornerTypical
		case r < 0.8:
			corner = CornerFast
		default:
			corner = CornerSlow
		}
		d := NewDie(i, corner)
		// Within-corner gaussian spread.
		d.tdqOffsetNS += rng.NormFloat64() * 0.35
		d.speedFactor *= 1 + rng.NormFloat64()*0.02
		d.leakageFactor *= 1 + rng.NormFloat64()*0.05
		lot[i] = d
	}
	return lot
}

// TDQOffsetNS returns the die's process shift of the nominal T_DQ window.
func (d *Die) TDQOffsetNS() float64 { return d.tdqOffsetNS }

// SpeedFactor returns the die's access-time scale factor.
func (d *Die) SpeedFactor() float64 { return d.speedFactor }

// LeakageFactor returns the die's leakage scale factor.
func (d *Die) LeakageFactor() float64 { return d.leakageFactor }

// WeakCellThreshold returns the corruption threshold for addr and whether
// the address hosts a weak cell.
func (d *Die) WeakCellThreshold(addr uint32) (float64, bool) {
	t, ok := d.weakCells[addr]
	return t, ok
}

// WeakCellCount returns the number of injected weak cells.
func (d *Die) WeakCellCount() int { return len(d.weakCells) }

// Fingerprint returns a 64-bit content hash of the die, through testgen.Mix:
// ID, corner, the three process factors (exact float bits) and the
// weak-cell map in address order. Two dies fingerprint equal exactly when
// they describe the same silicon, which is what lets disk-cached screening
// results key on "this die" rather than "this process run".
func (d *Die) Fingerprint() uint64 {
	h := testgen.Mix(testgen.MixOffset, uint64(d.ID))
	h = testgen.Mix(h, uint64(d.Corner))
	h = testgen.Mix(h, math.Float64bits(d.tdqOffsetNS))
	h = testgen.Mix(h, math.Float64bits(d.speedFactor))
	h = testgen.Mix(h, math.Float64bits(d.leakageFactor))
	if len(d.weakCells) > 0 {
		addrs := make([]uint32, 0, len(d.weakCells))
		for a := range d.weakCells {
			addrs = append(addrs, a)
		}
		sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
		for _, a := range addrs {
			h = testgen.Mix(h, uint64(a))
			h = testgen.Mix(h, math.Float64bits(d.weakCells[a]))
		}
	}
	return h
}
