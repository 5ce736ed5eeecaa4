// Package shmoo implements the two-dimensional parametric sweep of fig. 8:
// the classic shmoo plot of supply voltage (Y axis) against a timing
// parameter (X axis), with many tests overlaid in a single plot so the
// test-to-test trip-point variation becomes visible, and an ASCII renderer
// in the style of tester logs.
package shmoo

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/ate"
	"repro/internal/testgen"
)

// Axis is one sweep axis.
type Axis struct {
	Label string
	Min   float64
	Max   float64
	Steps int // number of grid points (≥ 2)
}

// Validate reports axis errors.
func (a Axis) Validate() error {
	if a.Steps < 2 {
		return fmt.Errorf("shmoo: axis %q needs at least 2 steps", a.Label)
	}
	if !(a.Min < a.Max) {
		return fmt.Errorf("shmoo: axis %q has empty range [%g, %g]", a.Label, a.Min, a.Max)
	}
	return nil
}

// Value returns the i-th grid value.
func (a Axis) Value(i int) float64 {
	return a.Min + (a.Max-a.Min)*float64(i)/float64(a.Steps-1)
}

// DefaultVddAxis is the fig. 8 Y axis: Vdd 1.4–2.2 V.
func DefaultVddAxis() Axis { return Axis{Label: "VDD (V)", Min: 1.4, Max: 2.2, Steps: 17} }

// DefaultTDQAxis is the fig. 8 X axis: the T_DQ strobe in ns.
func DefaultTDQAxis() Axis { return Axis{Label: "T_DQ (ns)", Min: 18, Max: 36, Steps: 37} }

// Plot is an overlay shmoo: for every grid cell it counts how many of the
// overlaid tests passed there. Cells where some tests pass and some fail
// are exactly the test-dependent trip-point variation the paper
// demonstrates ("there are 1000 tests overlapping in a single shmoo plot").
type Plot struct {
	X, Y  Axis
	Tests int
	// passCount[yi*X.Steps+xi] = number of tests passing at that cell.
	passCount []int

	// OnTest, when non-nil, observes each test AddTestsOn merges into the
	// overlay: the test's overlay index (the value of Tests as it merges)
	// and the tester cost its hermetic sweep consumed. It runs on the merge
	// loop, which proceeds in test order regardless of the fleet size, so
	// callers may emit trace events from it. The serial AddTest and
	// AddTestFunc do not fire it: there one tester carries state across the
	// whole overlay and no per-test cost split exists.
	OnTest func(index int, cost ate.Stats)
}

// NewPlot allocates an empty overlay over the axes.
func NewPlot(x, y Axis) (*Plot, error) {
	if err := x.Validate(); err != nil {
		return nil, err
	}
	if err := y.Validate(); err != nil {
		return nil, err
	}
	return &Plot{X: x, Y: y, passCount: make([]int, x.Steps*y.Steps)}, nil
}

// PointFunc measures one shmoo cell: pass/fail of the test with the supply
// at vdd and the swept X parameter at x.
type PointFunc func(t testgen.Test, vdd, x float64) (bool, error)

// AddTestFunc sweeps one test over the grid using the given point
// measurement and accumulates it into the overlay.
func (p *Plot) AddTestFunc(t testgen.Test, point PointFunc) error {
	for yi := 0; yi < p.Y.Steps; yi++ {
		vdd := p.Y.Value(yi)
		for xi := 0; xi < p.X.Steps; xi++ {
			x := p.X.Value(xi)
			ok, err := point(t, vdd, x)
			if err != nil {
				return fmt.Errorf("shmoo: %s at (%g, %g): %w", t.Name, x, vdd, err)
			}
			if ok {
				p.passCount[yi*p.X.Steps+xi]++
			}
		}
	}
	p.Tests++
	return nil
}

// AddTest sweeps one test over the T_DQ strobe grid on the ATE (the fig. 8
// axes) and accumulates it into the overlay.
func (p *Plot) AddTest(a *ate.ATE, t testgen.Test) error {
	return p.AddTestFunc(t, a.MeasureShmooPoint)
}

// PassFraction returns the fraction of overlaid tests passing at cell
// (xi, yi).
func (p *Plot) PassFraction(xi, yi int) float64 {
	if p.Tests == 0 {
		return 0
	}
	return float64(p.passCount[yi*p.X.Steps+xi]) / float64(p.Tests)
}

// BoundarySpread returns, for the given row (Y index), the X positions of
// the all-pass boundary (last cell where every test passes) and the any-
// pass boundary (last cell where at least one test passes). The distance
// between them is the worst-case trip point variation at that supply.
// Orientation: passing region on the low-X side, as for T_DQ strobes. ok is
// false when the row has no passing cell at all.
func (p *Plot) BoundarySpread(yi int) (allPassX, anyPassX float64, ok bool) {
	lastAll, lastAny := -1, -1
	for xi := 0; xi < p.X.Steps; xi++ {
		c := p.passCount[yi*p.X.Steps+xi]
		if c == p.Tests && p.Tests > 0 {
			lastAll = xi
		}
		if c > 0 {
			lastAny = xi
		}
	}
	if lastAny < 0 {
		return 0, 0, false
	}
	if lastAll < 0 {
		lastAll = 0
	}
	return p.X.Value(lastAll), p.X.Value(lastAny), true
}

// WorstCaseVariation returns the maximum boundary spread over all rows —
// the headline number of fig. 8 ("worst case trip point variation").
func (p *Plot) WorstCaseVariation() float64 {
	worst := 0.0
	for yi := 0; yi < p.Y.Steps; yi++ {
		all, any, ok := p.BoundarySpread(yi)
		if !ok {
			continue
		}
		if d := math.Abs(any - all); d > worst {
			worst = d
		}
	}
	return worst
}

// Render draws the overlay as tester-log ASCII art: '*' where every test
// passes, '.' where none does, and digits 1–9 for the partial band (the
// decile of tests passing). Rows print from the maximum Y downward, the
// tester convention.
func (p *Plot) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Shmoo overlay: %d tests, X=%s, Y=%s\n", p.Tests, p.X.Label, p.Y.Label)
	for yi := p.Y.Steps - 1; yi >= 0; yi-- {
		fmt.Fprintf(&b, "%7.3f |", p.Y.Value(yi))
		for xi := 0; xi < p.X.Steps; xi++ {
			b.WriteByte(p.cellChar(xi, yi))
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "%7s +%s\n", "", strings.Repeat("-", p.X.Steps))
	fmt.Fprintf(&b, "%8s %-*.3g%*.3g\n", "", p.X.Steps-4, p.X.Min, 4, p.X.Max)
	fmt.Fprintf(&b, "legend: '*' all pass, '.' all fail, 1-9 partial pass decile\n")
	return b.String()
}

func (p *Plot) cellChar(xi, yi int) byte {
	frac := p.PassFraction(xi, yi)
	switch {
	case p.Tests == 0:
		return '?'
	case frac >= 1:
		return '*'
	case frac <= 0:
		return '.'
	default:
		d := int(frac * 10)
		if d < 1 {
			d = 1
		}
		if d > 9 {
			d = 9
		}
		return byte('0' + d)
	}
}
