package shmoo

import (
	"fmt"

	"repro/internal/ate"
	"repro/internal/parallel"
	"repro/internal/testgen"
)

// Fleet sweeps. Every task (one whole test) runs on a forked tester
// insertion reseeded with baseSeed + taskIndex, collects pass/fail cells
// into a private grid, and the grids merge into the overlay in test order
// from the fleet's in-order delivery while later tests are still measuring
// — so the plot and the merged cost counters are bit-identical for any
// fleet size, nil (serial) included. Unlike the serial AddTest, where one
// tester carries noise-RNG and thermal state across the whole overlay,
// each fleet task is hermetic.

// AddTestsOn sweeps every test over the T_DQ strobe grid (the fig. 8 axes)
// on the fleet f (nil runs serially), one task per test, and accumulates
// them into the overlay in test order as each delivery arrives.
func (p *Plot) AddTestsOn(f *parallel.Fleet, a *ate.ATE, tests []testgen.Test, baseSeed int64) error {
	grids := make([][]bool, len(tests))
	costs := make([]ate.Stats, len(tests))
	return parallel.Stream(f, len(tests), func(int) (*ate.ATE, error) {
		return a.Fork(baseSeed)
	}, func(wk *ate.ATE, i int) error {
		wk.Reseed(baseSeed + int64(i))
		cells, err := p.sweepGrid(wk.MeasureShmooPoint, tests[i])
		if err != nil {
			return err
		}
		grids[i] = cells
		costs[i] = wk.Stats()
		return nil
	}, func(i int) error {
		a.AddStats(costs[i])
		p.merge(grids[i])
		grids[i] = nil
		if p.OnTest != nil {
			p.OnTest(p.Tests, costs[i])
		}
		p.Tests++
		return nil
	})
}

// sweepGrid measures the whole grid for one test into a cell slice.
func (p *Plot) sweepGrid(point PointFunc, t testgen.Test) ([]bool, error) {
	cells := make([]bool, p.X.Steps*p.Y.Steps)
	for yi := 0; yi < p.Y.Steps; yi++ {
		vdd := p.Y.Value(yi)
		for xi := 0; xi < p.X.Steps; xi++ {
			x := p.X.Value(xi)
			ok, err := point(t, vdd, x)
			if err != nil {
				return nil, fmt.Errorf("shmoo: %s at (%g, %g): %w", t.Name, x, vdd, err)
			}
			cells[yi*p.X.Steps+xi] = ok
		}
	}
	return cells, nil
}

// merge accumulates a full grid of one test's outcomes into the overlay.
func (p *Plot) merge(cells []bool) {
	for c, ok := range cells {
		if ok {
			p.passCount[c]++
		}
	}
}
