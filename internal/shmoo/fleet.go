package shmoo

import (
	"repro/internal/ate"
	"repro/internal/parallel"
	"repro/internal/testgen"
)

// The overlay. Every task (one whole test) runs on a forked tester
// insertion reseeded with baseSeed + taskIndex, so each is hermetic,
// collects pass/fail cells into a private grid, and the grids merge into
// the overlay in test order from the fleet's in-order delivery while later
// tests are still measuring — so the plot and the merged cost counters are
// bit-identical for any fleet size, nil (serial) included.

// AddTestsOn sweeps every test over the T_DQ strobe grid (the fig. 8 axes)
// on the fleet f (nil runs inline: a fleet of one), one task per test, and
// accumulates them into the overlay in test order as each delivery
// arrives. A sweep that fails stops the overlay with an error naming the
// test and its operating point; the tests before it stay merged and the
// failed one leaves no cell.
func (p *Plot) AddTestsOn(f *parallel.Fleet, a *ate.ATE, tests []testgen.Test, baseSeed int64) error {
	grids := make([][]bool, len(tests))
	costs := make([]ate.Stats, len(tests))
	return parallel.Stream(f, len(tests), func(int) (*ate.ATE, error) {
		return a.Fork(baseSeed)
	}, func(wk *ate.ATE, i int) error {
		wk.Reseed(baseSeed + int64(i))
		cells, err := p.sweepGrid(wk, tests[i])
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
