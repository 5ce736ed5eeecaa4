package core

import (
	"fmt"
	"strings"

	"repro/internal/ate"
	"repro/internal/dut"
	"repro/internal/trippoint"
	"repro/internal/wcr"
)

// Lot screening: §1 requires characterization over "a statistically
// significant sample of devices". The CI flow finds the worst-case tests
// on a reference device; ScreenLotStream then replays those tests (plus any
// baselines) on every die of a sample lot, measuring per-die trip points
// and summarizing the process-corner dependence of the worst case.

// DieResult is one die's outcome under the screened test set.
type DieResult struct {
	DieID  int
	Corner dut.Corner

	WorstTrip float64
	WorstTest string
	WCR       float64
	Class     wcr.Class
	// FunctionalFails counts tests whose replay corrupted reads (weak
	// cells provoked below their threshold).
	FunctionalFails int
}

// LotReport aggregates a screened lot.
type LotReport struct {
	Parameter ate.Parameter
	Tests     int
	// DieCount is the number of dies screened. Dies carries the per-die
	// results only when the screen retained them (LotOptions.RetainDies) —
	// fab-scale streamed lots keep Dies nil and DieCount still counts every
	// die.
	DieCount int
	Dies     []DieResult

	// Worst-per-class statistics across the lot.
	WorstDie       DieResult
	MeanWorstTrip  float64
	SpreadLot      float64 // max−min of per-die worst trip points
	ClassCounts    map[wcr.Class]int
	PerCornerWorst map[dut.Corner]float64

	// Drift is the population-level trend of per-die worst trip points in
	// screening order — a significant slope across a lot means the
	// process (or the tester) shifted while the lot ran.
	Drift trippoint.DriftReport
	// Outliers are the dies most extreme against the lot population
	// (|z| ≥ lotOutlierZ, at most lotTopOutliers per tail), most extreme
	// first.
	Outliers []trippoint.Outlier

	Measurements int64
	// Stats is the full tester cost summed over the per-die insertions.
	Stats ate.Stats
}

// Format renders a lot summary.
func (r *LotReport) Format() string {
	var b strings.Builder
	dies := r.DieCount
	if dies == 0 {
		dies = len(r.Dies)
	}
	fmt.Fprintf(&b, "Lot screen: %d dies × %d tests, parameter %s\n", dies, r.Tests, r.Parameter)
	fmt.Fprintf(&b, "per-die worst trip: mean %.3f %s, lot spread %.3f %s\n",
		r.MeanWorstTrip, r.Parameter.Unit(), r.SpreadLot, r.Parameter.Unit())
	fmt.Fprintf(&b, "classes: pass %d, weakness %d, fail %d\n",
		r.ClassCounts[wcr.Pass], r.ClassCounts[wcr.Weakness], r.ClassCounts[wcr.Fail])
	for _, corner := range []dut.Corner{dut.CornerFast, dut.CornerTypical, dut.CornerSlow} {
		if v, ok := r.PerCornerWorst[corner]; ok {
			fmt.Fprintf(&b, "worst at %s corner: %.3f %s\n", corner, v, r.Parameter.Unit())
		}
	}
	fmt.Fprintf(&b, "worst die: #%d (%s) WCR %.3f (%s) via %s\n",
		r.WorstDie.DieID, r.WorstDie.Corner, r.WorstDie.WCR, r.WorstDie.Class, r.WorstDie.WorstTest)
	if r.Drift.Significant {
		fmt.Fprintf(&b, "population drift: %+.4f %s across the lot (residual %.4f) — SIGNIFICANT\n",
			r.Drift.TotalDrift, r.Parameter.Unit(), r.Drift.Residual)
	}
	if len(r.Outliers) > 0 {
		fmt.Fprintf(&b, "outliers (|z| extremes): ")
		for i, o := range r.Outliers {
			if i > 0 {
				fmt.Fprintf(&b, ", ")
			}
			fmt.Fprintf(&b, "#%d (%.3f %s, z %+.1f)", o.Index, o.Value, r.Parameter.Unit(), o.Z)
		}
		fmt.Fprintf(&b, "\n")
	}
	fmt.Fprintf(&b, "cost: %d measurements\n", r.Measurements)
	return b.String()
}
