package core

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/ate"
	"repro/internal/dut"
	"repro/internal/parallel"
)

// Replication of the Table 1 experiment across seeds. A single run could
// reproduce the paper's ordering by luck; RunTable1Replicated repeats the
// whole comparison with independent randomness and reports per-row WCR
// statistics plus how often the paper's ordering held — the reproduction
// evidence EXPERIMENTS.md cites.

// RowStats summarizes one technique across replicas.
type RowStats struct {
	TestName        string
	MeanWCR, MinWCR float64
	MaxWCR          float64
	StdWCR          float64
	MeanValue       float64
}

// ReplicationReport aggregates the replicated comparison.
type ReplicationReport struct {
	Replicas int
	Rows     []RowStats
	// OrderingHeld counts replicas where WCR(March) < WCR(Random) <
	// WCR(NNGA) — the paper's qualitative claim.
	OrderingHeld int
	// NNGAInWeakness counts replicas whose NN+GA row landed in the
	// weakness band (0.8, 1.0], like the paper's 0.904.
	NNGAInWeakness int
}

// Format renders the replication summary.
func (r *ReplicationReport) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 1 replicated %d× (independent seeds)\n", r.Replicas)
	fmt.Fprintf(&b, "%-14s %8s %8s %8s %8s %10s\n", "row", "meanWCR", "min", "max", "σ", "mean value")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-14s %8.3f %8.3f %8.3f %8.3f %10.2f\n",
			row.TestName, row.MeanWCR, row.MinWCR, row.MaxWCR, row.StdWCR, row.MeanValue)
	}
	fmt.Fprintf(&b, "ordering March < Random < NNGA held in %d/%d replicas\n", r.OrderingHeld, r.Replicas)
	fmt.Fprintf(&b, "NNGA row in the weakness band in %d/%d replicas\n", r.NNGAInWeakness, r.Replicas)
	return b.String()
}

// RunTable1Replicated runs the full Table 1 comparison n times with seeds
// baseSeed, baseSeed+7919, … on fresh typical-corner devices and
// aggregates. The replicas run on the fleet f (nil runs them serially);
// every replica owns a fresh device, tester and flow seeded only by its
// index, so the aggregated report is identical at any fleet size.
func RunTable1Replicated(f *parallel.Fleet, baseCfg Table1Config, baseSeed int64, n int) (*ReplicationReport, error) {
	if n < 1 {
		return nil, fmt.Errorf("core: need at least one replica")
	}
	tables := make([]*Table1, n)
	err := parallel.ForEachOn(f, n, func(i int) error {
		seed := baseSeed + int64(i)*7919
		cfg := baseCfg
		cfg.Flow.Seed = seed
		dev, err := dut.NewDevice(dut.DefaultGeometry(), dut.NewDie(i, dut.CornerTypical))
		if err != nil {
			return err
		}
		tester := ate.New(dev, seed)
		tab, err := RunTable1(cfg, tester)
		if err != nil {
			return fmt.Errorf("core: replica %d: %w", i, err)
		}
		tables[i] = tab
		return nil
	})
	if err != nil {
		return nil, err
	}

	rep := &ReplicationReport{Replicas: n}
	var perRow [][]Table1Row
	for i, tab := range tables {
		if perRow == nil {
			perRow = make([][]Table1Row, len(tab.Rows))
		}
		if len(tab.Rows) != len(perRow) {
			return nil, fmt.Errorf("core: replica %d produced %d rows", i, len(tab.Rows))
		}
		for ri, row := range tab.Rows {
			perRow[ri] = append(perRow[ri], row)
		}
		if len(tab.Rows) == 3 {
			march, random, nnga := tab.Rows[0].WCR, tab.Rows[1].WCR, tab.Rows[2].WCR
			if march < random && random < nnga {
				rep.OrderingHeld++
			}
			if nnga > 0.8 && nnga <= 1.0 {
				rep.NNGAInWeakness++
			}
		}
	}

	for _, rows := range perRow {
		rs := RowStats{TestName: rows[0].TestName, MinWCR: math.Inf(1), MaxWCR: math.Inf(-1)}
		var sum, sumVal float64
		for _, row := range rows {
			sum += row.WCR
			sumVal += row.Value
			rs.MinWCR = math.Min(rs.MinWCR, row.WCR)
			rs.MaxWCR = math.Max(rs.MaxWCR, row.WCR)
		}
		rs.MeanWCR = sum / float64(len(rows))
		rs.MeanValue = sumVal / float64(len(rows))
		var ss float64
		for _, row := range rows {
			d := row.WCR - rs.MeanWCR
			ss += d * d
		}
		rs.StdWCR = math.Sqrt(ss / float64(len(rows)))
		rep.Rows = append(rep.Rows, rs)
	}
	return rep, nil
}
