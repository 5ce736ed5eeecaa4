package ate

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/dut"
	"repro/internal/testgen"
)

// strober is the pair of T_DQ strobe paths a task measures through: a
// shmoo row with the supply overridden, and one Measurer(TDQ) strobe at
// the test's own supply.
type strober struct {
	row func(tt testgen.Test, vdd float64, strobes []float64, pass []bool) error
	tdq func(tt testgen.Test, strobeNS float64) (bool, error)
}

// measured strobes through the tester's own measurement paths, a whole
// shmoo row per call.
func measured(a *ATE) strober {
	return strober{
		row: a.MeasureShmooRow,
		tdq: func(tt testgen.Test, v float64) (bool, error) {
			return a.Measurer(TDQ, tt).Passes(v)
		},
	}
}

// oneByOne strobes through the tester's own measurement paths, one strobe
// per row call.
func oneByOne(a *ATE) strober {
	s := measured(a)
	s.row = func(tt testgen.Test, vdd float64, strobes []float64, pass []bool) error {
		for i := range strobes {
			if err := a.MeasureShmooRow(tt, vdd, strobes[i:i+1], pass[i:i+1]); err != nil {
				return err
			}
		}
		return nil
	}
	return s
}

// strobeRef is the per-strobe formula the window memo and the row strobe
// replace: load, charge, then evaluate the physics and draw the noise on
// every call.
func strobeRef(a *ATE, t testgen.Test, vdd, strobeNS float64) (bool, error) {
	p, err := a.load(t)
	if err != nil {
		return false, err
	}
	a.chargeMeasurement(t, p.MeanActivity(), TDQ)
	temp := t.Cond.TempC + a.Heating.RiseC()
	w := p.TDQWindowNSAtCond(vdd, temp, t.Cond.ClockMHz) + a.noise(a.NoiseFraction*TDQ.Resolution())
	return w >= strobeNS, nil
}

// reference strobes through strobeRef.
func reference(a *ATE) strober {
	return strober{
		row: func(tt testgen.Test, vdd float64, strobes []float64, pass []bool) error {
			for i, v := range strobes {
				ok, err := strobeRef(a, tt, vdd, v)
				if err != nil {
					return err
				}
				pass[i] = ok
			}
			return nil
		},
		tdq: func(tt testgen.Test, v float64) (bool, error) {
			return strobeRef(a, tt, tt.Cond.VddV, v)
		},
	}
}

// weakTester returns a tester on a typical die with a weak cell at addr,
// unrepaired.
func weakTester(t *testing.T, addr uint32) *ATE {
	t.Helper()
	dev, err := dut.NewDevice(dut.DefaultGeometry(), dut.NewDie(0, dut.CornerTypical, dut.WithWeakCell(addr, 2.5)))
	if err != nil {
		t.Fatal(err)
	}
	return New(dev, 5)
}

// edgeTests are the tests the memo and fork properties strobe: two random
// tests at the nominal operating point visited A → B → A, a test that reads
// the weak cell at addr, a test at its own random conditions, and A again.
func edgeTests(addr uint32) []testgen.Test {
	cond := testgen.NominalConditions()
	fixed := testgen.NewRandomGenerator(3, dut.DefaultGeometry().Words(), testgen.DefaultConditionLimits())
	fixed.FixedConditions = &cond
	a, b := fixed.Next(), fixed.Next()
	c := testgen.NewRandomGenerator(4, dut.DefaultGeometry().Words(), testgen.DefaultConditionLimits()).Next()
	c.Name = "random-conditions"
	weak := testgen.Test{
		Name: "weak-read",
		Seq:  testgen.Sequence{{Op: testgen.OpWrite, Addr: addr, Data: 1}, {Op: testgen.OpRead, Addr: addr}},
		Cond: cond,
	}
	return []testgen.Test{a, b, a, weak, c, a}
}

// fig8Row is a whole row of fig. 8's X axis: T_DQ strobes from 18 to 36 ns
// in 37 steps.
var fig8Row = func() []float64 {
	xs := make([]float64, 37)
	for i := range xs {
		xs[i] = 18 + 18*float64(i)/36
	}
	return xs
}()

// edgeTask strobes every test around its noiseless window edge, where
// noise and self-heating decide, and returns the pass/fail bits: SUTP-sized
// Measurer(TDQ) strobes at the test's own operating point, shmoo rows
// around the window edge and across fig. 8's X axis that end back at that
// point, then a functional replay. Each test therefore starts at the
// operating point the previous one ended at, so a window left over from
// the previous test would be read.
func edgeTask(t *testing.T, a *ATE, s strober, tests []testgen.Test) []bool {
	t.Helper()
	var bits []bool
	add := func(pass bool, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		bits = append(bits, pass)
	}
	addRow := func(tt testgen.Test, vdd float64, strobes []float64) {
		t.Helper()
		pass := make([]bool, len(strobes))
		if err := s.row(tt, vdd, strobes, pass); err != nil {
			t.Fatal(err)
		}
		bits = append(bits, pass...)
	}
	step := TDQ.Resolution() / 4
	for _, tt := range tests {
		p, err := a.Profile(tt)
		if err != nil {
			t.Fatal(err)
		}
		own := tt.Cond.VddV
		edge := p.TDQWindowNSAtCond(own, tt.Cond.TempC+a.Heating.RiseC(), tt.Cond.ClockMHz)
		for k := -3; k <= 3; k++ {
			add(s.tdq(tt, edge+float64(k)*step))
		}
		for _, vdd := range []float64{own - 0.2, own + 0.2, own} {
			edge := p.TDQWindowNSAtCond(vdd, tt.Cond.TempC+a.Heating.RiseC(), tt.Cond.ClockMHz)
			edgeRow := make([]float64, 5)
			for k := range edgeRow {
				edgeRow[k] = edge + float64(k-2)*step
			}
			addRow(tt, vdd, edgeRow)
			addRow(tt, vdd, fig8Row)
		}
		add(a.FunctionalPass(tt))
	}
	return bits
}

// sameStats reports whether two Stats are equal in every field, TestTimeSec
// to the bit.
func sameStats(a, b Stats) bool {
	if math.Float64bits(a.TestTimeSec) != math.Float64bits(b.TestTimeSec) {
		return false
	}
	a.TestTimeSec, b.TestTimeSec = 0, 0
	return a == b
}

// TestWindowMemoMatchesPerStrobeReference pins the window memo and the
// row strobe against the per-strobe formula they replace: with and without
// self-heating and noise, over Measurer strobes and shmoo rows at each
// test's window edge and across fig. 8's X axis, test switches at one
// operating point, and a weak row repaired and reloaded mid-run, the tester
// measures the same bits and Stats whether it strobes whole rows or one
// strobe per row.
func TestWindowMemoMatchesPerStrobeReference(t *testing.T) {
	const weak = 37
	tests := edgeTests(weak)
	for _, heating := range []bool{false, true} {
		for _, noise := range []float64{0, 0.25} {
			t.Run(fmt.Sprintf("heating=%v/noise=%g", heating, noise), func(t *testing.T) {
				run := func(strobes func(*ATE) strober) ([]bool, Stats) {
					a := weakTester(t, weak)
					if heating {
						a.Heating = DefaultThermal()
					}
					a.NoiseFraction = noise
					bits := edgeTask(t, a, strobes(a), tests)
					if err := a.Device().RepairRow(weak); err != nil {
						t.Fatal(err)
					}
					a.Reload()
					return append(bits, edgeTask(t, a, strobes(a), tests)...), a.Stats()
				}
				want, wantStats := run(reference)
				for _, s := range []struct {
					name    string
					strobes func(*ATE) strober
				}{{"one strobe per row", oneByOne}, {"whole rows", measured}} {
					got, gotStats := run(s.strobes)
					diff := 0
					for i := range min(len(got), len(want)) {
						if got[i] != want[i] {
							diff++
						}
					}
					if diff > 0 || len(got) != len(want) {
						t.Errorf("%s: measured %d of %d bits differently from the per-strobe reference", s.name, diff, len(want))
					}
					if !sameStats(gotStats, wantStats) {
						t.Errorf("%s: stats differ:\ntester    %+v\nreference %+v", s.name, gotStats, wantStats)
					}
				}
			})
		}
	}
}
