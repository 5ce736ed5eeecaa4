package ate

import (
	"fmt"
	"testing"

	"repro/internal/dut"
	"repro/internal/testgen"
)

// strober is the pair of T_DQ strobes a task measures through: one shmoo
// cell with the supply overridden, and one Measurer(TDQ) decision at the
// test's own supply (Repeats majority-voted strobes).
type strober struct {
	shmoo func(tt testgen.Test, vdd, strobeNS float64) (bool, error)
	tdq   func(tt testgen.Test, strobeNS float64) (bool, error)
}

// measured strobes through the tester's own measurement paths.
func measured(a *ATE) strober {
	return strober{
		shmoo: a.MeasureShmooPoint,
		tdq: func(tt testgen.Test, v float64) (bool, error) {
			return a.Measurer(TDQ, tt).Passes(v)
		},
	}
}

// strobeRef is the per-strobe formula the window memo replaces: load,
// charge, then evaluate the physics and draw the noise on every call.
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

// reference strobes through strobeRef, with the Measurer's majority vote.
func reference(a *ATE) strober {
	return strober{
		shmoo: func(tt testgen.Test, vdd, v float64) (bool, error) { return strobeRef(a, tt, vdd, v) },
		tdq: func(tt testgen.Test, v float64) (bool, error) {
			return a.majority(func() (bool, error) { return strobeRef(a, tt, tt.Cond.VddV, v) })
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

// edgeTask strobes every test around its noiseless window edge, where
// noise and self-heating decide, and returns the pass/fail bits: SUTP-sized
// Measurer(TDQ) strobes at the test's own operating point, shmoo rows that
// end back at that point, then a functional replay. Each test therefore
// starts at the operating point the previous one ended at, so a window
// left over from the previous test would be read.
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
	step := TDQ.Resolution() / 4
	for _, tt := range tests {
		p, err := a.Profile(tt)
		if err != nil {
			t.Fatal(err)
		}
		own := tt.Cond.VddV
		edge := p.TDQWindowNSAtCond(own, a.JunctionTempC(tt), tt.Cond.ClockMHz)
		for k := -3; k <= 3; k++ {
			add(s.tdq(tt, edge+float64(k)*step))
		}
		for _, vdd := range []float64{own - 0.2, own + 0.2, own} {
			edge := p.TDQWindowNSAtCond(vdd, a.JunctionTempC(tt), tt.Cond.ClockMHz)
			for k := -2; k <= 2; k++ {
				add(s.shmoo(tt, vdd, edge+float64(k)*step))
			}
		}
		add(a.FunctionalPass(tt))
	}
	return bits
}

// TestWindowMemoMatchesPerStrobeReference pins the window memo against the
// per-strobe formula it replaces: with and without self-heating and noise,
// at Repeats 3, over shmoo rows and Measurer strobes at each test's window
// edge, test switches at one operating point, and a weak row repaired and
// reloaded mid-run, the memo tester measures the same bits and Stats.
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
					a.Repeats = 3
					bits := edgeTask(t, a, strobes(a), tests)
					if err := a.Device().RepairRow(weak); err != nil {
						t.Fatal(err)
					}
					a.Reload()
					return append(bits, edgeTask(t, a, strobes(a), tests)...), a.Stats()
				}
				want, wantStats := run(reference)
				got, gotStats := run(measured)
				diff := 0
				for i := range want {
					if got[i] != want[i] {
						diff++
					}
				}
				if diff > 0 || len(got) != len(want) {
					t.Errorf("memo measured %d of %d bits differently from the per-strobe reference", diff, len(want))
				}
				if gotStats != wantStats {
					t.Errorf("stats differ:\nmemo      %+v\nreference %+v", gotStats, wantStats)
				}
			})
		}
	}
}
