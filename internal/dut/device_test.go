package dut

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/testgen"
)

func testDevice(t *testing.T) *Device {
	t.Helper()
	d, err := NewDevice(DefaultGeometry(), NewDie(0, CornerTypical))
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func marchTest(t *testing.T, cond testgen.Conditions) testgen.Test {
	t.Helper()
	tt, err := testgen.MarchTest(testgen.MarchCMinus(), 0, 64, 0x55555555, cond)
	if err != nil {
		t.Fatal(err)
	}
	return tt
}

func TestProfileDeterministic(t *testing.T) {
	dev := testDevice(t)
	tt := marchTest(t, testgen.NominalConditions())
	p1, err := dev.Profile(tt)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := dev.Profile(tt)
	if err != nil {
		t.Fatal(err)
	}
	if ownWindow(p1) != ownWindow(p2) {
		t.Errorf("same test, different windows: %g vs %g", ownWindow(p1), ownWindow(p2))
	}
	if p1.Act != p2.Act {
		t.Error("same test, different activity")
	}
}

// TestProfileRejectsInvalidSequence pins what Profile refuses, with each
// error's exact text: the sequences testgen.Sequence.Validate rejects for
// the array. A NOP's address is never driven, so a NOP past the array is
// accepted.
func TestProfileRejectsInvalidSequence(t *testing.T) {
	dev := testDevice(t)
	words := dev.Geometry().Words()
	for _, tc := range []struct {
		name string
		seq  testgen.Sequence
		want string // "" when the sequence is accepted
	}{
		{"empty", nil, "dut: profiling empty: testgen: empty sequence"},
		{"read-past", testgen.Sequence{{Op: testgen.OpRead, Addr: words}},
			"dut: profiling read-past: testgen: vector 0: address 0x1000 outside address space 0x1000"},
		{"write-past", testgen.Sequence{
			{Op: testgen.OpWrite, Addr: 5, Data: 1},
			{Op: testgen.OpWrite, Addr: words + 5, Data: 2},
			{Op: testgen.OpRead, Addr: words + 6},
		}, "dut: profiling write-past: testgen: vector 1: address 0x1005 outside address space 0x1000"},
		{"unknown-op", testgen.Sequence{
			{Op: testgen.OpRead, Addr: 1},
			{Op: testgen.OpRead + 1, Addr: 2},
		}, "dut: profiling unknown-op: testgen: vector 1: unknown op 3"},
		{"unknown-op-past", testgen.Sequence{{Op: 7, Addr: words + 1}},
			"dut: profiling unknown-op-past: testgen: vector 0: address 0x1001 outside address space 0x1000"},
		{"nop-past", testgen.Sequence{
			{Op: testgen.OpWrite, Addr: 3, Data: 9},
			{Op: testgen.OpNop, Addr: words + 3},
			{Op: testgen.OpRead, Addr: 3},
		}, ""},
	} {
		_, err := dev.Profile(testgen.Test{Name: tc.name, Seq: tc.seq, Cond: testgen.NominalConditions()})
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: rejected: %v", tc.name, err)
		case tc.want != "" && (err == nil || err.Error() != tc.want):
			t.Errorf("%s: error %v, want %q", tc.name, err, tc.want)
		}
	}
}

// ownWindow, ownFmax and ownVddMin read a profile's parametrics at its
// test's own conditions, as the tester's TrueValue oracle does.
func ownWindow(p Profile) float64 {
	c := p.Test.Cond
	return p.TDQWindowNSAtCond(c.VddV, c.TempC, c.ClockMHz)
}

func ownFmax(p Profile) float64 { return p.FmaxMHzAtCond(p.Test.Cond.VddV, p.Test.Cond.TempC) }

func ownVddMin(p Profile) float64 { return p.VddMinVAtCond(p.Test.Cond.TempC) }

func TestTDQWindowAtOverridesVdd(t *testing.T) {
	dev := testDevice(t)
	tt := marchTest(t, testgen.NominalConditions())
	p, err := dev.Profile(tt)
	if err != nil {
		t.Fatal(err)
	}
	c := tt.Cond
	atOwn := p.TDQWindowNSAtCond(c.VddV, c.TempC, c.ClockMHz)
	if atOwn != p.phys.TDQWindowNS(c.VddV, c.TempC, c.ClockMHz, p.Act, p.die) {
		t.Errorf("TDQWindowNSAtCond(own conditions) = %g, physics = %g", atOwn, p.phys.TDQWindowNS(c.VddV, c.TempC, c.ClockMHz, p.Act, p.die))
	}
	if p.TDQWindowNSAtCond(2.0, c.TempC, c.ClockMHz) <= p.TDQWindowNSAtCond(1.6, c.TempC, c.ClockMHz) {
		t.Error("window not increasing with the overridden supply")
	}
}

func TestTestDependenceOfTDQ(t *testing.T) {
	// The central premise: different tests provoke different windows.
	dev := testDevice(t)
	cond := testgen.NominalConditions()
	gen := testgen.NewRandomGenerator(17, dev.Geometry().Words(), testgen.DefaultConditionLimits())
	gen.FixedConditions = &cond
	windows := make(map[float64]bool)
	for i := 0; i < 30; i++ {
		p, err := dev.Profile(gen.Next())
		if err != nil {
			t.Fatal(err)
		}
		windows[math.Round(ownWindow(p)*100)/100] = true
	}
	if len(windows) < 10 {
		t.Errorf("only %d distinct windows over 30 tests; parameter not test-dependent", len(windows))
	}
}

func TestSpecComplianceAtNominal(t *testing.T) {
	// A properly designed device must meet the 20 ns spec for ordinary
	// tests at nominal conditions (the weakness only shows under the
	// coordinated worst case).
	dev := testDevice(t)
	cond := testgen.NominalConditions()
	suite, err := testgen.MarchSuite(testgen.MarchCMinus(), 0, 100, cond)
	if err != nil {
		t.Fatal(err)
	}
	for _, tt := range suite {
		p, err := dev.Profile(tt)
		if err != nil {
			t.Fatal(err)
		}
		if w := ownWindow(p); w < SpecTDQNS {
			t.Errorf("%s: window %g ns violates the %g ns spec at nominal", tt.Name, w, SpecTDQNS)
		}
	}
}

func TestWorstCasePatternBeatsRandomTail(t *testing.T) {
	// The coordinated four-term pattern must provoke a strictly smaller
	// window than the worst of a sizable random sample — this is the
	// device-model property the whole Table 1 reproduction rests on.
	dev := testDevice(t)
	cond := testgen.NominalConditions()
	gen := testgen.NewRandomGenerator(23, dev.Geometry().Words(), testgen.DefaultConditionLimits())
	gen.FixedConditions = &cond
	randomWorst := math.Inf(1)
	for i := 0; i < 500; i++ {
		p, err := dev.Profile(gen.Next())
		if err != nil {
			t.Fatal(err)
		}
		if w := ownWindow(p); w < randomWorst {
			randomWorst = w
		}
	}

	worst, err := testgen.BusThrash(dev.Geometry().Words(), 400, cond)
	if err != nil {
		t.Fatal(err)
	}
	worst.Name = "worst"
	p, err := dev.Profile(worst)
	if err != nil {
		t.Fatal(err)
	}
	if ownWindow(p) >= randomWorst-1 {
		t.Errorf("coordinated pattern window %g not clearly below random tail %g", ownWindow(p), randomWorst)
	}
	if p.Ridge() < 0.5 {
		t.Errorf("coordinated pattern ridge %g, want > 0.5", p.Ridge())
	}
	if ownWindow(p) < SpecTDQNS {
		t.Errorf("worst pattern window %g below spec %g on typical die: model floor miscalibrated", ownWindow(p), SpecTDQNS)
	}
}

func TestProfileFunctionalWithWeakCell(t *testing.T) {
	die := NewDie(0, CornerTypical, WithWeakCell(3, 1.75))
	dev, err := NewDevice(DefaultGeometry(), die)
	if err != nil {
		t.Fatal(err)
	}
	// A high-activity test drops effective Vdd below 1.75 and corrupts.
	seq := make(testgen.Sequence, 0, 400)
	for i := 0; i < 100; i++ {
		seq = append(seq,
			testgen.Vector{Op: testgen.OpWrite, Addr: 3, Data: 0},
			testgen.Vector{Op: testgen.OpWrite, Addr: 4095 - 3, Data: 0xFFFFFFFF},
			testgen.Vector{Op: testgen.OpRead, Addr: 3},
			testgen.Vector{Op: testgen.OpRead, Addr: 4095 - 3},
		)
	}
	p, err := dev.Profile(testgen.Test{Name: "weak", Seq: seq, Cond: testgen.NominalConditions()})
	if err != nil {
		t.Fatal(err)
	}
	if p.EffectiveVdd() >= 1.75 {
		t.Skipf("activity did not pull effective Vdd below the threshold (%g)", p.EffectiveVdd())
	}
	if !p.Func.Failed() {
		t.Error("weak cell not corrupted by high-activity test")
	}
}

func TestDeviceAccessors(t *testing.T) {
	die := NewDie(5, CornerFast)
	dev, err := NewDeviceWithPhysics(DefaultGeometry(), die, DefaultPhysics())
	if err != nil {
		t.Fatal(err)
	}
	if dev.Die() != die {
		t.Error("Die accessor mismatch")
	}
	if dev.Geometry() != DefaultGeometry() {
		t.Error("Geometry accessor mismatch")
	}
	if dev.phys.TDQBaseNS != DefaultPhysics().TDQBaseNS {
		t.Error("Physics accessor mismatch")
	}
}

// Rebinding one clean reference execution to another device reproduces
// that device's own profile. Over random tests and dies of every corner
// with process spread, the first of each lot row-repaired, the rebound
// profile equals dev.Profile in Act, Func and all three parametrics. A
// weak-cell die on either side of the rebinding is refused.
func TestRebindMatchesProfileProperty(t *testing.T) {
	const seeds, diesPerSeed = 40, 6
	geom := DefaultGeometry()
	ref, err := NewDevice(geom, NewDie(-1, CornerTypical))
	if err != nil {
		t.Fatal(err)
	}
	weak, err := NewDevice(geom, NewDie(-2, CornerTypical, WithWeakCell(1, 2.5)))
	if err != nil {
		t.Fatal(err)
	}
	corners := make(map[Corner]bool)
	for seed := int64(0); seed < seeds; seed++ {
		tst := testgen.NewRandomGenerator(seed, geom.Words(), testgen.DefaultConditionLimits()).Next()
		p, err := ref.Profile(tst)
		if err != nil {
			t.Fatal(err)
		}
		for i, die := range NewDieLot(seed, diesPerSeed) {
			dev, err := NewDevice(geom, die)
			if err != nil {
				t.Fatal(err)
			}
			if i == 0 {
				if err := dev.RepairRow(uint32(seed*97) % geom.Words()); err != nil {
					t.Fatal(err)
				}
			}
			corners[die.Corner] = true
			got, ok := p.Rebind(dev)
			if !ok {
				t.Fatalf("seed %d die %d: clean die refused", seed, die.ID)
			}
			want, err := dev.Profile(tst)
			if err != nil {
				t.Fatal(err)
			}
			if got.Act != want.Act || !reflect.DeepEqual(got.Func, want.Func) {
				t.Fatalf("seed %d die %d: rebound execution differs\ngot  %+v %+v\nwant %+v %+v",
					seed, die.ID, got.Act, got.Func, want.Act, want.Func)
			}
			if ownWindow(got) != ownWindow(want) || ownFmax(got) != ownFmax(want) || ownVddMin(got) != ownVddMin(want) {
				t.Fatalf("seed %d die %d: rebound parametrics %v/%v/%v, want %v/%v/%v", seed, die.ID,
					ownWindow(got), ownFmax(got), ownVddMin(got),
					ownWindow(want), ownFmax(want), ownVddMin(want))
			}
		}
		if _, ok := p.Rebind(weak); ok {
			t.Fatalf("seed %d: rebound onto a weak-cell die", seed)
		}
		wp, err := weak.Profile(tst)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := wp.Rebind(ref); ok {
			t.Fatalf("seed %d: rebound a weak-cell die's execution", seed)
		}
	}
	if len(corners) != 3 {
		t.Fatalf("dies covered %d corners, want all 3", len(corners))
	}
}
