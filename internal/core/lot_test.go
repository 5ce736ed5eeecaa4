package core

import (
	"strings"
	"testing"

	"repro/internal/ate"
	"repro/internal/dut"
	"repro/internal/parallel"
	"repro/internal/testgen"
	"repro/internal/wcr"
)

// screenDies screens a slice of dies with per-die results retained, on the
// fleet f (nil screens serially).
func screenDies(param ate.Parameter, tests []testgen.Test, dies []*dut.Die, geom dut.Geometry, seed int64, f *parallel.Fleet) (*LotReport, error) {
	return ScreenLotStream(param, tests, dut.LotSlice(dies), geom, seed, LotOptions{Fleet: f, RetainDies: true})
}

// testFleet returns a fleet of the given size that is closed when the test
// ends; size 0 is the nil fleet, the serial fleet of one.
func testFleet(t testing.TB, size int) *parallel.Fleet {
	if size == 0 {
		return nil
	}
	f := parallel.NewFleet(size)
	t.Cleanup(f.Close)
	return f
}

func lotTests(t *testing.T) []testgen.Test {
	t.Helper()
	cond := testgen.NominalConditions()
	gen := testgen.NewRandomGenerator(91, dut.DefaultGeometry().Words(), testgen.DefaultConditionLimits())
	gen.FixedConditions = &cond
	tests := gen.Batch(4)
	march, err := testgen.MarchTest(testgen.MarchCMinus(), 0, 50, 0, cond)
	if err != nil {
		t.Fatal(err)
	}
	return append(tests, march)
}

func TestScreenLotValidation(t *testing.T) {
	dies := dut.NewDieLot(1, 3)
	if _, err := screenDies(ate.TDQ, nil, dies, dut.DefaultGeometry(), 1, nil); err == nil {
		t.Error("empty test set accepted")
	}
	if _, err := screenDies(ate.TDQ, lotTests(t), nil, dut.DefaultGeometry(), 1, nil); err == nil {
		t.Error("empty lot accepted")
	}
}

func TestScreenLotBasics(t *testing.T) {
	dies := dut.NewDieLot(7, 12)
	rep, err := screenDies(ate.TDQ, lotTests(t), dies, dut.DefaultGeometry(), 7, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Dies) != 12 {
		t.Fatalf("screened %d dies", len(rep.Dies))
	}
	total := 0
	for _, n := range rep.ClassCounts {
		total += n
	}
	if total != 12 {
		t.Errorf("class counts sum %d", total)
	}
	if rep.SpreadLot <= 0 {
		t.Error("no lot spread; process variation not visible")
	}
	if rep.Measurements <= 0 {
		t.Error("no measurement accounting")
	}
	for _, d := range rep.Dies {
		if d.WorstTest == "" {
			t.Errorf("die %d missing worst test", d.DieID)
		}
		if d.Class != wcr.Classify(d.WCR) {
			t.Errorf("die %d class inconsistent", d.DieID)
		}
	}
}

func TestScreenLotCornerOrdering(t *testing.T) {
	// Explicit corner dies: slow silicon must be the worst for T_DQ.
	dies := []*dut.Die{
		dut.NewDie(0, dut.CornerFast),
		dut.NewDie(1, dut.CornerTypical),
		dut.NewDie(2, dut.CornerSlow),
	}
	rep, err := screenDies(ate.TDQ, lotTests(t), dies, dut.DefaultGeometry(), 11, nil)
	if err != nil {
		t.Fatal(err)
	}
	ff := rep.PerCornerWorst[dut.CornerFast]
	tt := rep.PerCornerWorst[dut.CornerTypical]
	ss := rep.PerCornerWorst[dut.CornerSlow]
	if !(ff > tt && tt > ss) {
		t.Errorf("corner worst windows not ordered FF > TT > SS: %.2f, %.2f, %.2f", ff, tt, ss)
	}
	if rep.WorstDie.Corner != dut.CornerSlow {
		t.Errorf("worst die corner %s, want SS", rep.WorstDie.Corner)
	}
}

func TestScreenLotDeterministic(t *testing.T) {
	dies := dut.NewDieLot(13, 5)
	a, err := screenDies(ate.TDQ, lotTests(t), dies, dut.DefaultGeometry(), 13, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := screenDies(ate.TDQ, lotTests(t), dies, dut.DefaultGeometry(), 13, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Dies {
		if a.Dies[i].WorstTrip != b.Dies[i].WorstTrip {
			t.Fatalf("lot screen not deterministic at die %d", i)
		}
	}
}

func TestScreenLotDetectsFunctionalFailures(t *testing.T) {
	// A die with an aggressive weak cell must register functional fails
	// under high-activity tests.
	weak := dut.NewDie(0, dut.CornerTypical, dut.WithWeakCell(1, 1.82))
	healthy := dut.NewDie(1, dut.CornerTypical)

	// High-activity test touching the weak address.
	words := dut.DefaultGeometry().Words()
	seq := make(testgen.Sequence, 0, 600)
	for i := 0; i < 150; i++ {
		base := uint32(0)
		if i%2 == 1 {
			base = words - 2
		}
		seq = append(seq,
			testgen.Vector{Op: testgen.OpWrite, Addr: base, Data: 0},
			testgen.Vector{Op: testgen.OpWrite, Addr: base + 1, Data: 0xFFFFFFFF},
		)
	}
	seq = append(seq, testgen.Vector{Op: testgen.OpRead, Addr: 1})
	hot := testgen.Test{Name: "HOT", Seq: seq, Cond: testgen.NominalConditions()}

	rep, err := screenDies(ate.TDQ, []testgen.Test{hot}, []*dut.Die{weak, healthy}, dut.DefaultGeometry(), 17, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Dies[0].FunctionalFails == 0 {
		t.Error("weak die shows no functional failures under the hot test")
	}
	if rep.Dies[1].FunctionalFails != 0 {
		t.Error("healthy die shows functional failures")
	}
}

func TestLotReportFormat(t *testing.T) {
	dies := dut.NewDieLot(19, 4)
	rep, err := screenDies(ate.TDQ, lotTests(t)[:2], dies, dut.DefaultGeometry(), 19, nil)
	if err != nil {
		t.Fatal(err)
	}
	s := rep.Format()
	for _, want := range []string{"Lot screen", "worst die", "classes", "lot spread"} {
		if !strings.Contains(s, want) {
			t.Errorf("lot report missing %q", want)
		}
	}
}

func TestScreenLotStreamNilFleetMatchesFleet(t *testing.T) {
	dies := dut.NewDieLot(23, 9)
	tests := lotTests(t)
	serial, err := screenDies(ate.TDQ, tests, dies, dut.DefaultGeometry(), 23, nil)
	if err != nil {
		t.Fatal(err)
	}
	par, err := screenDies(ate.TDQ, tests, dies, dut.DefaultGeometry(), 23, testFleet(t, 4))
	if err != nil {
		t.Fatal(err)
	}
	if len(serial.Dies) != len(par.Dies) {
		t.Fatalf("die counts differ: %d vs %d", len(serial.Dies), len(par.Dies))
	}
	for i := range serial.Dies {
		if serial.Dies[i] != par.Dies[i] {
			t.Fatalf("die %d differs: serial %+v, parallel %+v", i, serial.Dies[i], par.Dies[i])
		}
	}
	if serial.Measurements != par.Measurements {
		t.Errorf("cost differs: %d vs %d", serial.Measurements, par.Measurements)
	}
	if serial.WorstDie != par.WorstDie {
		t.Error("worst die differs")
	}
}

func TestScreenLotStreamFleetLargerThanLot(t *testing.T) {
	dies := dut.NewDieLot(29, 3)
	// A fleet larger than the lot, and one sized per CPU, must both work.
	for _, size := range []int{100, parallel.Workers(0)} {
		if _, err := screenDies(ate.TDQ, lotTests(t)[:2], dies, dut.DefaultGeometry(), 29, testFleet(t, size)); err != nil {
			t.Fatalf("fleet of %d: %v", size, err)
		}
	}
}
