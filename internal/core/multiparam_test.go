package core

import (
	"strings"
	"testing"

	"repro/internal/ate"
	"repro/internal/dut"
	"repro/internal/testgen"
	"repro/internal/wcr"
)

func TestMultiCharacterizeAllParameters(t *testing.T) {
	if testing.Short() {
		t.Skip("three full flows")
	}
	tester := newTester(t, 31)
	rep, err := MultiCharacterize(quickConfig(31), tester, []ate.Parameter{ate.TDQ, ate.Fmax, ate.VddMin})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Outcomes) != 3 {
		t.Fatalf("%d outcomes", len(rep.Outcomes))
	}
	seen := map[ate.Parameter]bool{}
	for _, o := range rep.Outcomes {
		seen[o.Parameter] = true
		if o.Worst.Test.Name == "" {
			t.Errorf("%s: no worst test", o.Parameter)
		}
		if o.Worst.WCR <= 0 {
			t.Errorf("%s: WCR %g", o.Parameter, o.Worst.WCR)
		}
		if o.Measurements <= 0 {
			t.Errorf("%s: no measurements accounted", o.Parameter)
		}
		if o.Database.Parameter != o.Parameter {
			t.Errorf("%s: database parameter mismatch", o.Parameter)
		}
	}
	if len(seen) != 3 {
		t.Error("parameters not all distinct")
	}
	if _, ok := rep.WorstOverall(); !ok {
		t.Error("no overall worst")
	}
	s := rep.Format()
	for _, want := range []string{"Multi-parameter", "T_DQ", "Fmax", "Vddmin", "diagnosis:"} {
		if !strings.Contains(s, want) {
			t.Errorf("report missing %q", want)
		}
	}
}

func TestMultiCharacterizeEmptyParams(t *testing.T) {
	tester := newTester(t, 1)
	if _, err := MultiCharacterize(quickConfig(1), tester, nil); err == nil {
		t.Error("empty parameter list accepted")
	}
}

func TestWorstOverallEmpty(t *testing.T) {
	m := &MultiReport{}
	if _, ok := m.WorstOverall(); ok {
		t.Error("empty report has a worst outcome")
	}
}

func TestFunctionalScreenSeparatesFailures(t *testing.T) {
	// A die with a weak cell at a hot address: high-activity tests that
	// read it corrupt and must move to the functional list.
	die := dut.NewDie(0, dut.CornerTypical, dut.WithWeakCell(1, 1.82))
	dev, err := dut.NewDevice(dut.DefaultGeometry(), die)
	if err != nil {
		t.Fatal(err)
	}
	tester := ate.New(dev, 3)

	pairs, err := testgen.BusThrash(dev.Geometry().Words(), 300, testgen.NominalConditions())
	if err != nil {
		t.Fatal(err)
	}
	hotSeq := append(pairs.Seq, testgen.Vector{Op: testgen.OpRead, Addr: 1})
	// The calm test stays away from the weak address entirely.
	calmSeq := make(testgen.Sequence, 200)
	for i := range calmSeq {
		calmSeq[i] = testgen.Vector{Op: testgen.OpRead, Addr: uint32(i%16 + 64)}
	}

	db := NewDatabase(ate.TDQ)
	db.Add(Entry{Test: testgen.Test{Name: "hot", Seq: hotSeq, Cond: testgen.NominalConditions()}, WCR: 0.95, Value: 21, Class: wcr.Weakness})
	db.Add(Entry{Test: testgen.Test{Name: "calm", Seq: calmSeq, Cond: testgen.NominalConditions()}, WCR: 0.6, Value: 33, Class: wcr.Pass})

	fails, err := FunctionalScreen(tester, db)
	if err != nil {
		t.Fatal(err)
	}
	if fails != 1 {
		t.Fatalf("functional fails = %d, want 1", fails)
	}
	if db.Len() != 1 || db.Entries[0].Test.Name != "calm" {
		t.Errorf("parametric entries after screen: %d", db.Len())
	}
	if len(db.Functional) != 1 || db.Functional[0].Name != "hot" {
		t.Errorf("functional list: %v", db.Functional)
	}
}

func TestFunctionalScreenNilDatabase(t *testing.T) {
	tester := newTester(t, 1)
	if _, err := FunctionalScreen(tester, nil); err == nil {
		t.Error("nil database accepted")
	}
}
