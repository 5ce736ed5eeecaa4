package core

import (
	"strings"
	"testing"

	"repro/internal/ate"
	"repro/internal/testgen"
	"repro/internal/wcr"
)

func calmTestSeq() testgen.Test {
	seq := make(testgen.Sequence, 200)
	for i := range seq {
		seq[i] = testgen.Vector{Op: testgen.OpRead, Addr: uint32(i % 32)}
	}
	return testgen.Test{Name: "calm", Seq: seq, Cond: testgen.NominalConditions()}
}

func aggressiveTestSeq() testgen.Test {
	t, err := testgen.BusThrash(dutWords(), 400, testgen.NominalConditions())
	if err != nil {
		panic(err)
	}
	t.Name = "aggressive"
	return t
}

func dutWords() uint32 { return 4096 }

func TestDiagnosisOrdering(t *testing.T) {
	d, err := NewDiagnosis()
	if err != nil {
		t.Fatal(err)
	}
	limits := testgen.DefaultConditionLimits()
	calm, err := d.ExplainTest(calmTestSeq(), limits)
	if err != nil {
		t.Fatal(err)
	}
	hot, err := d.ExplainTest(aggressiveTestSeq(), limits)
	if err != nil {
		t.Fatal(err)
	}
	if hot.Severity <= calm.Severity {
		t.Errorf("aggressive severity %.3f not above calm %.3f", hot.Severity, calm.Severity)
	}
	if calm.Class != wcr.Pass {
		t.Errorf("calm test classified %v", calm.Class)
	}
	if hot.Class == wcr.Pass {
		t.Errorf("aggressive test classified %v (severity %.3f)", hot.Class, hot.Severity)
	}
}

func TestDiagnosisDriversNameTheCombination(t *testing.T) {
	d, err := NewDiagnosis()
	if err != nil {
		t.Fatal(err)
	}
	limits := testgen.DefaultConditionLimits()
	hot, err := d.ExplainTest(aggressiveTestSeq(), limits)
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(hot.Drivers, ",")
	for _, want := range []string{"data-toggle", "coupling"} {
		if !strings.Contains(joined, want) {
			t.Errorf("drivers %v missing %q", hot.Drivers, want)
		}
	}
	s := hot.String()
	if !strings.Contains(s, "if ") || !strings.Contains(s, "target device-spec") {
		t.Errorf("explanation not in the paper's linguistic form: %q", s)
	}
}

func TestDiagnosisCalmHasNoDrivers(t *testing.T) {
	d, err := NewDiagnosis()
	if err != nil {
		t.Fatal(err)
	}
	calm, err := d.ExplainTest(calmTestSeq(), testgen.DefaultConditionLimits())
	if err != nil {
		t.Fatal(err)
	}
	if len(calm.Drivers) != 0 {
		t.Errorf("calm test has drivers %v", calm.Drivers)
	}
	if !strings.Contains(calm.String(), "no aggressive activity") {
		t.Errorf("calm explanation: %q", calm.String())
	}
}

func TestDiagnosisFeatureWidthCheck(t *testing.T) {
	d, err := NewDiagnosis()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Explain([]float64{1, 2}); err == nil {
		t.Error("short feature vector accepted")
	}
}

func TestDiagnosisAgreesWithMeasurement(t *testing.T) {
	// On the real device model, the rule base's ordering must agree with
	// the measured windows for clearly separated tests.
	tester := newTester(t, 5)
	d, err := NewDiagnosis()
	if err != nil {
		t.Fatal(err)
	}
	limits := testgen.DefaultConditionLimits()

	calm, hot := calmTestSeq(), aggressiveTestSeq()
	pc, err := tester.Profile(calm)
	if err != nil {
		t.Fatal(err)
	}
	ph, err := tester.Profile(hot)
	if err != nil {
		t.Fatal(err)
	}
	if !(ate.TDQ.TrueValue(ph) < ate.TDQ.TrueValue(pc)) {
		t.Fatal("measurement precondition broken")
	}
	ec, err := d.ExplainTest(calm, limits)
	if err != nil {
		t.Fatal(err)
	}
	eh, err := d.ExplainTest(hot, limits)
	if err != nil {
		t.Fatal(err)
	}
	if !(eh.Severity > ec.Severity) {
		t.Error("diagnosis ordering disagrees with measured windows")
	}
}
