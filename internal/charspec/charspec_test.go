package charspec

import (
	"strings"
	"testing"

	"repro/internal/ate"
	"repro/internal/dut"
	"repro/internal/testgen"
)

func rig(t *testing.T) (*ate.ATE, []testgen.Test) {
	t.Helper()
	dev, err := dut.NewDevice(dut.DefaultGeometry(), dut.NewDie(0, dut.CornerTypical))
	if err != nil {
		t.Fatal(err)
	}
	tester := ate.New(dev, 3)
	cond := testgen.NominalConditions()
	gen := testgen.NewRandomGenerator(4, dev.Geometry().Words(), testgen.DefaultConditionLimits())
	gen.FixedConditions = &cond
	tests := gen.Batch(5)
	march, err := testgen.MarchTest(testgen.MarchCMinus(), 0, 50, 0x55555555, cond)
	if err != nil {
		t.Fatal(err)
	}
	tests = append(tests, march)
	return tester, tests
}

func smallConfig() Config {
	return Config{
		Grid:      EnvGrid{VddV: []float64{1.65, 1.8, 1.95}, TempC: []float64{25, 125}},
		Guardband: 0.05,
	}
}

func TestGridValidate(t *testing.T) {
	if err := (EnvGrid{}).Validate(); err == nil {
		t.Error("empty grid accepted")
	}
	if DefaultGrid().Validate() != nil {
		t.Error("default grid rejected")
	}
	if g := DefaultGrid(); len(g.VddV)*len(g.TempC) != 20 {
		t.Errorf("default grid corners = %d, want 20", len(g.VddV)*len(g.TempC))
	}
}

func TestExtractValidation(t *testing.T) {
	tester, tests := rig(t)
	if _, err := Extract(tester, ate.TDQ, nil, smallConfig()); err == nil {
		t.Error("empty test set accepted")
	}
	bad := smallConfig()
	bad.Guardband = 1.5
	if _, err := Extract(tester, ate.TDQ, tests, bad); err == nil {
		t.Error("guardband ≥ 1 accepted")
	}
	bad = smallConfig()
	bad.Grid = EnvGrid{}
	if _, err := Extract(tester, ate.TDQ, tests, bad); err == nil {
		t.Error("empty grid accepted")
	}
}

func TestExtractTDQSpecReport(t *testing.T) {
	tester, tests := rig(t)
	cfg := smallConfig()
	rep, err := Extract(tester, ate.TDQ, tests, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if corners := len(cfg.Grid.VddV) * len(cfg.Grid.TempC); len(rep.PerCorner) != corners {
		t.Fatalf("%d corner results for %d corners", len(rep.PerCorner), corners)
	}

	// Physics: the worst T_DQ corner must be the low-voltage / hot one.
	if rep.WorstCorner.VddV != 1.65 || rep.WorstCorner.TempC != 125 {
		t.Errorf("worst corner %s, want 1.65V/125°C", rep.WorstCorner)
	}
	// Every corner's worst must be ≥ the global worst (min-spec direction).
	for _, c := range rep.PerCorner {
		if c.Worst < rep.WorstValue-1e-9 {
			t.Errorf("corner %s worst %.3f below reported global worst %.3f",
				c.Corner, c.Worst, rep.WorstValue)
		}
		if c.Spread < 0 {
			t.Error("negative spread")
		}
	}
	// Guardband direction: the recommendation must be stricter (smaller)
	// than the worst measurement for a minimum spec.
	if rep.RecommendedLimit >= rep.WorstValue {
		t.Errorf("recommended limit %.3f not below worst measurement %.3f",
			rep.RecommendedLimit, rep.WorstValue)
	}
	if rep.Measurements <= 0 {
		t.Error("no measurement accounting")
	}
	if rep.WorstTest == "" {
		t.Error("worst test not identified")
	}
}

func TestExtractVddMinDirection(t *testing.T) {
	// Vddmin is a maximum spec: the worst corner is the one with the
	// *largest* measured Vddmin, and the guardband raises the limit.
	tester, tests := rig(t)
	cfg := smallConfig()
	rep, err := Extract(tester, ate.VddMin, tests[:3], cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range rep.PerCorner {
		if c.Worst > rep.WorstValue+1e-9 {
			t.Errorf("corner %s Vddmin %.3f above global worst %.3f", c.Corner, c.Worst, rep.WorstValue)
		}
	}
	if rep.RecommendedLimit <= rep.WorstValue {
		t.Errorf("max-spec guardband must raise the limit: %.3f vs %.3f",
			rep.RecommendedLimit, rep.WorstValue)
	}
}

func TestExtractSpecCompliance(t *testing.T) {
	// Ordinary random/March tests on the typical die must yield a spec
	// recommendation that meets the 20 ns design spec — the device only
	// violates margins under the coordinated worst case.
	tester, tests := rig(t)
	rep, err := Extract(tester, ate.TDQ, tests, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !rep.MeetsSpec {
		t.Errorf("benign tests failed spec extraction: recommended %.3f vs spec %.3f",
			rep.RecommendedLimit, rep.Spec.Limit)
	}
}

func TestReportFormat(t *testing.T) {
	tester, tests := rig(t)
	rep, err := Extract(tester, ate.TDQ, tests[:2], smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	s := rep.Format()
	for _, want := range []string{"Specification extraction", "worst corner", "guardband", "1.65V/125°C", "meets spec"} {
		if !strings.Contains(s, want) {
			t.Errorf("report missing %q:\n%s", want, s)
		}
	}
}

func TestCornerString(t *testing.T) {
	c := Corner{VddV: 1.8, TempC: 25}
	if c.String() != "1.80V/25°C" {
		t.Errorf("corner string %q", c.String())
	}
}
