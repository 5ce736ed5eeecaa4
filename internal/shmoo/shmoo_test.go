package shmoo

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/ate"
	"repro/internal/dut"
	"repro/internal/testgen"
)

func rig(t *testing.T) (*ate.ATE, *testgen.RandomGenerator) {
	t.Helper()
	dev, err := dut.NewDevice(dut.DefaultGeometry(), dut.NewDie(0, dut.CornerTypical))
	if err != nil {
		t.Fatal(err)
	}
	tester := ate.New(dev, 5)
	tester.NoiseFraction = 0
	cond := testgen.NominalConditions()
	gen := testgen.NewRandomGenerator(61, dev.Geometry().Words(), testgen.DefaultConditionLimits())
	gen.FixedConditions = &cond
	return tester, gen
}

func TestAxisValidateAndValue(t *testing.T) {
	if err := (Axis{Label: "x", Min: 0, Max: 1, Steps: 1}).Validate(); err == nil {
		t.Error("single-step axis accepted")
	}
	if err := (Axis{Label: "x", Min: 1, Max: 1, Steps: 5}).Validate(); err == nil {
		t.Error("empty-range axis accepted")
	}
	a := Axis{Label: "x", Min: 10, Max: 20, Steps: 11}
	if a.Value(0) != 10 || a.Value(10) != 20 || a.Value(5) != 15 {
		t.Errorf("axis values: %g, %g, %g", a.Value(0), a.Value(5), a.Value(10))
	}
}

func TestDefaultAxesValid(t *testing.T) {
	if err := DefaultVddAxis().Validate(); err != nil {
		t.Error(err)
	}
	if err := DefaultTDQAxis().Validate(); err != nil {
		t.Error(err)
	}
}

func TestNewPlotRejectsBadAxes(t *testing.T) {
	if _, err := NewPlot(Axis{Steps: 1, Min: 0, Max: 1}, DefaultVddAxis()); err == nil {
		t.Error("bad X accepted")
	}
	if _, err := NewPlot(DefaultTDQAxis(), Axis{Steps: 1, Min: 0, Max: 1}); err == nil {
		t.Error("bad Y accepted")
	}
}

func TestSingleTestShmooStructure(t *testing.T) {
	tester, gen := rig(t)
	p, err := NewPlot(DefaultTDQAxis(), DefaultVddAxis())
	if err != nil {
		t.Fatal(err)
	}
	tt := gen.Next()
	if err := p.AddTest(tester, tt); err != nil {
		t.Fatal(err)
	}
	if p.Tests != 1 {
		t.Fatalf("tests = %d", p.Tests)
	}

	// Each row must be monotone: pass at low strobe, fail at high strobe,
	// with exactly one boundary.
	for yi := 0; yi < p.Y.Steps; yi++ {
		prev := 1.0
		for xi := 0; xi < p.X.Steps; xi++ {
			frac := p.PassFraction(xi, yi)
			if frac > prev {
				t.Fatalf("row %d not monotone at column %d", yi, xi)
			}
			prev = frac
		}
	}

	// The boundary (trip point) must rise with Vdd: higher supply, longer
	// valid window. With one test the all-pass and any-pass boundaries
	// coincide.
	lowRow, lowAny, okLow := p.BoundarySpread(0)
	highRow, highAny, okHigh := p.BoundarySpread(p.Y.Steps - 1)
	if !okLow || !okHigh {
		t.Fatal("boundary missing at extreme rows")
	}
	if lowAny != lowRow || highAny != highRow {
		t.Errorf("single-test boundaries split: %g/%g, %g/%g", lowRow, lowAny, highRow, highAny)
	}
	if highRow <= lowRow {
		t.Errorf("trip at max Vdd (%g) not above trip at min Vdd (%g)", highRow, lowRow)
	}
}

func TestOverlayVariationBand(t *testing.T) {
	tester, gen := rig(t)
	p, err := NewPlot(DefaultTDQAxis(), DefaultVddAxis())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 25; i++ {
		if err := p.AddTest(tester, gen.Next()); err != nil {
			t.Fatal(err)
		}
	}
	if p.Tests != 25 {
		t.Fatalf("tests = %d", p.Tests)
	}
	// The overlay must show a partial band: trip points differ per test.
	if v := p.WorstCaseVariation(); v < 0.5 {
		t.Errorf("worst-case trip variation %g ns too small for 25 distinct tests", v)
	}
	allPass, anyPass, ok := p.BoundarySpread(p.Y.Steps / 2)
	if !ok {
		t.Fatal("mid row has no passing cell")
	}
	if anyPass < allPass {
		t.Errorf("any-pass boundary %g below all-pass boundary %g", anyPass, allPass)
	}
}

func TestRenderContainsLegendAndSymbols(t *testing.T) {
	tester, gen := rig(t)
	p, _ := NewPlot(DefaultTDQAxis(), DefaultVddAxis())
	for i := 0; i < 5; i++ {
		if err := p.AddTest(tester, gen.Next()); err != nil {
			t.Fatal(err)
		}
	}
	r := p.Render()
	for _, want := range []string{"Shmoo overlay", "*", ".", "legend", "VDD (V)"} {
		if !strings.Contains(r, want) {
			t.Errorf("render missing %q", want)
		}
	}
	lines := strings.Split(r, "\n")
	// One line per Y row plus header/footer.
	if len(lines) < p.Y.Steps+3 {
		t.Errorf("render has %d lines for %d rows", len(lines), p.Y.Steps)
	}
}

func TestPassFractionEmptyPlot(t *testing.T) {
	p, _ := NewPlot(DefaultTDQAxis(), DefaultVddAxis())
	if p.PassFraction(0, 0) != 0 {
		t.Error("empty plot pass fraction nonzero")
	}
	if _, _, ok := p.BoundarySpread(0); ok {
		t.Error("empty plot reported a boundary")
	}
}

func TestShmooMeasurementAccounting(t *testing.T) {
	tester, gen := rig(t)
	x, y := DefaultTDQAxis(), DefaultVddAxis()
	p, _ := NewPlot(x, y)
	before := tester.Stats().Measurements
	if err := p.AddTest(tester, gen.Next()); err != nil {
		t.Fatal(err)
	}
	got := tester.Stats().Measurements - before
	want := int64(x.Steps * y.Steps)
	if got != want {
		t.Errorf("shmoo consumed %d measurements, want %d (grid)", got, want)
	}
}

func TestAddTestFuncErrorPropagates(t *testing.T) {
	p, _ := NewPlot(DefaultTDQAxis(), DefaultVddAxis())
	errPoint := func(testgen.Test, float64, float64) (bool, error) {
		return false, errSynthetic
	}
	if err := p.AddTestFunc(testgen.Test{Name: "x"}, errPoint); err == nil {
		t.Error("point error swallowed")
	}
	if p.Tests != 0 {
		t.Error("failed sweep counted as a test")
	}
}

var errSynthetic = fmt.Errorf("synthetic point failure")
