package fuzzy

import (
	"math"
	"testing"
)

// buildSeverityEngine wires the paper's example rule shape: "if A and B and
// C, then D is quite close to the limit of the target device-spec".
func buildSeverityEngine(t *testing.T) *Engine {
	t.Helper()
	activity, err := AutoPartition("activity", 0, 1, []string{"low", "high"})
	if err != nil {
		t.Fatal(err)
	}
	noise, err := AutoPartition("noise", 0, 1, []string{"low", "high"})
	if err != nil {
		t.Fatal(err)
	}
	out, err := AutoPartition("margin", 0, 1, []string{"safe", "close", "beyond"})
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(out)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.AddInput(activity); err != nil {
		t.Fatal(err)
	}
	if err := e.AddInput(noise); err != nil {
		t.Fatal(err)
	}
	rules := []Rule{
		{If: []Clause{{"activity", "high"}, {"noise", "high"}}, Then: Clause{"margin", "beyond"}},
		{If: []Clause{{"activity", "high"}, {"noise", "low"}}, Then: Clause{"margin", "close"}},
		{If: []Clause{{"activity", "low"}}, Then: Clause{"margin", "safe"}},
	}
	for _, r := range rules {
		if err := e.AddRule(r); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

func TestEngineInference(t *testing.T) {
	e := buildSeverityEngine(t)
	if len(e.rules) != 3 {
		t.Fatalf("rules = %d", len(e.rules))
	}
	// Infer + centroid defuzzification, as core.Diagnosis.Explain runs it.
	crisp := func(inputs map[string]float64) float64 {
		t.Helper()
		grades, err := e.Infer(inputs)
		if err != nil {
			t.Fatal(err)
		}
		return e.output.CentroidDefuzzify(grades, 0)
	}

	// Quiet test: margin safe.
	safe := crisp(map[string]float64{"activity": 0.05, "noise": 0.05})
	// Aggressive test: margin beyond.
	beyond := crisp(map[string]float64{"activity": 0.95, "noise": 0.95})
	// Mixed: in between.
	mid := crisp(map[string]float64{"activity": 0.95, "noise": 0.05})
	if !(safe < mid && mid < beyond) {
		t.Errorf("severity ordering broken: safe %g, mid %g, beyond %g", safe, mid, beyond)
	}
}

func TestEngineMinAND(t *testing.T) {
	e := buildSeverityEngine(t)
	grades, err := e.Infer(map[string]float64{"activity": 1.0, "noise": 0.75})
	if err != nil {
		t.Fatal(err)
	}
	// Rule 1 strength = min(high(1.0)=1, high(0.75)=0.75) = 0.75 on "beyond".
	beyondIdx := 2
	if math.Abs(grades[beyondIdx]-0.75) > 1e-9 {
		t.Errorf("min-AND strength = %g, want 0.75", grades[beyondIdx])
	}
}

func TestEngineMissingInput(t *testing.T) {
	e := buildSeverityEngine(t)
	if _, err := e.Infer(map[string]float64{"activity": 0.5}); err == nil {
		t.Error("missing input accepted")
	}
}

func TestEngineRuleValidation(t *testing.T) {
	e := buildSeverityEngine(t)
	if err := e.AddRule(Rule{
		If:   []Clause{{"unknown", "high"}},
		Then: Clause{"margin", "safe"},
	}); err == nil {
		t.Error("rule with unknown variable accepted")
	}
	if err := e.AddRule(Rule{
		If:   []Clause{{"activity", "lukewarm"}},
		Then: Clause{"margin", "safe"},
	}); err == nil {
		t.Error("rule with unknown term accepted")
	}
	if err := e.AddRule(Rule{
		If:   []Clause{{"activity", "high"}},
		Then: Clause{"other", "safe"},
	}); err == nil {
		t.Error("rule with wrong output variable accepted")
	}
	if err := e.AddRule(Rule{Then: Clause{"margin", "safe"}}); err == nil {
		t.Error("rule with empty antecedent accepted")
	}
}

func TestEngineDuplicateInput(t *testing.T) {
	out, _ := AutoPartition("o", 0, 1, []string{"a", "b"})
	e, err := NewEngine(out)
	if err != nil {
		t.Fatal(err)
	}
	in, _ := AutoPartition("i", 0, 1, []string{"a", "b"})
	if err := e.AddInput(in); err != nil {
		t.Fatal(err)
	}
	if err := e.AddInput(in); err == nil {
		t.Error("duplicate input accepted")
	}
}

func TestEngineRuleWeight(t *testing.T) {
	out, _ := AutoPartition("o", 0, 1, []string{"lo", "hi"})
	in, _ := AutoPartition("i", 0, 1, []string{"lo", "hi"})
	e, _ := NewEngine(out)
	if err := e.AddInput(in); err != nil {
		t.Fatal(err)
	}
	if err := e.AddRule(Rule{
		If: []Clause{{"i", "hi"}}, Then: Clause{"o", "hi"}, Weight: 0.5,
	}); err != nil {
		t.Fatal(err)
	}
	grades, err := e.Infer(map[string]float64{"i": 1})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(grades[1]-0.5) > 1e-9 {
		t.Errorf("weighted rule strength = %g, want 0.5", grades[1])
	}
}
