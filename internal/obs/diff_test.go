package obs

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"repro/internal/telemetry"
)

// makeTrace builds a parsed trace with the given per-phase measurement
// costs, through the real tracer + parser so the diff sees exactly what
// tracestat sees.
func makeTrace(t *testing.T, phases map[string]int64) *Trace {
	t.Helper()
	var buf bytes.Buffer
	tel := telemetry.New("diff-test", telemetry.NewTracer(&buf))
	// Deterministic phase order: sorted names (map order must not leak into
	// the trace).
	names := make([]string, 0, len(phases))
	for name := range phases {
		names = append(names, name)
	}
	for i := 0; i < len(names); i++ {
		for j := i + 1; j < len(names); j++ {
			if names[j] < names[i] {
				names[i], names[j] = names[j], names[i]
			}
		}
	}
	for _, name := range names {
		ph := tel.StartPhase(name)
		ph.End(telemetry.Cost{
			Measurements: phases[name],
			Vectors:      phases[name] * 10,
			SimTimeSec:   float64(phases[name]) / 100,
		})
	}
	if err := tel.Close(); err != nil {
		t.Fatal(err)
	}
	tr, err := ParseTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestDiffTracesIdenticalIsClean(t *testing.T) {
	phases := map[string]int64{"learn": 1000, "optimize": 4000}
	d := DiffTraces(makeTrace(t, phases), makeTrace(t, phases),
		DiffOptions{FailOverPct: 20})
	if regs := d.Regressions(); len(regs) != 0 {
		t.Fatalf("identical traces regressed: %+v", regs)
	}
	for _, row := range d.Deltas {
		if !math.IsNaN(row.MeasurementsPct) && row.MeasurementsPct != 0 {
			t.Errorf("identical traces: %s Δmeas = %v", row.Label, row.MeasurementsPct)
		}
	}
}

func TestDiffTracesFlagsRegression(t *testing.T) {
	old := makeTrace(t, map[string]int64{"learn": 1000, "optimize": 4000})
	// learn grew 30% — over a 20% gate; optimize shrank (never a regression).
	cur := makeTrace(t, map[string]int64{"learn": 1300, "optimize": 3500})
	d := DiffTraces(old, cur, DiffOptions{FailOverPct: 20})
	regs := d.Regressions()
	if len(regs) != 1 {
		t.Fatalf("regressions = %+v, want exactly phase:learn", regs)
	}
	if regs[0].Label != "phase:learn" || !strings.Contains(regs[0].Reason, "measurements +30.0%") {
		t.Errorf("regression row = %+v", regs[0])
	}
	// Under a 40% gate the same pair passes.
	if regs := DiffTraces(old, cur, DiffOptions{FailOverPct: 40}).Regressions(); len(regs) != 0 {
		t.Errorf("40%% gate regressed: %+v", regs)
	}
	// Regressed rows sort first in the rendered table.
	var buf bytes.Buffer
	if err := d.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "REGRESSED measurements +30.0%") {
		t.Errorf("render missing regression verdict:\n%s", out)
	}
	if !strings.Contains(out, "1 label(s) regressed beyond 20.0%") {
		t.Errorf("render missing summary line:\n%s", out)
	}
}

func TestDiffTracesNoiseFloorAndNewLabels(t *testing.T) {
	old := makeTrace(t, map[string]int64{"learn": 3, "optimize": 4000})
	cur := makeTrace(t, map[string]int64{"learn": 4, "optimize": 4000, "extra": 500})

	// A 3→4 jump is +33% but under the noise floor; "extra" appeared.
	d := DiffTraces(old, cur, DiffOptions{FailOverPct: 20, MinMeasurements: 10, FailOnNew: true})
	regs := d.Regressions()
	if len(regs) != 1 || regs[0].Label != "phase:extra" || regs[0].Reason != "appeared" {
		t.Fatalf("regressions = %+v, want only phase:extra appeared", regs)
	}
	// Without FailOnNew the appearance is reported but not fatal.
	if regs := DiffTraces(old, cur, DiffOptions{FailOverPct: 20, MinMeasurements: 10}).Regressions(); len(regs) != 0 {
		t.Errorf("FailOnNew=false still regressed: %+v", regs)
	}
	// A vanished label is never a regression.
	if regs := DiffTraces(cur, old, DiffOptions{FailOverPct: 20, MinMeasurements: 10}).Regressions(); len(regs) != 0 {
		t.Errorf("vanished label regressed: %+v", regs)
	}
}
