package obs

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
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

func TestParseBenchJSON(t *testing.T) {
	// Mirrors the real BENCH_lot.json shape: nulls, and a trailing newline.
	src := `[
  {"benchmark": "BenchmarkA", "ns_per_op": 100, "allocs_per_op": 30, "hit_rate": null},
  {"benchmark": "BenchmarkB", "ns_per_op": 200, "hit_rate": 0.5}
]
`
	entries, err := ParseBenchJSON(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("entries = %d, want 2", len(entries))
	}
	if entries[0].Name != "BenchmarkA" || entries[0].Metrics["allocs_per_op"] != 30 {
		t.Errorf("entry 0 = %+v", entries[0])
	}
	if _, ok := entries[0].Metrics["hit_rate"]; ok {
		t.Error("null metric survived parsing")
	}
	if _, err := ParseBenchJSON(strings.NewReader(`[{"ns_per_op": 1}]`)); err == nil {
		t.Error("entry without benchmark name parsed")
	}
	if _, err := ParseBenchJSON(strings.NewReader(`{`)); err == nil {
		t.Error("corrupt json parsed")
	}
	// Text after the array (the gate lines ci.sh once wrote into
	// BENCH_lot.json) makes the file invalid JSON.
	for _, tail := range []string{"lot gate: streamed 40284 dies/sec = 2.67x per-die loop\n", "]", `{"benchmark": "C"}`} {
		if _, err := ParseBenchJSON(strings.NewReader(src + tail)); err == nil {
			t.Errorf("trailing %q parsed", tail)
		}
	}
}

func TestDiffBenchDirectionsAndGates(t *testing.T) {
	baseline := []BenchEntry{
		{Name: "BenchmarkA", Metrics: map[string]float64{
			"ns_per_op": 100, "allocs_per_op": 30, "cache_hit_rate": 0.8}},
		{Name: "BenchmarkZero", Metrics: map[string]float64{"hit_rate": 0}},
		{Name: "Scaling", Metrics: map[string]float64{"speedup": 1.8, "nproc": 2}},
	}

	// allocs +50% regresses; ns_per_op +100% is skipped as time-based; a
	// hit-rate drop of 50% regresses (higher is better).
	current := []BenchEntry{
		{Name: "BenchmarkA", Metrics: map[string]float64{
			"ns_per_op": 200, "allocs_per_op": 45, "cache_hit_rate": 0.4}},
		{Name: "BenchmarkZero", Metrics: map[string]float64{"hit_rate": 1}},
		// A halved speedup is time-based and a CPU count is context:
		// neither gates by default.
		{Name: "Scaling", Metrics: map[string]float64{"speedup": 0.9, "nproc": 64}},
	}
	d := DiffBench(baseline, current, BenchDiffOptions{FailOverPct: 20})
	regs := d.Regressions()
	if len(regs) != 2 {
		t.Fatalf("regressions = %+v, want allocs + hit rate", regs)
	}
	gotMetrics := map[string]bool{}
	for _, r := range regs {
		gotMetrics[r.Metric] = true
	}
	if !gotMetrics["allocs_per_op"] || !gotMetrics["cache_hit_rate"] {
		t.Errorf("regressed metrics = %v", gotMetrics)
	}
	if !d.Failed() {
		t.Error("Failed() = false with regressions present")
	}
	// Time-based metrics gate only on request.
	d = DiffBench(baseline, current, BenchDiffOptions{FailOverPct: 20, IncludeTimeBased: true})
	gated := map[string]bool{}
	for _, r := range d.Regressions() {
		gated[r.Metric] = true
	}
	if !gated["ns_per_op"] || !gated["speedup"] {
		t.Errorf("IncludeTimeBased gated %v, want ns_per_op and speedup", gated)
	}
	if gated["nproc"] {
		t.Error("nproc gated; it is context")
	}

	// Identical files pass clean.
	d = DiffBench(baseline, baseline, BenchDiffOptions{FailOverPct: 20})
	if d.Failed() {
		t.Errorf("identical bench files failed: %+v", d.Regressions())
	}

	// A benchmark missing from the current file fails the gate.
	d = DiffBench(baseline, current[:1], BenchDiffOptions{FailOverPct: 20})
	if len(d.MissingBenchmarks) != 2 || d.MissingBenchmarks[0] != "BenchmarkZero" {
		t.Errorf("missing benchmarks = %v", d.MissingBenchmarks)
	}
	if !d.Failed() {
		t.Error("missing benchmark did not fail the gate")
	}
	var buf bytes.Buffer
	if err := d.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "MISSING from current file") {
		t.Errorf("render missing MISSING row:\n%s", buf.String())
	}
}

func TestDiffBenchAgainstRealBaselines(t *testing.T) {
	// The committed BENCH files must diff clean against themselves — this is
	// the exact self-check ci.sh runs.
	for _, name := range []string{"BENCH_kernels.json", "BENCH_lot.json", "BENCH_obs.json", "BENCH_parallel.json"} {
		raw, err := readRepoFile(name)
		if err != nil {
			t.Skipf("%s not present: %v", name, err)
		}
		entries, err := ParseBenchJSON(bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(entries) == 0 {
			t.Fatalf("%s parsed empty", name)
		}
		d := DiffBench(entries, entries, BenchDiffOptions{FailOverPct: 20})
		if d.Failed() {
			t.Errorf("%s does not diff clean against itself: %+v", name, d.Regressions())
		}
	}
}

// readRepoFile loads a file from the repo root (two levels up from this
// package).
func readRepoFile(name string) ([]byte, error) {
	return os.ReadFile(filepath.Join("..", "..", name))
}
