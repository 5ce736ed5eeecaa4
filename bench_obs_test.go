package repro_test

import (
	"io"
	"testing"

	"repro/internal/core"
	"repro/internal/telemetry"
	"repro/internal/testgen"
)

// --- Observability ----------------------------------------------------------

// obsConfig is the telemetry benchmark workload: the fig. 5 flow at a size
// small enough for CI but large enough that the memo-cache sees GA
// duplicates.
func obsConfig(seed int64) core.Config {
	cfg := core.DefaultConfig(seed)
	cfg.LearnTests = 120
	cfg.EnsembleSize = 2
	cfg.HiddenLayers = []int{12}
	cfg.CandidatePool = 300
	cfg.SeedCount = 10
	cfg.GA.PopSize = 10
	cfg.GA.Islands = 2
	cfg.GA.MaxGenerations = 10
	nominal := testgen.NominalConditions()
	cfg.FixedConditions = &nominal
	return cfg
}

// instrumentedFlow runs the fig. 5 flow once with full telemetry (tracer
// + metrics + report) live and returns the run report.
func instrumentedFlow(tb testing.TB) *telemetry.Report {
	tel := telemetry.New("bench-obs", telemetry.NewTracer(io.Discard))
	cfg := obsConfig(78)
	cfg.Parallelism = 1
	cfg.Telemetry = tel
	tester, _ := newRig(tb, 78)
	char, err := core.NewCharacterizer(cfg, tester)
	if err != nil {
		tb.Fatal(err)
	}
	defer char.Close()
	if _, err := char.Learn(); err != nil {
		tb.Fatal(err)
	}
	if _, err := char.Optimize(); err != nil {
		tb.Fatal(err)
	}
	rep := tel.Report(telemetry.Cost{Measurements: tester.Stats().Measurements})
	if err := tel.Close(); err != nil {
		tb.Fatal(err)
	}
	return rep
}

// BenchmarkObservabilityInstrumentedFlow times instrumentedFlow, reporting
// the run's cache hit rate and ATE measurement count alongside ns/op.
func BenchmarkObservabilityInstrumentedFlow(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep := instrumentedFlow(b)
		if i == 0 {
			b.ReportMetric(rep.CacheHitRate(), "cache_hit_rate")
			b.ReportMetric(float64(rep.Total.Measurements), "measurements")
			b.ReportMetric(float64(rep.MeasurementsSaved()), "measurements_saved")
		}
	}
}

// TestObservabilityFlowCounters bounds the counters of the instrumented
// flow just under 20% past the values measured: a 0.19 memo-cache hit rate,
// 1,934 ATE measurements and 1,266 measurements saved by the trip-point
// search.
func TestObservabilityFlowCounters(t *testing.T) {
	rep := instrumentedFlow(t)
	if rate := rep.CacheHitRate(); rate <= 0.152 {
		t.Errorf("memo-cache hit rate %.4f, want above 0.152", rate)
	}
	if m := rep.Total.Measurements; m > 2320 {
		t.Errorf("%d ATE measurements, want at most 2320", m)
	}
	if saved := rep.MeasurementsSaved(); saved < 1013 {
		t.Errorf("%d measurements saved, want at least 1013", saved)
	}
}

// BenchmarkObservabilityOverhead measures the same flow with telemetry
// disabled (nil handle, every hook a no-op) so the instrumentation cost
// shows up as the delta against BenchmarkObservabilityInstrumentedFlow.
func BenchmarkObservabilityOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := obsConfig(78)
		cfg.Parallelism = 1
		tester, _ := newRig(b, 78)
		char, err := core.NewCharacterizer(cfg, tester)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := char.Learn(); err != nil {
			b.Fatal(err)
		}
		if _, err := char.Optimize(); err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(tester.Stats().Measurements), "measurements")
		}
	}
}
