// Parallel-engine benchmarks: the fig. 5 GA loop and the fig. 8 shmoo
// overlay fanned across internal/parallel worker fleets at 1, 2 and NumCPU
// workers. The determinism tests in internal/core and internal/shmoo pin
// that every variant below produces bit-identical results, so the only
// thing these benchmarks measure is wall clock and ATE measurement cost.
package repro_test

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/parallel"
	"repro/internal/shmoo"
	"repro/internal/testgen"
)

// parallelWorkerCounts is the 1/2/NumCPU ladder; NumCPU is skipped when it
// duplicates an earlier rung (e.g. on a 1- or 2-core runner).
func parallelWorkerCounts() []int {
	counts := []int{1, 2}
	if n := runtime.NumCPU(); n > 2 {
		counts = append(counts, n)
	}
	return counts
}

// fig5Learned builds the fig. 5 flow at nominal conditions on a fleet of
// the given size and runs its learning phase. The flow is closed when tb's
// test or benchmark run ends.
func fig5Learned(tb testing.TB, workers int) *core.Characterizer {
	tester, _ := newRig(tb, 78)
	cfg := core.DefaultConfig(78)
	nominal := testgen.NominalConditions()
	cfg.FixedConditions = &nominal
	cfg.Parallelism = workers
	char, err := core.NewCharacterizer(cfg, tester)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(char.Close)
	if _, err := char.Learn(); err != nil {
		tb.Fatal(err)
	}
	return char
}

// BenchmarkFigure5OptimizationParallel runs the fig. 5 optimization scheme
// (NN seed proposal → dual-chromosome GA with ATE fitness) at each worker
// count. Learning is done once per variant outside the timer; every
// iteration is one full GA run on the flow's persistent fleet.
func BenchmarkFigure5OptimizationParallel(b *testing.B) {
	for _, workers := range parallelWorkerCounts() {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			char := fig5Learned(b, workers)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				opt, err := char.Optimize()
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.ReportMetric(float64(opt.Measurements), "measurements")
					b.ReportMetric(float64(opt.CacheHits), "cache_hits")
				}
			}
		})
	}
}

// TestFigure5OptimizationMeasurements bounds the ATE measurements of one
// BenchmarkFigure5OptimizationParallel GA run on fleets of 1 and 2 workers
// just under 20% past the 38,445 measured.
func TestFigure5OptimizationMeasurements(t *testing.T) {
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			opt, err := fig5Learned(t, workers).Optimize()
			if err != nil {
				t.Fatal(err)
			}
			if opt.Measurements > 46_133 {
				t.Errorf("%d ATE measurements, want at most 46133", opt.Measurements)
			}
		})
	}
}

// BenchmarkFigure5MeasurementCache isolates the memo-cache: the same GA run
// with the cache on and off. The cache=off measurements metric is strictly
// higher — elites and migrants are re-measured every generation instead of
// answered from the fingerprint cache.
func BenchmarkFigure5MeasurementCache(b *testing.B) {
	for _, disable := range []bool{false, true} {
		name := "cache=on"
		if disable {
			name = "cache=off"
		}
		b.Run(name, func(b *testing.B) {
			tester, _ := newRig(b, 78)
			cfg := core.DefaultConfig(78)
			nominal := testgen.NominalConditions()
			cfg.FixedConditions = &nominal
			cfg.DisableMeasurementCache = disable
			char, err := core.NewCharacterizer(cfg, tester)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := char.Learn(); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				opt, err := char.Optimize()
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.ReportMetric(float64(opt.Measurements), "measurements")
					b.ReportMetric(float64(opt.CacheHits), "cache_hits")
					b.ReportMetric(float64(opt.CacheMisses), "cache_misses")
				}
			}
		})
	}
}

// BenchmarkFigure8ShmooParallel overlays 100 tests per iteration, like
// BenchmarkFigure8ShmooPlot, but through the hermetic per-test fan-out on a
// fleet of each size.
func BenchmarkFigure8ShmooParallel(b *testing.B) {
	for _, workers := range parallelWorkerCounts() {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			tester, gen := newRig(b, 81)
			tests := gen.Batch(100)
			fleet := parallel.NewFleet(workers)
			defer fleet.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				plot, err := shmoo.NewPlot(shmoo.DefaultTDQAxis(), shmoo.DefaultVddAxis())
				if err != nil {
					b.Fatal(err)
				}
				if err := plot.AddTestsOn(fleet, tester, tests, 8100); err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.ReportMetric(plot.WorstCaseVariation(), "variation_ns")
				}
			}
		})
	}
}
