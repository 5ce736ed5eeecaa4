// Fab-scale lot pipeline benchmarks: the streamed lot screen against the
// pre-change per-die loop, across the 1/2/8 multi-site ladder and with the
// disk cache cold versus warm. The bit-equality tests in internal/core pin
// that every variant produces the identical LotReport, so these measure
// only dies/second, ATE measurement cost, disk-cache effectiveness and
// per-die allocation pressure — the numbers BENCH_lot.json tracks and
// ci.sh gates on.
package repro_test

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/ate"
	"repro/internal/cachestore"
	"repro/internal/core"
	"repro/internal/dut"
	"repro/internal/parallel"
	"repro/internal/search"
	"repro/internal/telemetry"
	"repro/internal/testgen"
	"repro/internal/trippoint"
)

// lotBenchDies is the lot size the acceptance gate runs at: 4 wafers of
// 2500 dies.
const (
	lotBenchWafers   = 4
	lotBenchPerWafer = 2500
	lotBenchSeed     = 78
)

// lotBenchTests is the screened test set: a coordinated worst-case pattern
// plus a windowed March C- baseline, the same shape cmd/lotchar screens.
func lotBenchTests(tb testing.TB) []testgen.Test {
	cond := testgen.NominalConditions()
	geom := dut.DefaultGeometry()
	words := geom.Words()
	seq := make(testgen.Sequence, 0, 200)
	for i := 0; i < 50; i++ {
		base := uint32(0)
		if i%2 == 1 {
			base = words - 2
		}
		seq = append(seq,
			testgen.Vector{Op: testgen.OpWrite, Addr: base, Data: 0},
			testgen.Vector{Op: testgen.OpWrite, Addr: base + 1, Data: 0xFFFFFFFF},
		)
	}
	tests := []testgen.Test{{Name: "WORST-BUILTIN", Seq: seq, Cond: cond}}
	march, err := testgen.MarchTest(testgen.MarchCMinus(), 0, 100, 0x55555555, cond)
	if err != nil {
		tb.Fatal(err)
	}
	return append(tests, march)
}

func lotBenchLot(tb testing.TB) *dut.WaferLot {
	lot, err := dut.NewWaferLot(lotBenchSeed, lotBenchWafers, lotBenchPerWafer)
	if err != nil {
		tb.Fatal(err)
	}
	return lot
}

// BenchmarkLotScreenPerDieLoop is the pre-streaming reference: one fresh
// device, tester insertion and searcher per die, serially — what the lot
// screen compiled to before the pipeline landed. Its dies/sec is the
// baseline the streamed variants are gated against.
func BenchmarkLotScreenPerDieLoop(b *testing.B) {
	tests := lotBenchTests(b)
	lot := lotBenchLot(b)
	geom := dut.DefaultGeometry()
	for i := 0; i < b.N; i++ {
		var measurements int64
		for j := 0; j < lot.Len(); j++ {
			die := lot.Die(j)
			dev, err := dut.NewDevice(geom, die)
			if err != nil {
				b.Fatal(err)
			}
			tester := ate.New(dev, lotBenchSeed+int64(die.ID))
			runner := trippoint.NewRunner(tester, ate.TDQ)
			runner.Searcher = &search.SUTP{Refine: true}
			for _, t := range tests {
				if _, err := runner.Measure(t); err != nil {
					b.Fatal(err)
				}
				if _, err := tester.FunctionalPass(t); err != nil {
					b.Fatal(err)
				}
			}
			measurements += tester.Stats().Measurements
		}
		if i == 0 {
			b.ReportMetric(float64(lot.Len())/b.Elapsed().Seconds(), "dies_per_sec")
			b.ReportMetric(float64(measurements), "measurements")
		}
	}
}

// countMallocs returns the heap allocations fn makes.
func countMallocs(fn func()) uint64 {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	fn()
	runtime.ReadMemStats(&m1)
	return m1.Mallocs - m0.Mallocs
}

// BenchmarkLotScreenStream runs the streamed pipeline across the worker
// ladder, cache off / cold / warm. Warm variants pre-populate the store
// outside the timer, so the timed run serves every die from disk; their
// hit_rate metric is the ≥50% CI gate. allocs_per_die (Mallocs over the
// screen, store opening excluded) is the allocation gate for the cache=off
// and cache=warm variants.
func BenchmarkLotScreenStream(b *testing.B) {
	tests := lotBenchTests(b)
	lot := lotBenchLot(b)
	geom := dut.DefaultGeometry()

	run := func(b *testing.B, workers int, store *cachestore.Store) *core.LotReport {
		fleet := parallel.NewFleet(workers)
		defer fleet.Close()
		rep, err := core.ScreenLotStream(ate.TDQ, tests, lot, geom, lotBenchSeed, core.LotOptions{
			Fleet: fleet,
			Cache: store,
		})
		if err != nil {
			b.Fatal(err)
		}
		return rep
	}

	for _, workers := range []int{1, 2, 8} {
		b.Run(fmt.Sprintf("workers=%d/cache=off", workers), func(b *testing.B) {
			var mallocs uint64
			for i := 0; i < b.N; i++ {
				var rep *core.LotReport
				mallocs += countMallocs(func() { rep = run(b, workers, nil) })
				if i == 0 {
					b.ReportMetric(float64(lot.Len())/b.Elapsed().Seconds(), "dies_per_sec")
					b.ReportMetric(float64(rep.Measurements), "measurements")
				}
			}
			b.ReportMetric(float64(mallocs)/float64(lot.Len()*b.N), "allocs_per_die")
		})

		b.Run(fmt.Sprintf("workers=%d/cache=cold", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				store, err := cachestore.Open(b.TempDir(), core.LotCacheScope)
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				rep := run(b, workers, store)
				if i == 0 {
					st := store.Stats()
					b.ReportMetric(float64(lot.Len())/b.Elapsed().Seconds(), "dies_per_sec")
					b.ReportMetric(float64(rep.Measurements), "measurements")
					b.ReportMetric(telemetry.HitRate(st.Hits, st.Misses), "hit_rate")
					b.ReportMetric(float64(st.BytesOnDisk), "bytes_on_disk")
				}
			}
		})

		b.Run(fmt.Sprintf("workers=%d/cache=warm", workers), func(b *testing.B) {
			dir := b.TempDir()
			seedStore, err := cachestore.Open(dir, core.LotCacheScope)
			if err != nil {
				b.Fatal(err)
			}
			run(b, 8, seedStore) // populate outside the timer
			b.ResetTimer()
			var mallocs uint64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				store, err := cachestore.Open(dir, core.LotCacheScope)
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				var rep *core.LotReport
				mallocs += countMallocs(func() { rep = run(b, workers, store) })
				if i == 0 {
					st := store.Stats()
					b.ReportMetric(float64(lot.Len())/b.Elapsed().Seconds(), "dies_per_sec")
					b.ReportMetric(float64(rep.Measurements), "measurements")
					b.ReportMetric(telemetry.HitRate(st.Hits, st.Misses), "hit_rate")
					b.ReportMetric(float64(st.BytesOnDisk), "bytes_on_disk")
				}
			}
			b.ReportMetric(float64(mallocs)/float64(lot.Len()*b.N), "allocs_per_die")
		})
	}
}
