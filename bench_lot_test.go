// Fab-scale lot pipeline benchmarks: the streamed lot screen against the
// pre-change per-die loop, across the 1/2/8 multi-site ladder and with the
// disk cache cold versus warm. The bit-equality tests in internal/core pin
// that every variant produces the identical LotReport, so these measure
// only dies/second, ATE measurement cost, disk-cache effectiveness and
// per-die allocation pressure. TestLotScreenGates bounds the counters on
// the same workload; ci.sh gates the wall-clock ratios on medians of five
// benchmark samples.
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

// The lot the benchmarks and TestLotScreenGates screen: 4 wafers of 2500
// dies.
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

// screenLotPerDie is the pre-streaming reference: one fresh device, tester
// insertion and searcher per die, serially — what the lot screen compiled
// to before the pipeline landed. It returns the ATE measurements spent.
func screenLotPerDie(tb testing.TB, tests []testgen.Test, lot *dut.WaferLot) int64 {
	geom := dut.DefaultGeometry()
	var measurements int64
	for j := 0; j < lot.Len(); j++ {
		die := lot.Die(j)
		dev, err := dut.NewDevice(geom, die)
		if err != nil {
			tb.Fatal(err)
		}
		tester := ate.New(dev, lotBenchSeed+int64(die.ID))
		runner := trippoint.NewRunner(tester, ate.TDQ)
		runner.Searcher = &search.SUTP{Refine: true}
		for _, t := range tests {
			if _, err := runner.Measure(t); err != nil {
				tb.Fatal(err)
			}
			if _, err := tester.FunctionalPass(t); err != nil {
				tb.Fatal(err)
			}
		}
		measurements += tester.Stats().Measurements
	}
	return measurements
}

// BenchmarkLotScreenPerDieLoop times screenLotPerDie. Its dies/sec is the
// baseline the streamed variants are gated against.
func BenchmarkLotScreenPerDieLoop(b *testing.B) {
	tests := lotBenchTests(b)
	lot := lotBenchLot(b)
	for i := 0; i < b.N; i++ {
		measurements := screenLotPerDie(b, tests, lot)
		if i == 0 {
			b.ReportMetric(float64(lot.Len())/b.Elapsed().Seconds(), "dies_per_sec")
			b.ReportMetric(float64(measurements), "measurements")
		}
	}
}

// screenLot screens the lot once through the streamed pipeline on a fresh
// fleet of the given size, reading and filling store (nil runs uncached).
func screenLot(tb testing.TB, tests []testgen.Test, lot *dut.WaferLot, workers int, store *cachestore.Store) *core.LotReport {
	fleet := parallel.NewFleet(workers)
	defer fleet.Close()
	rep, err := core.ScreenLotStream(ate.TDQ, tests, lot, dut.DefaultGeometry(), lotBenchSeed, core.LotOptions{
		Fleet: fleet,
		Cache: store,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return rep
}

func openLotCache(tb testing.TB, dir string) *cachestore.Store {
	store, err := cachestore.Open(dir, core.LotCacheScope)
	if err != nil {
		tb.Fatal(err)
	}
	return store
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
// outside the timer, so the timed run serves every die from disk.
// allocs_per_die (Mallocs over the screen, store opening excluded) is
// reported for the cache=off and cache=warm variants.
func BenchmarkLotScreenStream(b *testing.B) {
	tests := lotBenchTests(b)
	lot := lotBenchLot(b)

	for _, workers := range []int{1, 2, 8} {
		b.Run(fmt.Sprintf("workers=%d/cache=off", workers), func(b *testing.B) {
			var mallocs uint64
			for i := 0; i < b.N; i++ {
				var rep *core.LotReport
				mallocs += countMallocs(func() { rep = screenLot(b, tests, lot, workers, nil) })
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
				store := openLotCache(b, b.TempDir())
				b.StartTimer()
				rep := screenLot(b, tests, lot, workers, store)
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
			screenLot(b, tests, lot, 8, openLotCache(b, dir)) // populate outside the timer
			b.ResetTimer()
			var mallocs uint64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				store := openLotCache(b, dir)
				b.StartTimer()
				var rep *core.LotReport
				mallocs += countMallocs(func() { rep = screenLot(b, tests, lot, workers, store) })
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

// TestLotScreenGates bounds the counters BenchmarkLotScreenStream and
// BenchmarkLotScreenPerDieLoop report, on the same lot and at every worker
// count and cache mode they run. The bounds sit just under 20% past the
// values measured — 240,000 measurements, 8.02–8.03 mallocs per die with
// the cache off and 2.03–2.04 warm, a 1,330,016-byte segment, every warm
// die served from disk — and mallocs per die are the same with and without
// -race.
func TestLotScreenGates(t *testing.T) {
	const (
		maxMeasurements     = 287_999
		maxOffAllocsPerDie  = 9.6
		maxWarmAllocsPerDie = 2.43
		minWarmHitRate      = 0.8 // exclusive
		maxBytesOnDisk      = 1_596_018
	)
	tests := lotBenchTests(t)
	lot := lotBenchLot(t)
	checkMeasurements := func(t *testing.T, got int64) {
		t.Helper()
		if got > maxMeasurements {
			t.Errorf("%d ATE measurements, want at most %d", got, maxMeasurements)
		}
	}
	checkAllocsPerDie := func(t *testing.T, mallocs uint64, max float64) {
		t.Helper()
		perDie := float64(mallocs) / float64(lot.Len())
		t.Logf("%.3f mallocs per die", perDie)
		if perDie > max {
			t.Errorf("%.3f mallocs per die, want at most %.2f", perDie, max)
		}
	}
	checkBytesOnDisk := func(t *testing.T, st cachestore.Stats) {
		t.Helper()
		if st.BytesOnDisk > maxBytesOnDisk {
			t.Errorf("%d bytes on disk, want at most %d", st.BytesOnDisk, maxBytesOnDisk)
		}
	}

	t.Run("per-die-loop", func(t *testing.T) {
		checkMeasurements(t, screenLotPerDie(t, tests, lot))
	})
	for _, workers := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("workers=%d/cache=off", workers), func(t *testing.T) {
			var rep *core.LotReport
			mallocs := countMallocs(func() { rep = screenLot(t, tests, lot, workers, nil) })
			checkMeasurements(t, rep.Measurements)
			checkAllocsPerDie(t, mallocs, maxOffAllocsPerDie)
		})
		dir := t.TempDir()
		t.Run(fmt.Sprintf("workers=%d/cache=cold", workers), func(t *testing.T) {
			store := openLotCache(t, dir)
			checkMeasurements(t, screenLot(t, tests, lot, workers, store).Measurements)
			checkBytesOnDisk(t, store.Stats())
		})
		t.Run(fmt.Sprintf("workers=%d/cache=warm", workers), func(t *testing.T) {
			store := openLotCache(t, dir)
			var rep *core.LotReport
			mallocs := countMallocs(func() { rep = screenLot(t, tests, lot, workers, store) })
			st := store.Stats()
			checkMeasurements(t, rep.Measurements)
			checkAllocsPerDie(t, mallocs, maxWarmAllocsPerDie)
			checkBytesOnDisk(t, st)
			if rate := telemetry.HitRate(st.Hits, st.Misses); rate <= minWarmHitRate {
				t.Errorf("warm hit rate %.3f, want above %.1f", rate, minWarmHitRate)
			}
		})
	}
}
