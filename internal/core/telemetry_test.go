package core

import (
	"bytes"
	"testing"

	"repro/internal/telemetry"
)

// The telemetry determinism contract: instrumented pipelines emit events
// only from deterministic program points with logical-counter payloads, so
// the JSONL trace is byte-identical for any Parallelism. These tests pin
// that for the fig. 5 optimization flow and the Table 1 comparison, and
// pin the run-report invariants (phase partition, cache effectiveness).

// traceOptimize runs the learn+optimize flow with tracing and returns the
// raw JSONL bytes plus the end-of-run report.
func traceOptimize(t *testing.T, seed int64, parallelism int) ([]byte, *telemetry.Report) {
	t.Helper()
	var buf bytes.Buffer
	tel := telemetry.New("fig5", telemetry.NewTracer(&buf))
	cfg := quickConfig(seed)
	cfg.Parallelism = parallelism
	cfg.Telemetry = tel
	tester := newTester(t, seed)
	char, err := NewCharacterizer(cfg, tester)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := char.Learn(); err != nil {
		t.Fatal(err)
	}
	if _, err := char.Optimize(); err != nil {
		t.Fatal(err)
	}
	rep := tel.Report(tester.Stats().Cost())
	if err := tel.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), rep
}

func TestOptimizeTraceIdenticalAcrossParallelism(t *testing.T) {
	serial, _ := traceOptimize(t, 91, 1)
	if len(serial) == 0 {
		t.Fatal("serial run produced an empty trace")
	}
	for _, workers := range []int{2, 8} {
		par, _ := traceOptimize(t, 91, workers)
		if !bytes.Equal(serial, par) {
			t.Errorf("parallelism=%d trace differs from serial (%d vs %d bytes)",
				workers, len(par), len(serial))
		}
	}
}

func TestTable1TraceIdenticalAcrossParallelism(t *testing.T) {
	run := func(workers int) []byte {
		var buf bytes.Buffer
		tel := telemetry.New("table1", telemetry.NewTracer(&buf))
		cfg := Table1Config{Flow: quickConfig(59), RandomTests: 30, MarchWindowWords: 40}
		cfg.Flow.Parallelism = workers
		cfg.Flow.Telemetry = tel
		if _, err := RunTable1(cfg, newTester(t, 59)); err != nil {
			t.Fatal(err)
		}
		if err := tel.Close(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	serial := run(1)
	if len(serial) == 0 {
		t.Fatal("serial run produced an empty trace")
	}
	for _, workers := range []int{2, 8} {
		if par := run(workers); !bytes.Equal(serial, par) {
			t.Errorf("parallelism=%d Table 1 trace differs from serial (%d vs %d bytes)",
				workers, len(par), len(serial))
		}
	}
}

func TestRunReportInvariants(t *testing.T) {
	_, rep := traceOptimize(t, 91, 2)

	if rep.CacheHits == 0 {
		t.Error("fig. 5 run recorded no cache hits; the memo-cache should absorb GA duplicates")
	}
	if rate := rep.CacheHitRate(); rate <= 0 || rate >= 1 {
		t.Errorf("cache hit rate = %v, want in (0, 1)", rate)
	}
	if rep.Total.Measurements == 0 {
		t.Fatal("report total has no measurements")
	}
	// The phase breakdown (learn / propose-seeds / optimize, plus any
	// unattributed remainder) must partition the tester's total exactly.
	var got int64
	for _, p := range rep.Phases {
		got += p.Measurements
	}
	if got != rep.Total.Measurements {
		t.Errorf("phase measurements sum to %d, tester total is %d", got, rep.Total.Measurements)
	}
	names := map[string]bool{}
	for _, p := range rep.Phases {
		names[p.Name] = true
	}
	for _, want := range []string{"learn", "propose-seeds", "optimize"} {
		if !names[want] {
			t.Errorf("report is missing phase %q (has %v)", want, names)
		}
	}
	if rep.MeasurementsSaved() == 0 {
		t.Error("SUTP + cache saved no measurements vs the full-range baseline")
	}
	if rep.Searches == 0 || rep.SearchMeasurements == 0 {
		t.Error("report recorded no searches")
	}
}

func TestCacheStatsSurfaced(t *testing.T) {
	cfg := quickConfig(91)
	cfg.Parallelism = 1
	char, err := NewCharacterizer(cfg, newTester(t, 91))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := char.Learn(); err != nil {
		t.Fatal(err)
	}
	opt, err := char.Optimize()
	if err != nil {
		t.Fatal(err)
	}
	if opt.CacheHits == 0 {
		t.Error("no cache hits surfaced")
	}
	if opt.CacheMisses == 0 {
		t.Error("no cache misses surfaced")
	}
}
