package core

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/ate"
	"repro/internal/cachestore"
	"repro/internal/dut"
	"repro/internal/proptest"
	"repro/internal/search"
	"repro/internal/testgen"
	"repro/internal/trippoint"
	"repro/internal/wcr"
)

// screenDie is the test oracle for the streamed pipeline: the original
// per-die screen, measuring every test on one die with a fresh device and
// tester insertion and returning the die result plus the measurement cost.
func screenDie(param ate.Parameter, tests []testgen.Test, die *dut.Die, geom dut.Geometry, seed int64) (DieResult, ate.Stats, error) {
	spec, isMin := param.SpecValue()
	worseThan := func(a, b float64) bool {
		if isMin {
			return a < b
		}
		return a > b
	}
	dev, err := dut.NewDevice(geom, die)
	if err != nil {
		return DieResult{}, ate.Stats{}, fmt.Errorf("core: die %d: %w", die.ID, err)
	}
	tester := ate.New(dev, seed)
	runner := trippoint.NewRunner(tester, param)
	runner.Searcher = &search.SUTP{Refine: true}

	dr := DieResult{DieID: die.ID, Corner: die.Corner}
	worst := math.Inf(1)
	if !isMin {
		worst = math.Inf(-1)
	}
	for _, t := range tests {
		m, err := runner.Measure(t)
		if err != nil {
			return DieResult{}, ate.Stats{}, fmt.Errorf("core: die %d test %s: %w", die.ID, t.Name, err)
		}
		if m.Converged && worseThan(m.TripPoint, worst) {
			worst = m.TripPoint
			dr.WorstTest = t.Name
		}
		ok, err := tester.FunctionalPass(t)
		if err != nil {
			return DieResult{}, ate.Stats{}, err
		}
		if !ok {
			dr.FunctionalFails++
		}
	}
	if math.IsInf(worst, 0) {
		return DieResult{}, ate.Stats{}, fmt.Errorf("core: die %d: no test converged", die.ID)
	}
	dr.WorstTrip = worst
	dr.WCR = wcr.For(worst, spec, isMin)
	dr.Class = wcr.Classify(dr.WCR)
	return dr, tester.Stats(), nil
}

// The oracle: screenDie in a serial per-die loop is the pre-streaming
// implementation. Every streamed configuration must reproduce its per-die
// outcomes bit for bit.
func TestScreenLotStreamMatchesLegacyPerDieLoop(t *testing.T) {
	tests := lotTests(t)
	dies := dut.NewDieLot(31, 10)
	geom := dut.DefaultGeometry()
	const seed = 31

	want := make([]DieResult, len(dies))
	wantCost := make([]ate.Stats, len(dies))
	for i, die := range dies {
		dr, cost, err := screenDie(ate.TDQ, tests, die, geom, seed+int64(die.ID))
		if err != nil {
			t.Fatal(err)
		}
		want[i], wantCost[i] = dr, cost
	}

	for _, workers := range []int{0, 1, 2, 8} {
		f := testFleet(t, workers)
		for _, batch := range []int{0, 1, 3, 64} {
			rep, err := ScreenLotStream(ate.TDQ, tests, dut.LotSlice(dies), geom, seed, LotOptions{
				Fleet: f, BatchSize: batch, RetainDies: true,
			})
			if err != nil {
				t.Fatalf("workers=%d batch=%d: %v", workers, batch, err)
			}
			if len(rep.Dies) != len(want) || rep.DieCount != len(want) {
				t.Fatalf("workers=%d batch=%d: %d dies (count %d)", workers, batch, len(rep.Dies), rep.DieCount)
			}
			var totalMeas int64
			for i := range want {
				if rep.Dies[i] != want[i] {
					t.Errorf("workers=%d batch=%d die %d: %+v, legacy %+v", workers, batch, i, rep.Dies[i], want[i])
				}
				totalMeas += wantCost[i].Measurements
			}
			if rep.Measurements != totalMeas {
				t.Errorf("workers=%d batch=%d: measurements %d, legacy %d", workers, batch, rep.Measurements, totalMeas)
			}
		}
	}
}

// Full-report bit-identity across worker counts, batch sizes and cache
// cold/warm — the acceptance criterion of the streamed pipeline.
func TestScreenLotStreamReportInvariance(t *testing.T) {
	tests := lotTests(t)
	lot, err := dut.NewWaferLot(5, 2, 12)
	if err != nil {
		t.Fatal(err)
	}
	geom := dut.DefaultGeometry()
	const seed = 37

	baseline, err := ScreenLotStream(ate.TDQ, tests, lot, geom, seed, LotOptions{RetainDies: true})
	if err != nil {
		t.Fatal(err)
	}
	if baseline.DieCount != lot.Len() {
		t.Fatalf("DieCount = %d, want %d", baseline.DieCount, lot.Len())
	}

	dir := t.TempDir()
	configs := []struct {
		name    string
		workers int
		batch   int
		cached  bool
	}{
		{"w2", 2, 0, false},
		{"w8-smallbatch", 8, 2, false},
		{"w4-cold", 4, 0, true}, // populates the disk cache
		{"w1-warm", 1, 5, true}, // must serve from disk, bit-identical
		{"w8-warm", 8, 64, true},
	}
	for _, cfg := range configs {
		opts := LotOptions{Fleet: testFleet(t, cfg.workers), BatchSize: cfg.batch, RetainDies: true}
		if cfg.cached {
			store, err := cachestore.Open(dir, 42)
			if err != nil {
				t.Fatal(err)
			}
			opts.Cache = store
		}
		rep, err := ScreenLotStream(ate.TDQ, tests, lot, geom, seed, opts)
		if err != nil {
			t.Fatalf("%s: %v", cfg.name, err)
		}
		if !reflect.DeepEqual(rep, baseline) {
			t.Errorf("%s: report differs from baseline\n got: %+v\nwant: %+v", cfg.name, rep, baseline)
		}
	}

	// The final warm run must have served every die from disk.
	store, err := cachestore.Open(dir, 42)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := ScreenLotStream(ate.TDQ, tests, lot, geom, seed, LotOptions{
		Fleet: testFleet(t, 2), RetainDies: true, Cache: store,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(warm, baseline) {
		t.Error("warm report differs from baseline")
	}
	st := store.Stats()
	if st.Hits != int64(lot.Len()) || st.Misses != 0 {
		t.Errorf("warm run: %d hits / %d misses, want %d / 0", st.Hits, st.Misses, lot.Len())
	}
}

// A partially warm cache serves the overlap and computes the rest; the
// report still matches an all-cold run.
func TestScreenLotStreamPartialWarm(t *testing.T) {
	tests := lotTests(t)[:2]
	dies := dut.NewDieLot(41, 8)
	geom := dut.DefaultGeometry()
	dir := t.TempDir()
	const seed = 41

	s1, err := cachestore.Open(dir, 7)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ScreenLotStream(ate.TDQ, tests, dut.LotSlice(dies[:5]), geom, seed, LotOptions{Cache: s1}); err != nil {
		t.Fatal(err)
	}

	s2, err := cachestore.Open(dir, 7)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := ScreenLotStream(ate.TDQ, tests, dut.LotSlice(dies), geom, seed, LotOptions{RetainDies: true})
	if err != nil {
		t.Fatal(err)
	}
	mixed, err := ScreenLotStream(ate.TDQ, tests, dut.LotSlice(dies), geom, seed, LotOptions{RetainDies: true, Cache: s2})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cold, mixed) {
		t.Error("partially warm report differs from cold")
	}
	st := s2.Stats()
	if st.Hits != 5 || st.Misses != 3 {
		t.Errorf("hits/misses = %d/%d, want 5/3", st.Hits, st.Misses)
	}
}

// Cache keys are content-addressed: a different seed, test set or die must
// never hit another configuration's entries.
func TestScreenLotStreamCacheKeyedByContent(t *testing.T) {
	tests := lotTests(t)[:2]
	dies := dut.NewDieLot(43, 4)
	geom := dut.DefaultGeometry()
	dir := t.TempDir()

	s1, _ := cachestore.Open(dir, 7)
	if _, err := ScreenLotStream(ate.TDQ, tests, dut.LotSlice(dies), geom, 43, LotOptions{Cache: s1}); err != nil {
		t.Fatal(err)
	}

	// Different base seed → different measurement noise → no hits allowed.
	s2, _ := cachestore.Open(dir, 7)
	if _, err := ScreenLotStream(ate.TDQ, tests, dut.LotSlice(dies), geom, 44, LotOptions{Cache: s2}); err != nil {
		t.Fatal(err)
	}
	if st := s2.Stats(); st.Hits != 0 {
		t.Errorf("cross-seed cache hits: %d", st.Hits)
	}

	// Different test subset → different outcomes → no hits allowed.
	s3, _ := cachestore.Open(dir, 7)
	if _, err := ScreenLotStream(ate.TDQ, tests[:1], dut.LotSlice(dies), geom, 43, LotOptions{Cache: s3}); err != nil {
		t.Fatal(err)
	}
	if st := s3.Stats(); st.Hits != 0 {
		t.Errorf("cross-test-set cache hits: %d", st.Hits)
	}
}

// Streamed fab-scale mode: per-die results dropped, aggregates intact.
func TestScreenLotStreamUnretained(t *testing.T) {
	tests := lotTests(t)[:2]
	lot, err := dut.NewWaferLot(3, 1, 30)
	if err != nil {
		t.Fatal(err)
	}
	geom := dut.DefaultGeometry()

	f := testFleet(t, 2)
	full, err := ScreenLotStream(ate.TDQ, tests, lot, geom, 3, LotOptions{Fleet: f, RetainDies: true})
	if err != nil {
		t.Fatal(err)
	}
	lean, err := ScreenLotStream(ate.TDQ, tests, lot, geom, 3, LotOptions{Fleet: f})
	if err != nil {
		t.Fatal(err)
	}
	if lean.Dies != nil {
		t.Errorf("unretained run kept %d per-die results", len(lean.Dies))
	}
	if lean.DieCount != 30 {
		t.Errorf("DieCount = %d", lean.DieCount)
	}
	// Everything except Dies must match the retained run.
	full.Dies = nil
	if !reflect.DeepEqual(full, lean) {
		t.Errorf("aggregates differ:\n got: %+v\nwant: %+v", lean, full)
	}
	if lean.Drift.N != 30 {
		t.Errorf("drift over %d dies", lean.Drift.N)
	}
}

func TestScreenLotStreamValidation(t *testing.T) {
	if _, err := ScreenLotStream(ate.TDQ, nil, dut.LotSlice(dut.NewDieLot(1, 2)), dut.DefaultGeometry(), 1, LotOptions{}); err == nil {
		t.Error("empty test set accepted")
	}
	if _, err := ScreenLotStream(ate.TDQ, lotTests(t), dut.LotSlice(nil), dut.DefaultGeometry(), 1, LotOptions{}); err == nil {
		t.Error("empty source accepted")
	}
	if _, err := ScreenLotStream(ate.TDQ, lotTests(t), nil, dut.DefaultGeometry(), 1, LotOptions{}); err == nil {
		t.Error("nil source accepted")
	}
}

// Die-record round-trip closure over adversarial values, plus rejection of
// truncations and version flips.
func TestDieRecordRoundTrip(t *testing.T) {
	proptest.Check(t, 60, func(pt *proptest.T) {
		dr := DieResult{
			DieID:           pt.Intn(1 << 20),
			Corner:          dut.Corner(pt.Intn(3)),
			WorstTrip:       pt.FiniteFloat(),
			WorstTest:       pt.String("abcXYZ0123-_@", 40),
			WCR:             pt.FiniteFloat(),
			Class:           wcr.Class(pt.Intn(3)),
			FunctionalFails: pt.Intn(100),
		}
		var cost ate.Stats
		cost.Measurements = int64(pt.Intn(1 << 30))
		cost.VectorsApplied = int64(pt.Intn(1 << 30))
		cost.TestTimeSec = pt.Float64Range(0, 1e6)
		cost.Profiles = int64(pt.Intn(1 << 20))
		for i := range cost.PerParam {
			cost.PerParam[i] = int64(pt.Intn(1 << 20))
		}
		cost.Functional = int64(pt.Intn(1 << 20))

		raw := encodeDieRecord(dr, cost)
		got, gotCost, ok := decodeDieRecord(raw)
		if !ok {
			pt.Fatalf("decode failed")
		}
		// NaN-tolerant comparison via bit patterns.
		if got.DieID != dr.DieID || got.Corner != dr.Corner || got.WorstTest != dr.WorstTest ||
			got.Class != dr.Class || got.FunctionalFails != dr.FunctionalFails ||
			math.Float64bits(got.WorstTrip) != math.Float64bits(dr.WorstTrip) ||
			math.Float64bits(got.WCR) != math.Float64bits(dr.WCR) {
			pt.Fatalf("result round-trip: %+v != %+v", got, dr)
		}
		if gotCost != cost {
			pt.Fatalf("cost round-trip: %+v != %+v", gotCost, cost)
		}

		// Any truncation is a clean miss, never garbage.
		if len(raw) > 0 {
			cut := pt.Intn(len(raw))
			if _, _, ok := decodeDieRecord(raw[:cut]); ok {
				pt.Fatalf("truncation to %d bytes accepted", cut)
			}
		}
		// Trailing junk and version flips are misses too.
		if _, _, ok := decodeDieRecord(append(append([]byte(nil), raw...), 0)); ok {
			pt.Fatalf("trailing byte accepted")
		}
		flip := append([]byte(nil), raw...)
		flip[0] ^= 0xFF
		if _, _, ok := decodeDieRecord(flip); ok {
			pt.Fatalf("version flip accepted")
		}
	})
}

// A warm lot with telemetry off costs a small constant number of mallocs
// per die: the materialized *Die and the decoded record's test name, plus
// the lot's fixed set-up spread over a thousand dies. A per-die telemetry
// field list, a per-record copy in the store or a per-die layout table
// would each push it past the bound.
func TestScreenLotStreamWarmAllocsPerDie(t *testing.T) {
	tests := lotTests(t)[:2]
	lot, err := dut.NewWaferLot(11, 2, 500)
	if err != nil {
		t.Fatal(err)
	}
	geom := dut.DefaultGeometry()
	dir := t.TempDir()
	cold, err := cachestore.Open(dir, LotCacheScope)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ScreenLotStream(ate.TDQ, tests, lot, geom, 11, LotOptions{Cache: cold}); err != nil {
		t.Fatal(err)
	}
	warm, err := cachestore.Open(dir, LotCacheScope)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := ScreenLotStream(ate.TDQ, tests, lot, geom, 11, LotOptions{Cache: warm}); err != nil {
			t.Fatal(err)
		}
	})
	if st := warm.Stats(); st.Misses != 0 {
		t.Fatalf("warm store missed %d dies", st.Misses)
	}
	perDie := allocs / float64(lot.Len())
	t.Logf("%.0f mallocs per warm lot, %.2f per die", allocs, perDie)
	if perDie > 3 {
		t.Errorf("warm lot costs %.2f mallocs per die, want at most 3", perDie)
	}
}
