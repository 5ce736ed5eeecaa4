package core

import (
	"bytes"
	"fmt"
	"maps"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/ate"
	"repro/internal/cachestore"
	"repro/internal/dut"
	"repro/internal/parallel"
	"repro/internal/proptest"
	"repro/internal/search"
	"repro/internal/telemetry"
	"repro/internal/testgen"
	"repro/internal/trippoint"
	"repro/internal/wcr"
)

// screenDie is the test oracle for the streamed pipeline: the original
// per-die screen, measuring every test on one die with a fresh device and
// tester insertion and returning the die result plus the measurement cost.
// It reads only the limit and the direction from the spec and keeps its own
// comparisons.
func screenDie(param ate.Parameter, tests []testgen.Test, die *dut.Die, geom dut.Geometry, seed int64) (DieResult, ate.Stats, error) {
	spec := param.Spec()
	worse := legacyWorse(spec.Min)
	dev, err := dut.NewDevice(geom, die)
	if err != nil {
		return DieResult{}, ate.Stats{}, fmt.Errorf("core: die %d: %w", die.ID, err)
	}
	tester := ate.New(dev, seed)
	runner := trippoint.NewRunner(tester, param)
	runner.Searcher = &search.SUTP{Refine: true}

	dr := DieResult{DieID: die.ID, Corner: die.Corner}
	worst := math.Inf(1)
	if !spec.Min {
		worst = math.Inf(-1)
	}
	for _, t := range tests {
		m, err := runner.Measure(t)
		if err != nil {
			return DieResult{}, ate.Stats{}, fmt.Errorf("core: die %d test %s: %w", die.ID, t.Name, err)
		}
		if m.Converged && worse(m.TripPoint, worst) {
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
	dr.WCR = wcr.ForMax(worst, spec.Limit)
	if spec.Min {
		dr.WCR = wcr.ForMin(worst, spec.Limit)
	}
	dr.Class = wcr.Classify(dr.WCR)
	return dr, tester.Stats(), nil
}

// legacyWorse is the per-die loop's own comparison: smaller is worse against
// a minimum spec, larger against a maximum.
func legacyWorse(specMin bool) func(a, b float64) bool {
	return func(a, b float64) bool {
		if specMin {
			return a < b
		}
		return a > b
	}
}

// The shape tests shrink the pipeline to chunks of testChunk dies and one
// chunk per worker per stage, so small lots reach every boundary: a single
// die, one short of a chunk, one past a chunk, and a lot spanning at least
// three stages on the largest fleet (8 workers).
const testChunk = 4

var lotShapeSizes = []int{1, testChunk - 1, testChunk + 1, 3*testChunk*8 + 1}

// withTestLotShape installs the shrunken pipeline shape until the test ends.
func withTestLotShape(t *testing.T) {
	chunk, perWorker := lotChunkDies, lotChunksPerWorker
	lotChunkDies, lotChunksPerWorker = testChunk, 1
	t.Cleanup(func() { lotChunkDies, lotChunksPerWorker = chunk, perWorker })
}

// lotCacheStates are the three cache configurations every shape test runs:
// no store, a fresh store, and the same store reopened after the cold run.
var lotCacheStates = []string{"off", "cold", "warm"}

// openLotCache returns the store for a cache state (nil for "off").
func openLotCache(t *testing.T, state, dir string) *cachestore.Store {
	t.Helper()
	if state == "off" {
		return nil
	}
	store, err := cachestore.Open(dir, LotCacheScope)
	if err != nil {
		t.Fatal(err)
	}
	return store
}

// checkLotCacheCounts asserts a cold run missed every die and a warm run
// hit every die.
func checkLotCacheCounts(t *testing.T, label, state string, store *cachestore.Store, dies int) {
	t.Helper()
	if store == nil {
		return
	}
	st := store.Stats()
	wantHits, wantMisses := int64(0), int64(dies)
	if state == "warm" {
		wantHits, wantMisses = int64(dies), 0
	}
	if st.Hits != wantHits || st.Misses != wantMisses {
		t.Errorf("%s: %d hits / %d misses, want %d / %d", label, st.Hits, st.Misses, wantHits, wantMisses)
	}
}

// The oracle: screenDie in a serial per-die loop is the pre-streaming
// implementation, on a fresh device per die with no shared pattern
// execution. Every streamed configuration must reproduce its per-die
// outcomes, its summed tester cost, and the per-corner and worst dies it
// implies, bit for bit, against T_DQ's minimum spec and Vddmin's maximum.
// Every fifth die carries a weak cell the March test reads, so the lot's
// shared clean-die executions and its per-die fallback are both pinned.
func TestScreenLotStreamMatchesLegacyPerDieLoop(t *testing.T) {
	withTestLotShape(t)
	tests := lotTests(t)
	dies := dut.NewDieLot(31, lotShapeSizes[len(lotShapeSizes)-1])
	for i := 0; i < len(dies); i += 5 {
		dut.WithWeakCell(uint32(i%50), 2.5)(dies[i])
	}
	geom := dut.DefaultGeometry()
	const seed = 31

	for _, param := range []ate.Parameter{ate.TDQ, ate.VddMin} {
		t.Run(param.String(), func(t *testing.T) {
			want := make([]DieResult, len(dies))
			wantCost := make([]ate.Stats, len(dies))
			for i, die := range dies {
				dr, cost, err := screenDie(param, tests, die, geom, seed+int64(die.ID))
				if err != nil {
					t.Fatal(err)
				}
				want[i], wantCost[i] = dr, cost
			}
			if want[0].FunctionalFails == 0 {
				t.Fatal("the weak cell of die 0 never corrupted a read")
			}
			worse := legacyWorse(param.Spec().Min)

			for _, workers := range []int{0, 1, 2, 8} {
				f := testFleet(t, workers)
				for _, size := range lotShapeSizes {
					dir := t.TempDir()
					// The per-corner worst trip and the worst die (the first
					// with the largest WCR) of the legacy dies.
					wantCorner := map[dut.Corner]float64{}
					wantWorst := want[0]
					var total ate.Stats
					for i := 0; i < size; i++ {
						if cur, ok := wantCorner[want[i].Corner]; !ok || worse(want[i].WorstTrip, cur) {
							wantCorner[want[i].Corner] = want[i].WorstTrip
						}
						if want[i].WCR > wantWorst.WCR {
							wantWorst = want[i]
						}
						total.Add(wantCost[i])
					}
					for _, state := range lotCacheStates {
						label := fmt.Sprintf("workers=%d dies=%d cache=%s", workers, size, state)
						store := openLotCache(t, state, dir)
						rep, err := ScreenLotStream(param, tests, dut.LotSlice(dies[:size]), geom, seed, LotOptions{
							Fleet: f, RetainDies: true, Cache: store,
						})
						if err != nil {
							t.Fatalf("%s: %v", label, err)
						}
						if len(rep.Dies) != size || rep.DieCount != size {
							t.Fatalf("%s: %d dies (count %d)", label, len(rep.Dies), rep.DieCount)
						}
						for i := 0; i < size; i++ {
							if rep.Dies[i] != want[i] {
								t.Errorf("%s die %d: %+v, legacy %+v", label, i, rep.Dies[i], want[i])
							}
						}
						if rep.Measurements != total.Measurements {
							t.Errorf("%s: measurements %d, legacy %d", label, rep.Measurements, total.Measurements)
						}
						if rep.Stats != total {
							t.Errorf("%s: tester cost %+v, legacy %+v", label, rep.Stats, total)
						}
						if !maps.Equal(rep.PerCornerWorst, wantCorner) {
							t.Errorf("%s: per-corner worst %v, legacy %v", label, rep.PerCornerWorst, wantCorner)
						}
						if rep.WorstDie != wantWorst {
							t.Errorf("%s: worst die %+v, legacy %+v", label, rep.WorstDie, wantWorst)
						}
						checkLotCacheCounts(t, label, state, store, size)
					}
				}
			}
		})
	}
}

// lotRun is everything a lot screen leaves behind that must be
// bit-identical across worker counts: the report, the trace bytes and the
// cache directory's segment bytes.
type lotRun struct {
	rep   *LotReport
	trace []byte
	segs  []byte
}

// Full-run bit-identity across worker counts, lot sizes around every
// pipeline boundary, and cache off, cold and warm — the acceptance
// criterion of the streamed pipeline.
func TestScreenLotStreamReportInvariance(t *testing.T) {
	withTestLotShape(t)
	tests := lotTests(t)
	geom := dut.DefaultGeometry()
	const seed = 37

	screen := func(label, state, dir string, workers int, lot dut.DieSource) lotRun {
		var buf bytes.Buffer
		tel := telemetry.New("lot", telemetry.NewTracer(&buf))
		store := openLotCache(t, state, dir)
		rep, err := ScreenLotStream(ate.TDQ, tests, lot, geom, seed, LotOptions{
			Fleet: testFleet(t, workers), RetainDies: true, Cache: store, Telemetry: tel,
		})
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if err := tel.Close(); err != nil {
			t.Fatal(err)
		}
		checkLotCacheCounts(t, label, state, store, lot.Len())
		run := lotRun{rep: rep, trace: buf.Bytes()}
		if store != nil {
			names, err := filepath.Glob(filepath.Join(dir, "*.seg"))
			if err != nil {
				t.Fatal(err)
			}
			for _, name := range names {
				raw, err := os.ReadFile(name)
				if err != nil {
					t.Fatal(err)
				}
				run.segs = append(run.segs, raw...)
			}
		}
		return run
	}

	for _, size := range lotShapeSizes {
		lot, err := dut.NewWaferLot(5, 1, size)
		if err != nil {
			t.Fatal(err)
		}
		var want map[string]lotRun
		for _, workers := range []int{0, 1, 2, 8} {
			dir := t.TempDir()
			got := make(map[string]lotRun)
			for _, state := range lotCacheStates {
				label := fmt.Sprintf("workers=%d dies=%d cache=%s", workers, size, state)
				got[state] = screen(label, state, dir, workers, lot)
				if !reflect.DeepEqual(got[state].rep, got["off"].rep) {
					t.Errorf("%s: report differs from cache=off\n got: %+v\nwant: %+v", label, got[state].rep, got["off"].rep)
				}
				if want == nil {
					continue
				}
				if !reflect.DeepEqual(got[state].rep, want[state].rep) {
					t.Errorf("%s: report differs from the nil fleet", label)
				}
				if !bytes.Equal(got[state].trace, want[state].trace) {
					t.Errorf("%s: trace differs from the nil fleet (%d vs %d bytes)", label, len(got[state].trace), len(want[state].trace))
				}
				if !bytes.Equal(got[state].segs, want[state].segs) {
					t.Errorf("%s: segment bytes differ from the nil fleet", label)
				}
			}
			if got["off"].rep.DieCount != size {
				t.Fatalf("dies=%d: DieCount = %d", size, got["off"].rep.DieCount)
			}
			if want == nil {
				want = got
			}
		}
	}
}

// One die that cannot be screened, in the middle of a chunk, fails the lot
// with the same error at every worker count.
func TestScreenLotStreamUnscreenableDieSameErrorAtAnyWorkers(t *testing.T) {
	withTestLotShape(t)
	tests := lotTests(t)[:2]
	dies := dut.NewDieLot(47, 3*testChunk)
	bad := testChunk + testChunk/2
	dies[bad] = dut.NewDie(bad, dut.CornerTypical, dut.WithExtraTDQOffsetNS(1e6))

	var want string
	for _, workers := range []int{0, 1, 2, 8} {
		_, err := screenDies(ate.TDQ, tests, dies, dut.DefaultGeometry(), 47, testFleet(t, workers))
		if err == nil {
			t.Fatalf("workers=%d: unscreenable die %d accepted", workers, bad)
		}
		if want == "" {
			want = err.Error()
			if !strings.Contains(want, fmt.Sprintf("die %d", bad)) {
				t.Errorf("error %q does not name die %d", want, bad)
			}
			continue
		}
		if err.Error() != want {
			t.Errorf("workers=%d: error %q, nil fleet %q", workers, err, want)
		}
	}
}

// The pipeline's point: a 10k-die lot on two workers runs in a handful of
// fleet stages, against 1250 for the per-window design it replaced. Not
// parallel: the fleet observer is process-wide.
func TestScreenLotStreamStageCount(t *testing.T) {
	lot, err := dut.NewWaferLot(78, 4, 2500)
	if err != nil {
		t.Fatal(err)
	}
	f := testFleet(t, 2)
	stages := 0
	parallel.SetFleetObserver(func(parallel.StreamStats) { stages++ })
	defer parallel.SetFleetObserver(nil)
	if _, err := ScreenLotStream(ate.TDQ, lotTests(t)[:1], lot, dut.DefaultGeometry(), 78, LotOptions{Fleet: f}); err != nil {
		t.Fatal(err)
	}
	stageDies := lotChunkDies * lotChunksPerWorker * f.Size()
	maxStages := (lot.Len() + stageDies - 1) / stageDies
	t.Logf("%d dies in %d stages of %d dies", lot.Len(), stages, stageDies)
	if stages < 1 || stages > maxStages {
		t.Errorf("%d fleet stages, want 1..%d", stages, maxStages)
	}
	if stages*50 > 1250 {
		t.Errorf("%d fleet stages, want at least 50x fewer than 1250", stages)
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

	// Same patterns under new names → a die record's worst-test name would
	// be stale → no hits allowed, and the report names the new tests.
	renamed := slices.Clone(tests)
	for i := range renamed {
		renamed[i].Name = fmt.Sprintf("RENAMED-%d", i)
	}
	cold, err := ScreenLotStream(ate.TDQ, renamed, dut.LotSlice(dies), geom, 43, LotOptions{RetainDies: true})
	if err != nil {
		t.Fatal(err)
	}
	s4, _ := cachestore.Open(dir, 7)
	warm, err := ScreenLotStream(ate.TDQ, renamed, dut.LotSlice(dies), geom, 43, LotOptions{RetainDies: true, Cache: s4})
	if err != nil {
		t.Fatal(err)
	}
	if st := s4.Stats(); st.Hits != 0 {
		t.Errorf("renamed-test-set cache hits: %d", st.Hits)
	}
	if !reflect.DeepEqual(warm, cold) {
		t.Errorf("renamed test set: report over the store differs from cold\n got: %+v\nwant: %+v", warm.Dies, cold.Dies)
	}
}

// TestContentKeysPinned pins the content hashes the disk caches key on —
// die fingerprints, the lot and die cache keys and the memo-cache scope —
// to the values of the word-at-a-time testgen.Mix and the four-lane test
// fingerprint, so a change to either cannot silently orphan every
// persisted segment.
func TestContentKeysPinned(t *testing.T) {
	dies := append(dut.NewDieLot(43, 3),
		dut.NewDie(7, dut.CornerSlow, dut.WithWeakCell(0x1234, 1.62), dut.WithWeakCell(0x20, 1.55)))
	lotKey := lotCacheKey(ate.TDQ, dut.DefaultGeometry(), lotTests(t)[:2], 43)
	if want := uint64(0x159be113ebb7ea83); lotKey != want {
		t.Errorf("lot cache key %#x, want %#x", lotKey, want)
	}
	for i, want := range [][2]uint64{
		{0xec834c43a5a3a9be, 0x5931bc7665e3a302},
		{0x534b4479309030a9, 0x7c633e9187ae41cd},
		{0xc21f42bf2354c80a, 0x1984a79995d69201},
		{0x6c6ab0fa98054fe1, 0xe7b391a8a51388fa},
	} {
		if fp, key := dies[i].Fingerprint(), dieCacheKey(lotKey, dies[i]); fp != want[0] || key != want[1] {
			t.Errorf("die %d: fingerprint %#x, cache key %#x; want %#x, %#x", i, fp, key, want[0], want[1])
		}
	}
	char, err := NewCharacterizer(quickConfig(91), newTester(t, 91))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(char.Close)
	if got, want := char.MemoCacheScope(), uint64(0x78e536a3e572ea2c); got != want {
		t.Errorf("memo-cache scope %#x, want %#x", got, want)
	}
}

// A lot directory written under LOTV2, the scope whose keys hashed each
// test's vectors in one Mix chain, opens empty under LotCacheScope and
// screens exactly as cold: the old segment is skipped, never indexed under
// keys nothing can hit. Its records here even carry the current keys, so
// only the scope keeps them out.
func TestLotStoreUnderEarlierScopeReadsCold(t *testing.T) {
	const lotV2 uint64 = 0x4c4f545632 // "LOTV2"
	tests := lotTests(t)[:2]
	dies := dut.NewDieLot(41, 6)
	geom := dut.DefaultGeometry()
	dir := t.TempDir()
	old, err := cachestore.Open(dir, lotV2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ScreenLotStream(ate.TDQ, tests, dut.LotSlice(dies), geom, 41, LotOptions{Cache: old}); err != nil {
		t.Fatal(err)
	}
	if st := old.Stats(); st.FlushedEntries != int64(len(dies)) {
		t.Fatalf("LOTV2 store flushed %d records, want %d", st.FlushedEntries, len(dies))
	}

	store, err := cachestore.Open(dir, LotCacheScope)
	if err != nil {
		t.Fatal(err)
	}
	if st := store.Stats(); st.LoadedEntries != 0 || st.SkippedSegments != 1 {
		t.Fatalf("LotCacheScope over a LOTV2 directory: stats %+v, want 0 entries and the segment skipped", st)
	}
	cold, err := ScreenLotStream(ate.TDQ, tests, dut.LotSlice(dies), geom, 41, LotOptions{RetainDies: true})
	if err != nil {
		t.Fatal(err)
	}
	warm, err := ScreenLotStream(ate.TDQ, tests, dut.LotSlice(dies), geom, 41, LotOptions{RetainDies: true, Cache: store})
	if err != nil {
		t.Fatal(err)
	}
	if st := store.Stats(); st.Hits != 0 || st.Misses != int64(len(dies)) {
		t.Errorf("hits/misses = %d/%d, want 0/%d", st.Hits, st.Misses, len(dies))
	}
	if warm.Format() != cold.Format() || !reflect.DeepEqual(warm, cold) {
		t.Errorf("report over a LOTV2 directory differs from cold\n got: %s\nwant: %s", warm.Format(), cold.Format())
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

		raw := appendDieRecord(nil, dr, cost)
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
