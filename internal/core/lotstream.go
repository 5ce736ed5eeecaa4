package core

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/ate"
	"repro/internal/cachestore"
	"repro/internal/dut"
	"repro/internal/parallel"
	"repro/internal/search"
	"repro/internal/telemetry"
	"repro/internal/testgen"
	"repro/internal/trippoint"
	"repro/internal/wcr"
)

// Streamed lot screening, the one lot-screen entry point. Three properties
// distinguish it from a per-die loop:
//
//   - Bounded memory. Dies stream through the worker fleet in windows of
//     O(workers) size; nothing O(lot) is buffered unless the caller asks
//     for per-die results. Population statistics (mean, spread, corner
//     worst cases, drift, outliers) accumulate in O(1) per die.
//   - Shared work. Each worker owns one device and one tester insertion
//     for the whole lot (Retarget/Reseed per die instead of reallocating),
//     and a lot-wide dut.ProfileBank executes each test pattern once
//     instead of once per die — activity is die-independent for clean
//     dies, so tens of thousands of dies share a handful of executions.
//   - Durable measurements. With a cachestore attached, each die's screen
//     outcome (result + full tester cost) persists keyed by the content of
//     the die, the test set and the seed; a second identical run replays
//     from disk with bit-identical LotReport output.
//
// Determinism: dies are resolved against the cache serially in lot order,
// misses fan out on the deterministic fleet with per-die seeds, and windows
// merge back in lot order — the report (and the telemetry event stream) is
// bit-identical at any worker count, any batch size, and cache cold or
// warm.

// LotOptions configures ScreenLotStream. The zero value screens serially
// with an automatic batch size, no disk cache, no retained per-die results
// and no telemetry.
type LotOptions struct {
	// Fleet runs the miss fan-out; its size is the concurrent
	// tester-insertion count (multi-site testing). Nil screens serially, as
	// a fleet of one. The report is bit-identical at any fleet size.
	Fleet *parallel.Fleet
	// BatchSize is the streaming window: how many dies are in flight
	// between cache resolve and merge. Values below 1 pick 4× the fleet
	// size. Batch size never changes results, only peak memory.
	BatchSize int
	// RetainDies keeps every per-die result in LotReport.Dies — O(lot)
	// memory. Leave false for fab-scale lots; the streaming aggregates and
	// the outlier set remain available.
	RetainDies bool
	// Cache, when non-nil, serves dies whose screen outcome is already on
	// disk and persists newly screened dies (one Flush at the end of the
	// lot).
	Cache *cachestore.Store
	// Telemetry receives the lot-screen phase, per-die events and progress
	// items; nil disables instrumentation.
	Telemetry *telemetry.Telemetry
	// TopOutliers is how many population outliers to track per tail
	// (values below 1 pick 8).
	TopOutliers int
	// OutlierZ is the |z|-score threshold for reporting a die as an
	// outlier (values ≤ 0 pick 3).
	OutlierZ float64
}

// lotWorker is one worker's reusable screening state: a device and a
// tester insertion that are retargeted/reseeded per die.
type lotWorker struct {
	dev    *dut.Device
	tester *ate.ATE
}

// screen measures one die, bit-identical to measuring it on a fresh device
// and tester insertion, but on reused hardware state.
func (wk *lotWorker) screen(param ate.Parameter, tests []testgen.Test, die *dut.Die, seed int64) (DieResult, ate.Stats, error) {
	if err := wk.dev.Retarget(die); err != nil {
		return DieResult{}, ate.Stats{}, fmt.Errorf("core: die %d: %w", die.ID, err)
	}
	wk.tester.Reseed(seed)

	spec, isMin := param.SpecValue()
	worseThan := func(a, b float64) bool {
		if isMin {
			return a < b
		}
		return a > b
	}
	runner := trippoint.NewRunner(wk.tester, param)
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
		ok, err := wk.tester.FunctionalPass(t)
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
	return dr, wk.tester.Stats(), nil
}

// ScreenLotStream screens every die of the source through the streaming
// pipeline and returns the aggregated report: one fresh tester insertion
// state per die, seeded deterministically from baseSeed and the die ID. The
// geometry must match the one the tests were generated for. See LotOptions
// for the knobs.
func ScreenLotStream(param ate.Parameter, tests []testgen.Test, src dut.DieSource, geom dut.Geometry, baseSeed int64, opts LotOptions) (*LotReport, error) {
	if len(tests) == 0 {
		return nil, fmt.Errorf("core: lot screen needs at least one test")
	}
	if src == nil || src.Len() == 0 {
		return nil, fmt.Errorf("core: empty die lot")
	}
	n := src.Len()
	nw := opts.Fleet.Size()
	batch := opts.BatchSize
	if batch < 1 {
		batch = 4 * nw
	}
	if batch > n {
		batch = n
	}
	topK := opts.TopOutliers
	if topK < 1 {
		topK = 8
	}
	zThresh := opts.OutlierZ
	if zThresh <= 0 {
		zThresh = 3
	}

	tel := opts.Telemetry
	ph := tel.StartPhase("lot-screen")

	bank, err := dut.NewProfileBank(geom, dut.DefaultPhysics())
	if err != nil {
		return nil, err
	}

	// Worker states persist across windows: construction cost (array
	// allocation) is paid once per worker, not once per window or die.
	states := make([]*lotWorker, nw)
	placeholder := dut.NewDie(-1, dut.CornerTypical)
	newWorker := func(w int) (*lotWorker, error) {
		if states[w] != nil {
			return states[w], nil
		}
		dev, err := dut.NewDevice(geom, placeholder)
		if err != nil {
			return nil, err
		}
		// Dense execution scratch (value-identical, see dut.Memory): the
		// insertion screens the whole lot, so the arrays amortize.
		dev.EnableExecScratch()
		tester := ate.New(dev, baseSeed)
		tester.Profiler = bank.Profile
		states[w] = &lotWorker{dev: dev, tester: tester}
		return states[w], nil
	}

	lotKey := lotCacheKey(param, geom, tests, baseSeed)

	_, isMin := param.SpecValue()
	worseThan := func(a, b float64) bool {
		if isMin {
			return a < b
		}
		return a > b
	}
	rep := &LotReport{
		Parameter:      param,
		Tests:          len(tests),
		ClassCounts:    make(map[wcr.Class]int),
		PerCornerWorst: make(map[dut.Corner]float64),
	}
	var (
		sumWorst           float64
		minWorst, maxWorst = math.Inf(1), math.Inf(-1)
		first              = true
		drift              trippoint.DriftAccumulator
		outliers           = trippoint.NewOutlierTracker(topK)
	)

	type slot struct {
		die       *dut.Die
		key       uint64
		dr        DieResult
		cost      ate.Stats
		fromCache bool
	}
	window := make([]slot, batch)
	var missIdx []int

	for start := 0; start < n; start += batch {
		end := start + batch
		if end > n {
			end = n
		}
		w := window[:end-start]
		missIdx = missIdx[:0]

		// Serial cache resolve in lot order: hit/miss counters and the
		// set of dies that fan out are deterministic.
		for j := range w {
			die := src.Die(start + j)
			w[j] = slot{die: die}
			if opts.Cache != nil {
				w[j].key = dieCacheKey(lotKey, die)
				if raw, ok := opts.Cache.Get(w[j].key); ok {
					if dr, cost, ok := decodeDieRecord(raw); ok && dr.DieID == die.ID {
						w[j].dr, w[j].cost, w[j].fromCache = dr, cost, true
						continue
					}
				}
			}
			missIdx = append(missIdx, j)
		}

		// Fan the misses over the fleet; per-die seeds keep every die's
		// measurement stream independent of worker count and batch shape.
		screenMiss := func(wk *lotWorker, k int) error {
			j := missIdx[k]
			dr, cost, err := wk.screen(param, tests, w[j].die, baseSeed+int64(w[j].die.ID))
			if err != nil {
				return err
			}
			w[j].dr, w[j].cost = dr, cost
			return nil
		}
		if err := parallel.RunOn(opts.Fleet, len(missIdx), newWorker, screenMiss); err != nil {
			return nil, err
		}

		// Merge in lot order: aggregation, cache inserts (deterministic
		// segment bytes) and telemetry all see the same sequence at any
		// worker count.
		for j := range w {
			i := start + j
			dr, cost := w[j].dr, w[j].cost
			if opts.Cache != nil && !w[j].fromCache {
				opts.Cache.Put(w[j].key, encodeDieRecord(dr, cost))
			}
			tel.RecordItem("die", i+1, n)
			if opts.RetainDies {
				rep.Dies = append(rep.Dies, dr)
			}
			rep.DieCount++
			rep.ClassCounts[dr.Class]++
			rep.Measurements += cost.Measurements
			rep.Stats.Add(cost)
			// Checked here, not inside Event: building the fields boxes
			// four values per die even when telemetry is off.
			if sp := ph.Span(); sp != nil {
				sp.Event("die",
					telemetry.I("die", dr.DieID),
					telemetry.S("corner", dr.Corner.String()),
					telemetry.F("worst_trip", dr.WorstTrip),
					telemetry.F("wcr", dr.WCR),
					telemetry.I("measurements", cost.Measurements),
				)
			}

			sumWorst += dr.WorstTrip
			minWorst = math.Min(minWorst, dr.WorstTrip)
			maxWorst = math.Max(maxWorst, dr.WorstTrip)
			if cur, ok := rep.PerCornerWorst[dr.Corner]; !ok || worseThan(dr.WorstTrip, cur) {
				rep.PerCornerWorst[dr.Corner] = dr.WorstTrip
			}
			if first || dr.WCR > rep.WorstDie.WCR {
				rep.WorstDie = dr
				first = false
			}
			drift.Add(float64(i), dr.WorstTrip)
			outliers.Add(dr.DieID, dr.WorstTrip)
		}
	}

	rep.MeanWorstTrip = sumWorst / float64(n)
	rep.SpreadLot = maxWorst - minWorst
	rep.Drift = drift.Report()
	rep.Outliers = outliers.Report(zThresh)

	if opts.Cache != nil {
		if _, err := opts.Cache.Flush(); err != nil {
			return nil, fmt.Errorf("core: persisting lot cache: %w", err)
		}
		st := opts.Cache.Stats()
		tel.RecordDiskCache(telemetry.DiskCacheStats{
			LoadedEntries:  st.LoadedEntries,
			LoadedSegments: st.LoadedSegments,
			Hits:           st.Hits,
			Misses:         st.Misses,
			FlushedEntries: st.FlushedEntries,
			BytesOnDisk:    st.BytesOnDisk,
		})
	}
	ph.End(telCost(rep.Stats))
	return rep, nil
}

// lotCacheKey fingerprints everything a die's screen outcome depends on
// besides the die itself: parameter, geometry, the ordered test set
// (structural fingerprints — names don't matter) and the seed base.
func lotCacheKey(param ate.Parameter, geom dut.Geometry, tests []testgen.Test, baseSeed int64) uint64 {
	h := fnvMix(fnvOffset, uint64(param))
	h = fnvMix(h, uint64(geom.Banks))
	h = fnvMix(h, uint64(geom.Rows))
	h = fnvMix(h, uint64(geom.Cols))
	h = fnvMix(h, uint64(baseSeed))
	h = fnvMix(h, uint64(len(tests)))
	for _, t := range tests {
		h = fnvMix(h, t.Fingerprint())
	}
	return h
}

// dieCacheKey extends the lot key with the die's content fingerprint.
func dieCacheKey(lotKey uint64, die *dut.Die) uint64 {
	return fnvMix(lotKey, die.Fingerprint())
}

// dieRecordVersion tags the on-disk die-record encoding; bump on any
// layout change so stale segments read as misses, never as garbage.
const dieRecordVersion = 1

// LotCacheScope is the cachestore scope under which lot die records
// persist. Binaries pass it to cachestore.Open so segments written by
// other record families (or by a future incompatible die-record layout,
// which bumps this constant alongside dieRecordVersion) are skipped at
// load instead of misread.
const LotCacheScope uint64 = 0x4c4f545631 // "LOTV1"

// encodeDieRecord serializes one die's screen outcome — result plus the
// complete tester cost, so a warm run replays exact accounting.
func encodeDieRecord(dr DieResult, cost ate.Stats) []byte {
	buf := make([]byte, 0, 96+len(dr.WorstTest))
	buf = append(buf, dieRecordVersion)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(int64(dr.DieID)))
	buf = append(buf, byte(dr.Corner))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(dr.WorstTrip))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(dr.WCR))
	buf = append(buf, byte(dr.Class))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(int64(dr.FunctionalFails)))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(dr.WorstTest)))
	buf = append(buf, dr.WorstTest...)

	buf = binary.LittleEndian.AppendUint64(buf, uint64(cost.Measurements))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(cost.VectorsApplied))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(cost.TestTimeSec))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(cost.Profiles))
	buf = append(buf, byte(len(cost.PerParam)))
	for _, v := range cost.PerParam {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(v))
	}
	buf = binary.LittleEndian.AppendUint64(buf, uint64(cost.Functional))
	return buf
}

// decodeDieRecord parses encodeDieRecord's output; ok is false on any
// framing or version mismatch (treated as a cache miss by the caller).
func decodeDieRecord(raw []byte) (dr DieResult, cost ate.Stats, ok bool) {
	r := recReader{buf: raw}
	if r.u8() != dieRecordVersion {
		return DieResult{}, ate.Stats{}, false
	}
	dr.DieID = int(int64(r.u64()))
	dr.Corner = dut.Corner(r.u8())
	dr.WorstTrip = math.Float64frombits(r.u64())
	dr.WCR = math.Float64frombits(r.u64())
	dr.Class = wcr.Class(r.u8())
	dr.FunctionalFails = int(int64(r.u64()))
	dr.WorstTest = r.str()

	cost.Measurements = int64(r.u64())
	cost.VectorsApplied = int64(r.u64())
	cost.TestTimeSec = math.Float64frombits(r.u64())
	cost.Profiles = int64(r.u64())
	if int(r.u8()) != len(cost.PerParam) {
		return DieResult{}, ate.Stats{}, false
	}
	for i := range cost.PerParam {
		cost.PerParam[i] = int64(r.u64())
	}
	cost.Functional = int64(r.u64())
	if r.failed || r.pos != len(raw) {
		return DieResult{}, ate.Stats{}, false
	}
	return dr, cost, true
}

// recReader is a bounds-checked little-endian cursor over a die record.
type recReader struct {
	buf    []byte
	pos    int
	failed bool
}

func (r *recReader) u8() byte {
	if r.failed || r.pos+1 > len(r.buf) {
		r.failed = true
		return 0
	}
	v := r.buf[r.pos]
	r.pos++
	return v
}

func (r *recReader) u64() uint64 {
	if r.failed || r.pos+8 > len(r.buf) {
		r.failed = true
		return 0
	}
	v := binary.LittleEndian.Uint64(r.buf[r.pos:])
	r.pos += 8
	return v
}

func (r *recReader) str() string {
	if r.failed || r.pos+4 > len(r.buf) {
		r.failed = true
		return ""
	}
	n := int(binary.LittleEndian.Uint32(r.buf[r.pos:]))
	r.pos += 4
	if n < 0 || r.pos+n > len(r.buf) {
		r.failed = true
		return ""
	}
	s := string(r.buf[r.pos : r.pos+n])
	r.pos += n
	return s
}
