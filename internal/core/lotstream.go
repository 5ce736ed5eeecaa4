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
//   - Bounded memory. Dies stream through the worker fleet one stage at a
//     time (a few hundred dies per worker); nothing O(lot) is buffered
//     unless the caller asks for per-die results. Population statistics
//     (mean, spread, corner worst cases, drift, outliers) accumulate in
//     O(1) per die.
//   - Shared work. Each worker owns one device and one tester insertion
//     for the whole lot (Retarget/Reseed per die instead of reallocating),
//     and each test pattern executes once per lot, on a clean reference
//     die, instead of once per die: activity is die-independent for dies
//     without weak cells, so every clean die preloads the reference
//     profile rebound to itself (dut.Profile.Rebind) and tens of thousands
//     of dies share a handful of executions. Dies with weak cells execute
//     their own patterns.
//   - Durable measurements. With a cachestore attached, each die's screen
//     outcome (result + full tester cost) persists keyed by the content of
//     the die, the test set and the seed; a second identical run replays
//     from disk with bit-identical LotReport output.
//
// Pipeline: one fleet task is a contiguous chunk of dies handled end to end
// on a worker — materialize, cache lookup and decode, and on a miss screen
// and encode. The lot-order merge (cache inserts, aggregation, telemetry)
// runs in the stage's in-order delivery, overlapping the chunks still
// executing, so the only barrier left is the end of a stage.
//
// Determinism: every die is screened with its own seed on rewound worker
// hardware; die IDs are unique within a lot, so a die's cache lookup never
// races an insert of the same key; and chunks merge in lot order. The
// report, the telemetry event stream, the segment bytes and the store's
// hit/miss counts are bit-identical at any worker count and cache cold or
// warm.

// Pipeline shape. A chunk of lotChunkDies dies is ~0.6 ms of cold
// screening: long enough that per-task dispatch is noise, short enough
// that the last chunk of a stage leaves a worker idle only briefly. A
// stage hands each worker lotChunksPerWorker chunks (512 dies), so a
// 10k-die lot on two workers runs in 10 stages, and the merge buffer holds
// one stage of die records. Picked from BenchmarkLotScreenStream on a
// 2-vCPU host. Variables only so in-package tests can shrink them.
var (
	lotChunkDies       = 32
	lotChunksPerWorker = 16
)

// The lot report tracks the lotTopOutliers most extreme dies per tail and
// reports those at |z| ≥ lotOutlierZ against the lot population.
const (
	lotTopOutliers = 8
	lotOutlierZ    = 3
)

// LotOptions configures ScreenLotStream. The zero value screens serially,
// with no disk cache, no retained per-die results and no telemetry.
type LotOptions struct {
	// Fleet screens the chunks of each stage; its size is the concurrent
	// tester-insertion count (multi-site testing) and sets the stage size.
	// Nil screens serially, as a fleet of one. The report is bit-identical
	// at any fleet size.
	Fleet *parallel.Fleet
	// RetainDies keeps every per-die result in LotReport.Dies — O(lot)
	// memory. Leave false for fab-scale lots; the streaming aggregates and
	// the outlier set remain available.
	RetainDies bool
	// Cache, when non-nil, serves dies whose screen outcome is already on
	// disk and persists newly screened dies (one Flush at the end of the
	// lot). Lookups run on the workers, inserts in the lot-order merge.
	Cache *cachestore.Store
	// Telemetry receives the lot-screen phase, per-die events and progress
	// items; nil disables instrumentation.
	Telemetry *telemetry.Telemetry
}

// lotWorker is one worker's reusable screening state: a device and a
// tester insertion that are retargeted/reseeded per die.
type lotWorker struct {
	dev    *dut.Device
	tester *ate.ATE
	// refs[k] is test k executed on the lot's clean reference die, shared
	// read-only by every worker; nil when that execution failed, which
	// leaves the test to the tester's own pattern load and its error.
	refs []*dut.Profile
}

// screen measures one die, bit-identical to measuring it on a fresh device
// and tester insertion, but on reused hardware state.
func (wk *lotWorker) screen(param ate.Parameter, tests []testgen.Test, die *dut.Die, seed int64) (DieResult, ate.Stats, error) {
	if err := wk.dev.Retarget(die); err != nil {
		return DieResult{}, ate.Stats{}, fmt.Errorf("core: die %d: %w", die.ID, err)
	}
	wk.tester.Reseed(seed)

	spec := param.Spec()
	runner := trippoint.NewRunner(wk.tester, param)
	runner.Searcher = &search.SUTP{Refine: true}

	dr := DieResult{DieID: die.ID, Corner: die.Corner}
	worst := spec.WorstStart()
	for k, t := range tests {
		if ref := wk.refs[k]; ref != nil {
			if p, ok := ref.Rebind(wk.dev); ok {
				wk.tester.Preload(p)
			}
		}
		m, err := runner.Measure(t)
		if err != nil {
			return DieResult{}, ate.Stats{}, fmt.Errorf("core: die %d test %s: %w", die.ID, t.Name, err)
		}
		if m.Converged && spec.Worse(m.TripPoint, worst) {
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
	dr.WCR = spec.WCR(worst)
	dr.Class = wcr.Classify(dr.WCR)
	return dr, wk.tester.Stats(), nil
}

// lotSlot is one die's outcome on its way from a worker to the merge. rec
// (the encoded record of a screened die, for the cache) keeps its backing
// array across stages.
type lotSlot struct {
	key       uint64
	dr        DieResult
	cost      ate.Stats
	fromCache bool
	rec       []byte
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
	chunk := lotChunkDies
	stageDies := min(chunk*lotChunksPerWorker*nw, n)

	tel := opts.Telemetry
	ph := tel.StartPhase("lot-screen")

	// Each test executes once, here, on the clean placeholder die.
	placeholder := dut.NewDie(-1, dut.CornerTypical)
	refDev, err := dut.NewDevice(geom, placeholder)
	if err != nil {
		return nil, err
	}
	refs := make([]*dut.Profile, len(tests))
	for k, t := range tests {
		if p, err := refDev.Profile(t); err == nil {
			refs[k] = &p
		}
	}

	// Worker states persist across stages: construction cost (array
	// allocation) is paid once per worker, not once per stage or die.
	states := make([]*lotWorker, nw)
	newWorker := func(w int) (*lotWorker, error) {
		if states[w] != nil {
			return states[w], nil
		}
		dev, err := dut.NewDevice(geom, placeholder)
		if err != nil {
			return nil, err
		}
		states[w] = &lotWorker{dev: dev, tester: ate.New(dev, baseSeed), refs: refs}
		return states[w], nil
	}

	lotKey := lotCacheKey(param, geom, tests, baseSeed)

	spec := param.Spec()
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
		outliers           = trippoint.NewOutlierTracker(lotTopOutliers)
	)

	// The current stage is lot dies start .. start+len(stage)-1, one slot
	// per die; chunk c of the stage is its c-th run of `chunk` slots.
	var (
		start int
		slots = make([]lotSlot, stageDies)
		stage []lotSlot
	)
	chunkBounds := func(c int) (lo, hi int) {
		return c * chunk, min((c+1)*chunk, len(stage))
	}

	// A chunk runs end to end on its worker. Per-die seeds keep every die's
	// measurement stream independent of worker count and chunk shape.
	screenChunk := func(wk *lotWorker, c int) error {
		lo, hi := chunkBounds(c)
		for j := lo; j < hi; j++ {
			s := &stage[j]
			die := src.Die(start + j)
			s.fromCache = false
			if opts.Cache != nil {
				s.key = dieCacheKey(lotKey, die)
				if raw, ok := opts.Cache.Get(s.key); ok {
					if dr, cost, ok := decodeDieRecord(raw); ok && dr.DieID == die.ID {
						s.dr, s.cost, s.fromCache = dr, cost, true
						continue
					}
				}
			}
			dr, cost, err := wk.screen(param, tests, die, baseSeed+int64(die.ID))
			if err != nil {
				return err
			}
			s.dr, s.cost = dr, cost
			if opts.Cache != nil {
				s.rec = appendDieRecord(s.rec[:0], dr, cost)
			}
		}
		return nil
	}

	// Merge in lot order: aggregation, cache inserts (deterministic segment
	// bytes) and telemetry all see the same sequence at any worker count.
	mergeChunk := func(c int) error {
		lo, hi := chunkBounds(c)
		for j := lo; j < hi; j++ {
			s := &stage[j]
			i := start + j
			dr, cost := s.dr, s.cost
			if opts.Cache != nil && !s.fromCache {
				opts.Cache.Put(s.key, s.rec)
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
			if cur, ok := rep.PerCornerWorst[dr.Corner]; !ok || spec.Worse(dr.WorstTrip, cur) {
				rep.PerCornerWorst[dr.Corner] = dr.WorstTrip
			}
			if first || dr.WCR > rep.WorstDie.WCR {
				rep.WorstDie = dr
				first = false
			}
			drift.Add(float64(i), dr.WorstTrip)
			outliers.Add(dr.DieID, dr.WorstTrip)
		}
		return nil
	}

	for ; start < n; start += stageDies {
		stage = slots[:min(stageDies, n-start)]
		chunks := (len(stage) + chunk - 1) / chunk
		if err := parallel.Stream(opts.Fleet, chunks, newWorker, screenChunk, mergeChunk); err != nil {
			return nil, err
		}
	}

	rep.MeanWorstTrip = sumWorst / float64(n)
	rep.SpreadLot = maxWorst - minWorst
	rep.Drift = drift.Report()
	rep.Outliers = outliers.Report(lotOutlierZ)

	if opts.Cache != nil {
		if _, err := opts.Cache.Flush(); err != nil {
			return nil, fmt.Errorf("core: persisting lot cache: %w", err)
		}
		RecordDiskCache(tel, opts.Cache)
	}
	ph.End(rep.Stats.Cost())
	return rep, nil
}

// lotCacheKey fingerprints everything a die's screen outcome depends on
// besides the die itself: parameter, geometry, the ordered test set and the
// seed base. Each test contributes its structural fingerprint and its name,
// because a die record stores its worst test by name.
func lotCacheKey(param ate.Parameter, geom dut.Geometry, tests []testgen.Test, baseSeed int64) uint64 {
	h := testgen.Mix(testgen.MixOffset, uint64(param))
	h = testgen.Mix(h, uint64(geom.Banks))
	h = testgen.Mix(h, uint64(geom.Rows))
	h = testgen.Mix(h, uint64(geom.Cols))
	h = testgen.Mix(h, uint64(baseSeed))
	h = testgen.Mix(h, uint64(len(tests)))
	for _, t := range tests {
		h = testgen.Mix(h, t.Fingerprint())
		h = testgen.Mix(h, uint64(len(t.Name)))
		for i := 0; i < len(t.Name); i++ {
			h = testgen.Mix(h, uint64(t.Name[i]))
		}
	}
	return h
}

// dieCacheKey extends the lot key with the die's content fingerprint.
func dieCacheKey(lotKey uint64, die *dut.Die) uint64 {
	return testgen.Mix(lotKey, die.Fingerprint())
}

// dieRecordVersion tags the on-disk die-record encoding; bump on any
// layout change so stale segments read as misses, never as garbage.
const dieRecordVersion = 1

// LotCacheScope is the cachestore scope under which lot die records
// persist. Binaries pass it to cachestore.Open so segments written by
// other record families, under other cache keys or in another die-record
// layout (each bumps this constant; a layout change also bumps
// dieRecordVersion) are skipped at load instead of misread or indexed
// where no key can hit.
const LotCacheScope uint64 = 0x4c4f545633 // "LOTV3"

// appendDieRecord appends one die's serialized screen outcome to buf —
// result plus the complete tester cost, so a warm run replays exact
// accounting.
func appendDieRecord(buf []byte, dr DieResult, cost ate.Stats) []byte {
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

// decodeDieRecord parses appendDieRecord's output; ok is false on any
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
