package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dut"
	"repro/internal/parallel"
	"repro/internal/telemetry"
	"repro/internal/testgen"
)

// The traced run splits wall time across layers from outside the program:
// it times the calls the benchmark makes into public functions and the
// hooks the program already offers (the tester's Profiler, the fleet
// observer, the telemetry run observer, the die source), keeps the spans in
// memory, and attributes each unit's blocking path after the unit ends.
//
// The blocking path of a unit is the goroutine that calls the flow. Phases
// and fleet stages run on it; a fleet stage's wall time is split into task
// work (its workers' busy share) and fleet overhead (idle workers, dispatch
// and merge exposed at the end), and task work is split again by the share
// of worker time spent executing DUT patterns. What a phase spends outside
// its stages and serial DUT calls is the phase's own serial layer. Time a
// unit spends outside every span stays unattributed, which is what
// trace.explained_ratio measures.

type span struct {
	name       string
	start, end time.Time
}

func (s span) dur() time.Duration { return s.end.Sub(s.start) }

type stageRec struct {
	phase string
	start time.Time
	end   time.Time
	st    parallel.StreamStats
}

// tracer collects a run's traced units. Its methods are safe for
// concurrent use: fleet workers call the profiler and job clients run side
// by side.
type tracer struct {
	origin time.Time
	chrome bool

	mu sync.Mutex

	// Spans of the unit in flight (single-client workloads only).
	phase     string
	phaseFrom time.Time
	phases    []span
	stages    []stageRec
	duts      []span
	direct    map[string]time.Duration // spans the workload timed itself
	dieNanos  atomic.Int64

	layer    map[string]time.Duration
	unitWall time.Duration
	units    int

	profiles                 int64
	searches, searchMeas     int64
	searchBudget             int64
	memoHits, memoMisses     int64
	generations              int64
	fleetStages, fleetTasks  int64
	fleetBusy, fleetCapacity time.Duration
	fleetWall, fleetExposed  time.Duration
	fleetRunAhead            int
	storeHits, storeMisses   int64
	storeBytes               int64
	storeUnits               int64
	rt                       runtimeTotals

	events []chromeEvent
}

func newTracer(origin time.Time, chrome bool) *tracer {
	return &tracer{origin: origin, chrome: chrome, direct: map[string]time.Duration{}, layer: map[string]time.Duration{}}
}

// telemetry returns a metrics-only telemetry handle reporting to the
// tracer, for flows that take a Telemetry.
func (tr *tracer) telemetry() *telemetry.Telemetry {
	tel := telemetry.New("charbench", nil)
	tel.SetRunObserver(tr)
	return tel
}

// profile wraps dut.Device.Profile; installed as ate.ATE.Profiler it is
// copied into every forked worker insertion.
func (tr *tracer) profile(dev *dut.Device, t testgen.Test) (dut.Profile, error) {
	t0 := time.Now()
	p, err := dev.Profile(t)
	t1 := time.Now()
	tr.mu.Lock()
	tr.duts = append(tr.duts, span{start: t0, end: t1})
	tr.profiles++
	tr.mu.Unlock()
	return p, err
}

// timedSource times every die a lot screen materializes.
type timedSource struct {
	dut.DieSource
	tr *tracer
}

func (s timedSource) Die(i int) *dut.Die {
	t0 := time.Now()
	d := s.DieSource.Die(i)
	s.tr.dieNanos.Add(int64(time.Since(t0)))
	return d
}

// timed charges a span the workload measured itself to a layer.
func (tr *tracer) timed(layer string, d time.Duration) {
	tr.mu.Lock()
	tr.direct[layer] += d
	tr.mu.Unlock()
}

// store records a cachestore's counters at the end of a unit.
func (tr *tracer) store(hits, misses, bytes int64) {
	tr.mu.Lock()
	tr.storeHits += hits
	tr.storeMisses += misses
	tr.storeBytes += bytes
	tr.storeUnits++
	tr.mu.Unlock()
}

// fleetStage is the parallel.FleetObserver. It runs on the goroutine that
// called the stage, so the phase open at that moment owns the stage.
func (tr *tracer) fleetStage(st parallel.StreamStats) {
	end := time.Now()
	tr.mu.Lock()
	defer tr.mu.Unlock()
	start := end.Add(-time.Duration(st.WallNanos))
	tr.stages = append(tr.stages, stageRec{phase: tr.phase, start: start, end: end, st: st})
	tr.fleetStages++
	tr.fleetTasks += int64(st.Tasks)
	tr.fleetBusy += time.Duration(st.BusyNanos)
	tr.fleetCapacity += time.Duration(st.WallNanos) * time.Duration(st.Workers)
	tr.fleetWall += time.Duration(st.WallNanos)
	tr.fleetExposed += time.Duration(st.DeliverNanos - st.OverlapNanos)
	if st.MaxRunAhead > tr.fleetRunAhead {
		tr.fleetRunAhead = st.MaxRunAhead
	}
	tr.event("stage "+stageLayer(tr.phase), "X", 0, start, end)
}

// telemetry.RunObserver, installed on the handles telemetry() returns.

func (tr *tracer) PhaseStarted(name string) {
	tr.mu.Lock()
	tr.phase, tr.phaseFrom = name, time.Now()
	tr.mu.Unlock()
}

func (tr *tracer) PhaseEnded(name string, _ telemetry.Cost) {
	end := time.Now()
	tr.mu.Lock()
	tr.phases = append(tr.phases, span{name: name, start: tr.phaseFrom, end: end})
	tr.event(name, "X", 0, tr.phaseFrom, end)
	tr.phase = ""
	tr.mu.Unlock()
}

func (tr *tracer) SearchRecorded(measurements, fullRangeBudget int, _ bool) {
	tr.mu.Lock()
	tr.searches++
	tr.searchMeas += int64(measurements)
	tr.searchBudget += int64(fullRangeBudget)
	tr.mu.Unlock()
}

func (tr *tracer) CacheLookups(hits, misses int64, _ int) {
	tr.mu.Lock()
	tr.memoHits += hits
	tr.memoMisses += misses
	tr.mu.Unlock()
}

func (tr *tracer) Generation(int, float64) {
	now := time.Now()
	tr.mu.Lock()
	tr.generations++
	tr.event("generation", "i", 0, now, now)
	tr.mu.Unlock()
}

func (tr *tracer) DiskCache(telemetry.DiskCacheStats) {}
func (tr *tracer) Item(string, int, int)              {}

// phaseLayer names the layer that owns a phase's serial time.
func phaseLayer(phase string) string {
	switch phase {
	case "table1-march", "table1-random", "learn":
		return "search.serial"
	case "propose-seeds":
		return "testgen.gen"
	case "optimize":
		return "genetic.serial"
	case "lot-screen":
		return "lot.serial"
	}
	return ""
}

// stageLayer names the layer that owns a fleet stage's task work.
func stageLayer(phase string) string {
	switch phase {
	case "learn":
		return "neural.train"
	case "propose-seeds":
		return "neural.vote"
	}
	return "fleet.task"
}

// beginUnit clears the spans of the previous unit.
func (tr *tracer) beginUnit() {
	tr.mu.Lock()
	tr.phases, tr.stages, tr.duts = tr.phases[:0], tr.stages[:0], tr.duts[:0]
	clear(tr.direct)
	tr.dieNanos.Store(0)
	tr.mu.Unlock()
}

// endUnit attributes the finished unit's blocking path to layers.
func (tr *tracer) endUnit(start, end time.Time) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.units++
	tr.unitWall += end.Sub(start)
	tr.event("unit", "X", 0, start, end)

	within := func(t time.Time, s, e time.Time) bool { return !t.Before(s) && !t.After(e) }
	dutIn := make([]time.Duration, len(tr.stages))
	dutSerial := make([]time.Duration, len(tr.phases))
	for _, d := range tr.duts {
		inStage := false
		for i, s := range tr.stages {
			if within(d.start, s.start, s.end) {
				dutIn[i] += d.dur()
				inStage = true
				break
			}
		}
		if inStage {
			continue
		}
		tr.layer["dut.exec"] += d.dur()
		for i, p := range tr.phases {
			if within(d.start, p.start, p.end) {
				dutSerial[i] += d.dur()
				break
			}
		}
	}
	stagesIn := make([]time.Duration, len(tr.phases))
	for i, s := range tr.stages {
		wall := s.end.Sub(s.start)
		util := 0.0
		if s.st.Workers > 0 && s.st.WallNanos > 0 {
			util = math.Min(1, float64(s.st.BusyNanos)/(float64(s.st.Workers)*float64(s.st.WallNanos)))
		}
		task := time.Duration(float64(wall) * util)
		dutShare := 0.0
		if s.st.BusyNanos > 0 {
			dutShare = math.Min(1, float64(dutIn[i])/float64(s.st.BusyNanos))
		}
		tr.layer["dut.exec"] += time.Duration(float64(task) * dutShare)
		tr.layer[stageLayer(s.phase)] += time.Duration(float64(task) * (1 - dutShare))
		tr.layer["fleet.overhead"] += wall - task
		for j, p := range tr.phases {
			if within(s.end, p.start, p.end) {
				stagesIn[j] += wall
				break
			}
		}
	}
	dies := time.Duration(tr.dieNanos.Load())
	for i, p := range tr.phases {
		self := p.dur() - stagesIn[i] - dutSerial[i]
		if p.name == "lot-screen" {
			self -= dies
		}
		if l := phaseLayer(p.name); l != "" {
			tr.layer[l] += self
		}
	}
	tr.layer["dut.diesource"] += dies
	for l, d := range tr.direct {
		tr.layer[l] += d
	}
}

// job records one job as its client saw it, cut at the server's wall-clock
// stamps into the Submit call (journal append and fsync), the wait in the
// queue, and the flow run (with its ledger finalization). The rest —
// noticing completion — is the job's overhead and stays unattributed.
func (tr *tracer) job(client int, start, submitted, end time.Time, startedNano, finishedNano int64) {
	began, finished := time.Unix(0, startedNano), time.Unix(0, finishedNano)
	if began.Before(submitted) { // dispatched before Submit returned
		began = submitted
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.units++
	tr.unitWall += end.Sub(start)
	tr.layer["jobs.submit"] += submitted.Sub(start)
	tr.layer["jobs.queue_wait"] += began.Sub(submitted)
	tr.layer["jobs.run"] += finished.Sub(began)
	tr.layer["jobs.overhead"] += end.Sub(finished)
	tr.event("submit", "X", client, start, submitted)
	tr.event("queue", "X", client, submitted, began)
	tr.event("run", "X", client, began, finished)
	tr.event("job", "X", client, start, end)
}

// explainedLayers are the layers whose time comes from measured spans;
// jobs.overhead is a remainder and does not count as explained.
var explainedLayers = []string{
	"dut.exec", "dut.diesource", "search.serial", "neural.train", "neural.vote",
	"testgen.gen", "genetic.serial", "fleet.task", "fleet.overhead", "lot.serial",
	"cachestore.open", "jobs.submit", "jobs.queue_wait", "jobs.run",
}

// results turns the traced units into per-layer metrics. untracedWall is
// the same units' wall time with the hooks off.
func (tr *tracer) results(untracedWall time.Duration, ledgerOverhead float64) map[string]float64 {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	wall := tr.unitWall.Seconds()
	units := float64(tr.units)
	share := func(l string) float64 { return tr.layer[l].Seconds() / wall }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	explained := 0.0
	for _, l := range explainedLayers {
		explained += share(l)
	}
	m := map[string]float64{
		"dut.exec_ratio":                  share("dut.exec"),
		"dut.profiles_per_unit":           float64(tr.profiles) / units,
		"dut.diesource_ratio":             share("dut.diesource"),
		"search.serial_ratio":             share("search.serial"),
		"search.meas_per_search":          ratio(float64(tr.searchMeas), float64(tr.searches)),
		"search.saved_ratio":              ratio(float64(tr.searchBudget-tr.searchMeas), float64(tr.searchBudget)),
		"neural.train_ratio":              share("neural.train"),
		"neural.vote_ratio":               share("neural.vote"),
		"testgen.gen_ratio":               share("testgen.gen"),
		"genetic.serial_ratio":            share("genetic.serial"),
		"genetic.generations_per_unit":    float64(tr.generations) / units,
		"memo.hit_ratio":                  ratio(float64(tr.memoHits), float64(tr.memoHits+tr.memoMisses)),
		"memo.lookups_per_unit":           float64(tr.memoHits+tr.memoMisses) / units,
		"fleet.task_ratio":                share("fleet.task"),
		"fleet.overhead_ratio":            share("fleet.overhead"),
		"fleet.stages_per_unit":           float64(tr.fleetStages) / units,
		"fleet.tasks_per_unit":            float64(tr.fleetTasks) / units,
		"fleet.idle_ratio":                ratio((tr.fleetCapacity - tr.fleetBusy).Seconds(), tr.fleetCapacity.Seconds()),
		"fleet.deliver_exposed_ratio":     ratio(tr.fleetExposed.Seconds(), tr.fleetWall.Seconds()),
		"fleet.run_ahead_max":             float64(tr.fleetRunAhead),
		"lot.serial_ratio":                share("lot.serial"),
		"cachestore.open_ratio":           share("cachestore.open"),
		"cachestore.hit_ratio":            ratio(float64(tr.storeHits), float64(tr.storeHits+tr.storeMisses)),
		"cachestore.mb_on_disk":           ratio(float64(tr.storeBytes), float64(tr.storeUnits)) / (1 << 20),
		"jobs.submit_ratio":               share("jobs.submit"),
		"jobs.queue_wait_ratio":           share("jobs.queue_wait"),
		"jobs.run_ratio":                  share("jobs.run"),
		"jobs.overhead_ratio":             share("jobs.overhead"),
		"telemetry.ledger_overhead_ratio": ledgerOverhead,
		"gc.cpu_ratio":                    ratio(tr.rt.gcCPU, tr.rt.busyCPU),
		"gc.alloc_mb_per_unit":            tr.rt.allocBytes / units / (1 << 20),
		"gc.allocs_per_unit":              tr.rt.allocObjects / units,
		"sched.latency_p99_us":            tr.rt.schedP99() * 1e6,
		"trace.unit_ms":                   wall / units * 1e3,
		"trace.explained_ratio":           explained,
		"trace.overhead_ratio":            wall/untracedWall.Seconds() - 1,
	}
	return m
}

// chromeEvent is one Chrome trace-event (the format Perfetto loads).
type chromeEvent struct {
	Name string  `json:"name"`
	Ph   string  `json:"ph"`
	Ts   float64 `json:"ts"`
	Dur  float64 `json:"dur,omitempty"`
	Pid  int     `json:"pid"`
	Tid  int     `json:"tid"`

	Args map[string]string `json:"args,omitempty"`
}

// event records a Chrome trace event (called with tr.mu held).
func (tr *tracer) event(name, ph string, tid int, start, end time.Time) {
	if !tr.chrome {
		return
	}
	tr.events = append(tr.events, chromeEvent{
		Name: name, Ph: ph, Tid: tid,
		Ts:  float64(start.Sub(tr.origin).Nanoseconds()) / 1e3,
		Dur: float64(end.Sub(start).Nanoseconds()) / 1e3,
	})
}

// Runtime metrics, read at the edges of every traced block.

var runtimeSamples = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
	"/sched/latencies:seconds",
}

func readRuntime() []metrics.Sample {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	return s
}

// runtimeTotals sums runtime-metric deltas over the traced blocks.
type runtimeTotals struct {
	allocBytes, allocObjects float64
	gcCPU, busyCPU           float64
	sched                    []uint64 // /sched/latencies bucket counts
	buckets                  []float64
}

func (rt *runtimeTotals) add(a, b []metrics.Sample) {
	f := func(i int) float64 {
		if a[i].Value.Kind() == metrics.KindUint64 {
			return float64(b[i].Value.Uint64() - a[i].Value.Uint64())
		}
		return b[i].Value.Float64() - a[i].Value.Float64()
	}
	rt.allocBytes += f(0)
	rt.allocObjects += f(1)
	rt.gcCPU += f(2)
	rt.busyCPU += f(3) - f(4)
	ha, hb := a[5].Value.Float64Histogram(), b[5].Value.Float64Histogram()
	if rt.sched == nil {
		rt.sched = make([]uint64, len(hb.Counts))
		rt.buckets = hb.Buckets
	}
	for i := range rt.sched {
		rt.sched[i] += hb.Counts[i] - ha.Counts[i]
	}
}

// schedP99 returns the 99th percentile scheduling latency in seconds,
// interpolated linearly inside its histogram bucket.
func (rt *runtimeTotals) schedP99() float64 {
	var total uint64
	for _, c := range rt.sched {
		total += c
	}
	if total == 0 {
		return 0
	}
	rank := 0.99 * float64(total)
	var seen float64
	for i, c := range rt.sched {
		if c == 0 || seen+float64(c) < rank {
			seen += float64(c)
			continue
		}
		lo, hi := rt.buckets[i], rt.buckets[i+1]
		if math.IsInf(lo, -1) {
			lo = 0
		}
		if math.IsInf(hi, 1) {
			return lo
		}
		return lo + (hi-lo)*(rank-seen)/float64(c)
	}
	return rt.buckets[len(rt.buckets)-1]
}

// traced runs one block of units with the hooks on: the fleet observer is
// installed and runtime metrics are read around it.
func (tr *tracer) traced(block func()) {
	parallel.SetFleetObserver(tr.fleetStage)
	before := readRuntime()
	block()
	after := readRuntime()
	parallel.SetFleetObserver(nil)
	tr.mu.Lock()
	tr.rt.add(before, after)
	tr.mu.Unlock()
}

// sortEvents orders events by start time for a stable trace file.
func sortEvents(evs []chromeEvent) {
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].Ts < evs[j].Ts })
}
