// Package telemetry is the zero-third-party-dependency observability layer
// of the characterization system: a metrics registry (metrics.go), a
// structured JSONL event tracer (trace.go) and a run-report builder
// (report.go), bundled behind one nil-safe handle that the pipelines
// thread through their hot paths.
package telemetry

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/parallel"
)

// Telemetry bundles one run's tracer, metrics registry and report builder.
// A nil *Telemetry is fully inert: every method is nil-receiver-safe and
// free of side effects, so instrumented code carries the handle without
// enabled-checks and pays near-zero cost when observability is off.
type Telemetry struct {
	tracer *Tracer
	reg    *Registry

	// observers are the live run observers (see observer.go); loaded
	// atomically on every emission path.
	observers atomic.Pointer[[]RunObserver]

	mu      sync.Mutex
	run     *Span
	runName string
	phases  []Phase
	pool    PoolStats
	disk    DiskCacheStats
	started time.Time

	// Run sums of the fleet stages' timings, behind the nd_fleet_* ratios.
	busyNS, capacityNS, deliverNS, overlapNS int64
	runAhead                                 int
}

// New builds an enabled telemetry handle for one run. The tracer may be
// nil (metrics and report only).
func New(runName string, tracer *Tracer) *Telemetry {
	t := &Telemetry{
		tracer:  tracer,
		reg:     NewRegistry(),
		runName: runName,
		started: time.Now(),
	}
	t.run = tracer.StartSpan("run", S("run", runName))
	return t
}

// Registry returns the metrics registry. Nil-safe (returns a nil registry
// whose metrics are inert).
func (t *Telemetry) Registry() *Registry {
	if t == nil {
		return nil
	}
	return t.reg
}

// Fingerprint returns the tracer's running trace-byte digest (see
// Tracer.Fingerprint); "" when tracing is off. Nil-safe.
func (t *Telemetry) Fingerprint() string {
	if t == nil {
		return ""
	}
	return t.tracer.Fingerprint()
}

// PhaseHandle tracks one in-flight pipeline phase.
type PhaseHandle struct {
	t     *Telemetry
	span  *Span
	name  string
	start time.Time
}

// StartPhase opens a pipeline phase: a child span of the run plus a report
// row. Nil-safe.
func (t *Telemetry) StartPhase(name string) *PhaseHandle {
	if t == nil {
		return nil
	}
	for _, o := range t.runObservers() {
		o.PhaseStarted(name)
	}
	return &PhaseHandle{t: t, span: t.run.Child("phase", S("phase", name)), name: name, start: time.Now()}
}

// Span returns the phase's trace span for child events. Nil-safe.
func (p *PhaseHandle) Span() *Span {
	if p == nil {
		return nil
	}
	return p.span
}

// End closes the phase with its deterministic ATE cost. The span payload
// carries only the logical counters; wall time goes to the report row.
func (p *PhaseHandle) End(cost Cost) {
	if p == nil {
		return
	}
	p.span.End(
		S("phase", p.name),
		I("measurements", cost.Measurements),
		I("vectors", cost.Vectors),
		I("profiles", cost.Profiles),
		F("sim_time_sec", cost.SimTimeSec),
	)
	reg := p.t.Registry()
	reg.Counter("ate_measurements_total").Add(cost.Measurements)
	reg.Counter("ate_vectors_total").Add(cost.Vectors)
	reg.Counter("ate_profiles_total").Add(cost.Profiles)
	reg.Counter("phase_" + p.name + "_measurements").Add(cost.Measurements)
	p.t.mu.Lock()
	p.t.phases = append(p.t.phases, Phase{
		Name:        p.name,
		Cost:        cost,
		WallSeconds: time.Since(p.start).Seconds(),
	})
	p.t.mu.Unlock()
	for _, o := range p.t.runObservers() {
		o.PhaseEnded(p.name, cost)
	}
}

// RecordSearch accounts one performed trip-point search: its actual
// measurement cost, the estimated cost of a full-range search over the
// same options (the no-SUTP baseline), and whether it converged. Call only
// from deterministic program points.
func (t *Telemetry) RecordSearch(measurements, fullRangeBudget int, converged bool) {
	if t == nil {
		return
	}
	reg := t.reg
	reg.Counter("search_total").Inc()
	reg.Counter("search_measurements_total").Add(int64(measurements))
	reg.Counter("search_baseline_measurements_total").Add(int64(fullRangeBudget))
	if !converged {
		reg.Counter("search_nonconverged_total").Inc()
	}
	reg.Histogram("search_measurements_per_search").Observe(float64(measurements))
	for _, o := range t.runObservers() {
		o.SearchRecorded(measurements, fullRangeBudget, converged)
	}
}

// RecordCacheLookups accounts memo-cache effectiveness deltas. A hit avoids
// an entire search, so the baseline grows by the full-range budget per hit.
func (t *Telemetry) RecordCacheLookups(hits, misses int64, fullRangeBudget int) {
	if t == nil {
		return
	}
	t.reg.Counter("cache_hits_total").Add(hits)
	t.reg.Counter("cache_misses_total").Add(misses)
	t.reg.Counter("search_baseline_measurements_total").Add(hits * int64(fullRangeBudget))
	for _, o := range t.runObservers() {
		o.CacheLookups(hits, misses, fullRangeBudget)
	}
}

// RecordDiskCache merges one persistent measurement store's counters
// (typically cachestore.Stats at the end of a lot screen) into the run
// totals, mirrors them as registry gauges for the Prometheus bridge, and
// feeds the live observer the accumulated totals. Call once per store from
// a deterministic program point. Nil-safe.
func (t *Telemetry) RecordDiskCache(d DiskCacheStats) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.disk.add(d)
	total := t.disk
	t.mu.Unlock()
	reg := t.reg
	reg.Gauge("disk_cache_loaded_entries").Set(float64(total.LoadedEntries))
	reg.Gauge("disk_cache_loaded_segments").Set(float64(total.LoadedSegments))
	reg.Gauge("disk_cache_hits").Set(float64(total.Hits))
	reg.Gauge("disk_cache_misses").Set(float64(total.Misses))
	reg.Gauge("disk_cache_flushed_entries").Set(float64(total.FlushedEntries))
	reg.Gauge("disk_cache_bytes_on_disk").Set(float64(total.BytesOnDisk))
	for _, o := range t.runObservers() {
		o.DiskCache(total)
	}
}

// The series ObserveFleet keeps: run totals of the fleet stages, which the
// live /progress feed and the run ledger's attempts read back.
const (
	FleetStages      = NonDeterministicPrefix + "fleet_stages_total"
	FleetTasks       = NonDeterministicPrefix + "fleet_tasks_total"
	FleetMaxWorkers  = NonDeterministicPrefix + "fleet_max_workers"
	FleetQueueDepth  = NonDeterministicPrefix + "fleet_queue_depth"
	FleetUtilization = NonDeterministicPrefix + "fleet_utilization"
	FleetOverlap     = NonDeterministicPrefix + "fleet_overlap_ratio"
)

// ObserveFleet accounts one completed fleet stage. Its counts depend on
// goroutine scheduling, so they feed only the report's non-deterministic
// pool section and the nd_fleet_* series, which hold run totals: stages,
// tasks, the widest stage, the run-ahead high-water mark, and the run's
// worker utilization and delivery overlap. Nil-safe.
func (t *Telemetry) ObserveFleet(st parallel.StreamStats) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	p := &t.pool
	p.Runs++
	p.Tasks += int64(st.Tasks)
	p.MaxWorkers = max(p.MaxWorkers, st.Workers)
	for w, n := range st.TasksPerWorker {
		for len(p.WorkerTasks) <= w {
			p.WorkerTasks = append(p.WorkerTasks, 0)
		}
		p.WorkerTasks[w] += int64(n)
	}
	t.busyNS += st.BusyNanos
	t.capacityNS += int64(st.Workers) * st.WallNanos
	t.deliverNS += st.DeliverNanos
	t.overlapNS += st.OverlapNanos
	t.runAhead = max(t.runAhead, st.MaxRunAhead)

	reg := t.reg
	reg.Counter(FleetStages).Inc()
	reg.Counter(FleetTasks).Add(int64(st.Tasks))
	reg.Gauge(FleetMaxWorkers).Set(float64(p.MaxWorkers))
	reg.Gauge(FleetQueueDepth).Set(float64(t.runAhead))
	reg.Gauge(FleetUtilization).Set(ratio(t.busyNS, t.capacityNS))
	reg.Gauge(FleetOverlap).Set(ratio(t.overlapNS, t.deliverNS))
}

// ratio returns num/den, or 0 when den is not positive.
func ratio(num, den int64) float64 {
	if den <= 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// Report finalizes and returns the run report: registry snapshot, phase
// breakdown reconciled against the run totals, cache effectiveness and the
// no-SUTP/no-cache savings estimate. total is the whole-run ATE cost.
// Nil-safe (returns nil).
func (t *Telemetry) Report(total Cost) *Report {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	phases := append([]Phase(nil), t.phases...)
	pool := t.pool
	pool.WorkerTasks = append([]int64(nil), t.pool.WorkerTasks...)
	disk := t.disk
	wall := time.Since(t.started).Seconds()
	name := t.runName
	t.mu.Unlock()

	r := &Report{
		Run:                  name,
		Fingerprint:          t.tracer.Fingerprint(),
		Phases:               phases,
		Total:                total,
		DiskCache:            disk,
		Searches:             t.reg.Counter("search_total").Value(),
		SearchMeasurements:   t.reg.Counter("search_measurements_total").Value(),
		BaselineMeasurements: t.reg.Counter("search_baseline_measurements_total").Value(),
		Metrics:              t.reg.Snapshot(),
		NonDeterministic:     NonDet{WallSeconds: wall, Pool: pool},
	}
	// Read from the snapshot, not through Registry.Counter, which would
	// create the series in runs that never looked anything up.
	r.CacheHits = r.Metrics.Counters["cache_hits_total"]
	r.CacheMisses = r.Metrics.Counters["cache_misses_total"]
	r.finish()
	return r
}

// Close ends the root span and closes the tracer sink. Nil-safe.
func (t *Telemetry) Close() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	run := t.run
	t.run = nil
	t.mu.Unlock()
	if run != nil {
		run.End()
	}
	return t.tracer.Close()
}
