// Package telemetry is the zero-third-party-dependency observability layer
// of the characterization system: a metrics registry (metrics.go), a
// structured JSONL event tracer (trace.go) and a run-report builder
// (report.go), bundled behind one nil-safe handle that the pipelines
// thread through their hot paths.
package telemetry

import (
	"sync"
	"time"
)

// Telemetry bundles one run's tracer, metrics registry and report builder.
// A nil *Telemetry is fully inert: every method is nil-receiver-safe and
// free of side effects, so instrumented code carries the handle without
// enabled-checks and pays near-zero cost when observability is off.
type Telemetry struct {
	tracer *Tracer
	reg    *Registry

	// observer is the optional live run observer (see observer.go); loaded
	// atomically on every emission path.
	observer observerPtr

	mu        sync.Mutex
	run       *Span
	runName   string
	phases    []Phase
	pool      PoolStats
	cacheHits int64
	cacheMiss int64
	disk      DiskCacheStats
	started   time.Time
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

// Tracer returns the event tracer (nil when tracing is off). Nil-safe.
func (t *Telemetry) Tracer() *Tracer {
	if t == nil {
		return nil
	}
	return t.tracer
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

// Run returns the root span. Nil-safe.
func (t *Telemetry) Run() *Span {
	if t == nil {
		return nil
	}
	return t.run
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
	if o := t.runObserver(); o != nil {
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
	if o := p.t.runObserver(); o != nil {
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
	if o := t.runObserver(); o != nil {
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
	t.mu.Lock()
	t.cacheHits += hits
	t.cacheMiss += misses
	t.mu.Unlock()
	if o := t.runObserver(); o != nil {
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
	if o := t.runObserver(); o != nil {
		o.DiskCache(total)
	}
}

// ObservePool aggregates one worker-pool run's per-worker task counts —
// scheduling-dependent, so this feeds only the report's non-deterministic
// section plus "nd_"-prefixed counters.
func (t *Telemetry) ObservePool(workers int, tasksPerWorker []int) {
	if t == nil {
		return
	}
	t.reg.Counter(NonDeterministicPrefix + "pool_runs_total").Inc()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.pool.Runs++
	if workers > t.pool.MaxWorkers {
		t.pool.MaxWorkers = workers
	}
	for w, n := range tasksPerWorker {
		t.pool.Tasks += int64(n)
		for len(t.pool.WorkerTasks) <= w {
			t.pool.WorkerTasks = append(t.pool.WorkerTasks, 0)
		}
		t.pool.WorkerTasks[w] += int64(n)
	}
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
	hits, misses := t.cacheHits, t.cacheMiss
	disk := t.disk
	wall := time.Since(t.started).Seconds()
	name := t.runName
	t.mu.Unlock()

	r := &Report{
		Run:                  name,
		Fingerprint:          t.tracer.Fingerprint(),
		Phases:               phases,
		Total:                total,
		CacheHits:            hits,
		CacheMisses:          misses,
		DiskCache:            disk,
		Searches:             t.reg.Counter("search_total").Value(),
		SearchMeasurements:   t.reg.Counter("search_measurements_total").Value(),
		BaselineMeasurements: t.reg.Counter("search_baseline_measurements_total").Value(),
		Metrics:              t.reg.Snapshot(),
		NonDeterministic:     NonDet{WallSeconds: wall, Pool: pool},
	}
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
