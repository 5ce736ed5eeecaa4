package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// Run report: the end-of-run summary a characterization service would page
// through — per-phase cost breakdown, cache effectiveness, measurements
// saved versus a no-SUTP/no-cache baseline, and the wall/simulated-time
// split. Everything except the NonDeterministic section is derived from
// logical counters and is identical across `-parallel` worker counts.

// Cost is the deterministic ATE cost of a phase (a telemetry-local mirror
// of ate.Stats, kept dependency-free).
type Cost struct {
	Measurements int64   `json:"measurements"`
	Vectors      int64   `json:"vectors"`
	Profiles     int64   `json:"profiles"`
	SimTimeSec   float64 `json:"sim_time_sec"`
}

// Add accumulates other into c.
func (c *Cost) Add(other Cost) {
	c.Measurements += other.Measurements
	c.Vectors += other.Vectors
	c.Profiles += other.Profiles
	c.SimTimeSec += other.SimTimeSec
}

// DiskCacheStats mirrors the persistent measurement store's counters
// (internal/cachestore) without the dependency: entries recovered at open,
// lookup effectiveness, entries flushed and the bytes the store keeps on
// disk. All values are logical counters — deterministic for a given
// workload and cache state.
type DiskCacheStats struct {
	LoadedEntries  int64 `json:"loaded_entries"`
	LoadedSegments int64 `json:"loaded_segments"`
	Hits           int64 `json:"hits"`
	Misses         int64 `json:"misses"`
	FlushedEntries int64 `json:"flushed_entries"`
	BytesOnDisk    int64 `json:"bytes_on_disk"`
}

// add accumulates other into d.
func (d *DiskCacheStats) add(other DiskCacheStats) {
	d.LoadedEntries += other.LoadedEntries
	d.LoadedSegments += other.LoadedSegments
	d.Hits += other.Hits
	d.Misses += other.Misses
	d.FlushedEntries += other.FlushedEntries
	d.BytesOnDisk += other.BytesOnDisk
}

// active reports whether the store saw any traffic at all.
func (d DiskCacheStats) active() bool {
	return d != DiskCacheStats{}
}

// Phase is one pipeline stage of the run (learn, propose-seeds, optimize,
// table1 rows, lot screen, …).
type Phase struct {
	Name string `json:"name"`
	Cost
	// WallSeconds is scheduling- and machine-dependent; it never appears
	// in traces and is excluded from determinism comparisons.
	WallSeconds float64 `json:"wall_seconds_nondeterministic"`
}

// PoolStats aggregates worker-pool execution. Per-worker task counts
// depend on goroutine scheduling — non-deterministic by nature.
type PoolStats struct {
	Runs        int64   `json:"runs"`
	Tasks       int64   `json:"tasks"`
	MaxWorkers  int     `json:"max_workers"`
	WorkerTasks []int64 `json:"worker_tasks,omitempty"`
}

// NonDet collects every field whose value may differ between identical
// runs: wall-clock timing and scheduling-dependent pool utilization.
type NonDet struct {
	WallSeconds float64   `json:"wall_seconds"`
	Pool        PoolStats `json:"pool"`
}

// Report is the rendered end-of-run summary.
type Report struct {
	Run string `json:"run"`
	// Fingerprint is the FNV-1a 64 digest of the trace bytes emitted so far
	// ("fnv1a:%016x"); when the report is built after the trace closed it
	// covers the whole trace file, so two runs of the same workload carry
	// the same fingerprint at any -parallel. Empty when tracing is off.
	Fingerprint string  `json:"trace_fingerprint,omitempty"`
	Phases      []Phase `json:"phases"`
	// Total is the whole-run ATE cost; the phase breakdown plus the
	// "unattributed" phase sums to it exactly.
	Total Cost `json:"total"`

	// Cache effectiveness of the GA fitness memo-cache. CacheDropped is
	// always 0, as the cache is unbounded. The key stays because the report
	// bytes are part of every ledger record and runstore.Put byte-compares
	// a same-ID record: without it, a re-run into a ledger written by an
	// earlier build fails as a corrupt store.
	CacheHits    int64 `json:"cache_hits"`
	CacheMisses  int64 `json:"cache_misses"`
	CacheDropped int64 `json:"cache_dropped"`

	// DiskCache aggregates the persistent measurement stores the run
	// used (zero when no -cache-dir was given).
	DiskCache DiskCacheStats `json:"disk_cache"`

	// Searches counts trip-point searches actually performed;
	// SearchMeasurements is what they cost. BaselineMeasurements estimates
	// the cost had every search — including the ones the memo-cache
	// absorbed — run a full-range uncached search (the no-SUTP/no-cache
	// tester a naive flow would be).
	Searches             int64 `json:"searches"`
	SearchMeasurements   int64 `json:"search_measurements"`
	BaselineMeasurements int64 `json:"baseline_measurements"`

	// Metrics is the registry snapshot at report time.
	Metrics Snapshot `json:"metrics"`

	NonDeterministic NonDet `json:"non_deterministic"`
}

// CacheHitRate returns hits/(hits+misses), or 0 before any lookup.
func (r *Report) CacheHitRate() float64 {
	return HitRate(r.CacheHits, r.CacheMisses)
}

// MeasurementsSaved returns the estimated measurements the SUTP reference
// anchoring and the memo-cache together avoided versus the baseline.
func (r *Report) MeasurementsSaved() int64 {
	saved := r.BaselineMeasurements - r.SearchMeasurements
	if saved < 0 {
		return 0
	}
	return saved
}

// finish reconciles the breakdown against the run totals: any cost not
// covered by an explicit phase lands in a trailing "unattributed" phase, so
// the breakdown always sums to Total exactly.
func (r *Report) finish() {
	var covered Cost
	for _, p := range r.Phases {
		covered.Add(p.Cost)
	}
	rest := Cost{
		Measurements: r.Total.Measurements - covered.Measurements,
		Vectors:      r.Total.Vectors - covered.Vectors,
		Profiles:     r.Total.Profiles - covered.Profiles,
		SimTimeSec:   r.Total.SimTimeSec - covered.SimTimeSec,
	}
	if rest.Measurements != 0 || rest.Vectors != 0 || rest.Profiles != 0 {
		r.Phases = append(r.Phases, Phase{Name: "unattributed", Cost: rest})
	}
}

// Render formats the human-readable report.
func (r *Report) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "=== run report: %s ===\n", r.Run)
	fmt.Fprintf(&b, "%-16s %13s %13s %9s %12s %10s\n",
		"phase", "measurements", "vectors", "profiles", "sim time (s)", "wall (s)")
	for _, p := range r.Phases {
		fmt.Fprintf(&b, "%-16s %13d %13d %9d %12.3f %10.3f\n",
			p.Name, p.Measurements, p.Vectors, p.Profiles, p.SimTimeSec, p.WallSeconds)
	}
	fmt.Fprintf(&b, "%-16s %13d %13d %9d %12.3f %10.3f\n",
		"TOTAL", r.Total.Measurements, r.Total.Vectors, r.Total.Profiles,
		r.Total.SimTimeSec, r.NonDeterministic.WallSeconds)
	if r.CacheHits+r.CacheMisses > 0 {
		fmt.Fprintf(&b, "measurement cache: %d hits / %d misses (hit rate %.1f%%)\n",
			r.CacheHits, r.CacheMisses, 100*r.CacheHitRate())
	}
	if d := r.DiskCache; d.active() {
		fmt.Fprintf(&b, "disk cache: %d entries loaded (%d segments), %d hits / %d misses (hit rate %.1f%%), %d flushed, %d bytes on disk\n",
			d.LoadedEntries, d.LoadedSegments, d.Hits, d.Misses,
			100*HitRate(d.Hits, d.Misses), d.FlushedEntries, d.BytesOnDisk)
	}
	if r.BaselineMeasurements > 0 {
		fmt.Fprintf(&b, "searches: %d performed, %d measurements; no-SUTP/no-cache baseline %d → saved %d (%.1f%%)\n",
			r.Searches, r.SearchMeasurements, r.BaselineMeasurements, r.MeasurementsSaved(),
			100*float64(r.MeasurementsSaved())/float64(r.BaselineMeasurements))
	}
	if p := r.NonDeterministic.Pool; p.Runs > 0 {
		fmt.Fprintf(&b, "worker pool: %d runs, %d tasks, up to %d workers; per-worker tasks %v (non-deterministic)\n",
			p.Runs, p.Tasks, p.MaxWorkers, p.WorkerTasks)
	}
	if r.Fingerprint != "" {
		fmt.Fprintf(&b, "trace fingerprint: %s\n", r.Fingerprint)
	}
	return b.String()
}

// WriteJSON writes the report as indented JSON.
func (r *Report) WriteJSON(w io.Writer) error {
	type alias Report // avoid recursing into a custom marshaller later
	a := alias(*r)
	a.Metrics = Snapshot{} // re-encoded below with +Inf handling
	raw, err := json.MarshalIndent(struct {
		alias
		Metrics jsonSnapshot `json:"metrics"`
	}{alias: a, Metrics: encodable(r.Metrics)}, "", "  ")
	if err != nil {
		return fmt.Errorf("telemetry: encoding report: %w", err)
	}
	raw = append(raw, '\n')
	_, err = w.Write(raw)
	return err
}

// WriteDeterministicJSON writes the report as WriteJSON does with every
// non-deterministic field zeroed: the wall-clock seconds per phase and in
// total, the pool occupancy and the nd_-prefixed metrics. Two identical
// runs at any -parallel therefore write the same bytes, which the run
// ledger stores.
func (r *Report) WriteDeterministicJSON(w io.Writer) error {
	det := *r
	det.NonDeterministic = NonDet{}
	det.Phases = make([]Phase, len(r.Phases))
	for i, p := range r.Phases {
		p.WallSeconds = 0
		det.Phases[i] = p
	}
	det.Metrics = r.Metrics.StripNonDeterministic()
	return det.WriteJSON(w)
}
