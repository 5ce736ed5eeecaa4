package obs

import (
	"sync"
	"sync/atomic"

	"repro/internal/telemetry"
)

// Run states published on /progress and consulted by /readyz.
const (
	StateStarting = "starting" // server up, no pipeline phase has begun
	StateRunning  = "running"  // at least one phase started
	StateDone     = "done"     // run finished; final snapshot is frozen
)

// PhaseCost is one completed phase with its deterministic ATE cost. It
// deliberately omits the report's wall-clock seconds so the snapshot stays
// comparable across runs and worker counts.
type PhaseCost struct {
	Name string `json:"name"`
	telemetry.Cost
}

// ItemProgress is the done/total position of one fine-grained loop (Table 1
// rows, lot dies, learning tests, shmoo tests, GA items …). Total 0 means
// the loop bound was unknown.
type ItemProgress struct {
	Done  int `json:"done"`
	Total int `json:"total,omitempty"`
}

// Snapshot is the live run state published to /progress subscribers. Every
// field derives from logical counters fed at deterministic program points,
// so for a given workload the final snapshot is identical for any -parallel
// worker count (pinned by TestProgressSnapshotDeterministicAcrossParallelism).
// Scheduling-dependent data (pool utilization, uptime) is kept out and
// served separately under the endpoint's non_deterministic section.
type Snapshot struct {
	Run   string `json:"run"`
	State string `json:"state"`
	// Seq counts publishes; subscribers use it to drop stale frames.
	Seq uint64 `json:"seq"`

	// Phase is the in-flight pipeline phase ("" between phases).
	Phase string `json:"phase,omitempty"`
	// PhasesDone lists completed phases in completion order.
	PhasesDone []PhaseCost `json:"phases_done,omitempty"`
	// Items tracks fine-grained loop progress by kind.
	Items map[string]ItemProgress `json:"items,omitempty"`

	// GA progress (optimization scheme, fig. 5).
	Generation int     `json:"ga_generation"`
	BestWCR    float64 `json:"ga_best_wcr"`

	// Search economics: performed trip-point searches vs the no-SUTP
	// full-range baseline, and memo-cache effectiveness.
	Searches             int64   `json:"searches"`
	SearchMeasurements   int64   `json:"search_measurements"`
	BaselineMeasurements int64   `json:"baseline_measurements"`
	MeasurementsSaved    int64   `json:"measurements_saved"`
	CacheHits            int64   `json:"cache_hits"`
	CacheMisses          int64   `json:"cache_misses"`
	CacheHitRate         float64 `json:"cache_hit_rate"`

	// Persistent measurement-store effectiveness (the -cache-dir disk
	// cache); zero when no store is attached. The hit rate updates with
	// every store report, so an SSE subscriber sees its trajectory.
	DiskLoaded  int64   `json:"disk_cache_loaded,omitempty"`
	DiskHits    int64   `json:"disk_cache_hits,omitempty"`
	DiskMisses  int64   `json:"disk_cache_misses,omitempty"`
	DiskFlushed int64   `json:"disk_cache_flushed,omitempty"`
	DiskBytes   int64   `json:"disk_cache_bytes,omitempty"`
	DiskHitRate float64 `json:"disk_cache_hit_rate,omitempty"`

	// Fingerprint is the run's deterministic trace-byte digest
	// (telemetry.Report.Fingerprint), published once at finish — so a
	// subscriber watching two runs of the same workload can see them agree
	// without downloading either trace.
	Fingerprint string `json:"run_fingerprint,omitempty"`
}

// Progress publishes live run snapshots. Writers (the telemetry observer
// callbacks, all at deterministic serial program points) copy-on-write a
// new snapshot under a short mutex; readers are lock-free — Current is one
// atomic load — so HTTP scrapes never contend with the run's hot path.
// Progress implements telemetry.RunObserver.
type Progress struct {
	cur    atomic.Pointer[Snapshot]
	notify atomic.Pointer[chan struct{}]

	mu sync.Mutex // serializes writers
}

var _ telemetry.RunObserver = (*Progress)(nil)

// NewProgress returns a publisher whose initial snapshot is the named run
// in the "starting" state.
func NewProgress(run string) *Progress {
	p := &Progress{}
	p.cur.Store(&Snapshot{Run: run, State: StateStarting})
	ch := make(chan struct{})
	p.notify.Store(&ch)
	return p
}

// Current returns the latest snapshot (never nil). The returned value is
// shared and must not be mutated. Nil-safe.
func (p *Progress) Current() *Snapshot {
	if p == nil {
		return &Snapshot{}
	}
	return p.cur.Load()
}

// Watch returns a channel that closes on the next publish. Subscribe by
// taking the channel first and the snapshot second: a publish racing in
// between closes the already-held channel, so no update is ever missed.
func (p *Progress) Watch() <-chan struct{} {
	return *p.notify.Load()
}

// publish applies mutate to a copy of the current snapshot and swaps it in,
// waking every watcher.
func (p *Progress) publish(mutate func(*Snapshot)) {
	if p == nil {
		return
	}
	p.mu.Lock()
	next := *p.cur.Load()
	next.PhasesDone = append([]PhaseCost(nil), next.PhasesDone...)
	items := make(map[string]ItemProgress, len(next.Items)+1)
	for k, v := range next.Items {
		items[k] = v
	}
	next.Items = items
	mutate(&next)
	next.Seq++
	if len(next.Items) == 0 {
		next.Items = nil
	}
	p.cur.Store(&next)
	old := p.notify.Load()
	ch := make(chan struct{})
	p.notify.Store(&ch)
	p.mu.Unlock()
	close(*old)
}

// PhaseStarted implements telemetry.RunObserver.
func (p *Progress) PhaseStarted(name string) {
	p.publish(func(s *Snapshot) {
		s.Phase = name
		s.State = StateRunning
	})
}

// PhaseEnded implements telemetry.RunObserver.
func (p *Progress) PhaseEnded(name string, cost telemetry.Cost) {
	p.publish(func(s *Snapshot) {
		if s.Phase == name {
			s.Phase = ""
		}
		s.PhasesDone = append(s.PhasesDone, PhaseCost{Name: name, Cost: cost})
	})
}

// SearchRecorded implements telemetry.RunObserver.
func (p *Progress) SearchRecorded(measurements, fullRangeBudget int, converged bool) {
	p.publish(func(s *Snapshot) {
		s.Searches++
		s.SearchMeasurements += int64(measurements)
		s.BaselineMeasurements += int64(fullRangeBudget)
		s.recomputeDerived()
	})
}

// CacheLookups implements telemetry.RunObserver. Hits grow the baseline by
// the full-range budget each, mirroring telemetry.RecordCacheLookups.
func (p *Progress) CacheLookups(hits, misses int64, fullRangeBudget int) {
	p.publish(func(s *Snapshot) {
		s.CacheHits += hits
		s.CacheMisses += misses
		s.BaselineMeasurements += hits * int64(fullRangeBudget)
		s.recomputeDerived()
	})
}

// DiskCache implements telemetry.RunObserver: the payload carries the
// run-accumulated store totals, so the snapshot stores them absolutely.
func (p *Progress) DiskCache(d telemetry.DiskCacheStats) {
	p.publish(func(s *Snapshot) {
		s.DiskLoaded = d.LoadedEntries
		s.DiskHits = d.Hits
		s.DiskMisses = d.Misses
		s.DiskFlushed = d.FlushedEntries
		s.DiskBytes = d.BytesOnDisk
		s.DiskHitRate = telemetry.HitRate(d.Hits, d.Misses)
	})
}

// Generation implements telemetry.RunObserver.
func (p *Progress) Generation(gen int, bestWCR float64) {
	p.publish(func(s *Snapshot) {
		s.Generation = gen
		s.BestWCR = bestWCR
	})
}

// Item implements telemetry.RunObserver.
func (p *Progress) Item(kind string, done, total int) {
	p.publish(func(s *Snapshot) {
		s.Items[kind] = ItemProgress{Done: done, Total: total}
	})
}

// SetFingerprint publishes the run's deterministic trace digest (call
// before Done so the final snapshot carries it). Empty digests (tracing
// off) are a no-op. Nil-safe.
func (p *Progress) SetFingerprint(fp string) {
	if p == nil || fp == "" {
		return
	}
	p.publish(func(s *Snapshot) { s.Fingerprint = fp })
}

// Done freezes the run in its final state. Nil-safe.
func (p *Progress) Done() {
	if p == nil {
		return
	}
	p.publish(func(s *Snapshot) {
		s.Phase = ""
		s.State = StateDone
	})
}

// Ready reports run-phase-aware readiness: the service is ready once the
// pipeline has started doing work (and stays ready through completion, so
// late scrapes of a finished run succeed). Nil-safe (not ready).
func (p *Progress) Ready() bool {
	if p == nil {
		return false
	}
	return p.Current().State != StateStarting
}

// recomputeDerived refreshes the fields computed from the raw counters.
func (s *Snapshot) recomputeDerived() {
	saved := s.BaselineMeasurements - s.SearchMeasurements
	if saved < 0 {
		saved = 0
	}
	s.MeasurementsSaved = saved
	s.CacheHitRate = telemetry.HitRate(s.CacheHits, s.CacheMisses)
}
