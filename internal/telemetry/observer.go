package telemetry

// Live run observation. A RunObserver receives the same logical progress
// events the tracer and registry record — phase boundaries, trip-point
// searches, cache lookups, GA generations, per-item loop progress — as they
// happen, so a live endpoint (internal/obs) can publish in-flight run state
// without polling.
//
// The determinism contract carries over unchanged: every callback fires
// from a deterministic program point (serial sections and task-order merge
// loops) with logical-counter payloads only, and an observer must not feed
// anything back into the tracer or registry. Under that contract attaching
// or detaching an observer cannot change a single trace byte — pinned by
// internal/obs's determinism tests.
type RunObserver interface {
	// PhaseStarted fires when a pipeline phase opens.
	PhaseStarted(name string)
	// PhaseEnded fires when a phase closes with its deterministic ATE cost.
	PhaseEnded(name string, cost Cost)
	// SearchRecorded fires once per performed trip-point search.
	SearchRecorded(measurements, fullRangeBudget int, converged bool)
	// CacheLookups fires with memo-cache effectiveness deltas.
	CacheLookups(hits, misses int64, fullRangeBudget int)
	// DiskCache fires when a persistent measurement store reports its
	// counters, with the run-accumulated totals across all stores.
	DiskCache(d DiskCacheStats)
	// Generation fires once per completed GA generation.
	Generation(gen int, bestWCR float64)
	// Item fires on fine-grained loop progress: done of total units of the
	// named kind ("learn-test", "table1-row", "die", "shmoo-test", …). A
	// zero total means the loop bound is unknown.
	Item(kind string, done, total int)
}

// SetRunObserver installs the live run observers, replacing any earlier
// ones; every callback reaches them in the order given. Nil interface
// values are dropped, so a call with none removes them all. Reads on the
// emission paths are a single atomic load, so an absent observer costs
// nothing measurable. Nil-safe.
func (t *Telemetry) SetRunObserver(obs ...RunObserver) {
	if t == nil {
		return
	}
	kept := make([]RunObserver, 0, len(obs))
	for _, o := range obs {
		if o != nil {
			kept = append(kept, o)
		}
	}
	t.observers.Store(&kept)
}

// runObservers returns the installed observers. Nil-safe.
func (t *Telemetry) runObservers() []RunObserver {
	if t == nil {
		return nil
	}
	if obs := t.observers.Load(); obs != nil {
		return *obs
	}
	return nil
}

// RecordGeneration accounts one completed GA generation: the live best-WCR
// gauge, the generation counter, and the observer callback. The GA's
// generation loop is serial, so calling this from its OnGeneration callback
// is a deterministic program point. Nil-safe.
func (t *Telemetry) RecordGeneration(gen int, bestWCR float64) {
	if t == nil {
		return
	}
	t.reg.Gauge("ga_best_wcr").Set(bestWCR)
	t.reg.Counter("ga_generations_total").Inc()
	for _, o := range t.runObservers() {
		o.Generation(gen, bestWCR)
	}
}

// RecordItem reports fine-grained loop progress to the live observers: done
// of total units of the named kind. It deliberately touches neither the
// registry nor the tracer — item progress exists purely for the live
// /progress feed, so enabling it cannot change metrics snapshots or trace
// bytes. Call only from deterministic program points. Nil-safe.
func (t *Telemetry) RecordItem(kind string, done, total int) {
	for _, o := range t.runObservers() {
		o.Item(kind, done, total)
	}
}

// HitRate returns hits/(hits+misses), or 0 when there were no lookups at
// all — never NaN, so zero-lookup runs render as a defined 0% rate.
func HitRate(hits, misses int64) float64 {
	total := hits + misses
	if total <= 0 {
		return 0
	}
	return float64(hits) / float64(total)
}
