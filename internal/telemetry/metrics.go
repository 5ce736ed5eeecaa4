package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Metrics registry: named counters, gauges and histograms covering the
// quantities the paper's cost argument is about — ATE measurements, vector
// cycles, simulated test time, SUTP iterations-to-trip, cache hits/misses,
// GA generation fitness, NN epoch error, per-worker task counts.
//
// Counters and gauges are safe to update from racing workers (the final
// totals are order-independent); histogram observations take a mutex, so
// feed them from deterministic program points when snapshot determinism
// matters. Metrics whose values depend on goroutine scheduling (per-worker
// task counts, anything wall-clock-derived) must use the "nd_" name prefix
// so report consumers can separate them from the deterministic set.

// NonDeterministicPrefix marks metrics whose values may differ between runs
// with different worker counts or machine load.
const NonDeterministicPrefix = "nd_"

// Counter is a monotonically increasing integer metric.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter. Nil-safe.
func (c *Counter) Add(delta int64) {
	if c != nil {
		c.v.Add(delta)
	}
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count. Nil-safe.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a last-value float metric.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores the value. Nil-safe.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Value returns the last stored value. Nil-safe.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram accumulates observations into fixed cumulative-style buckets:
// bucket i counts observations ≤ Bounds[i], with an implicit +Inf bucket at
// the end catching the rest.
type Histogram struct {
	mu     sync.Mutex
	bounds []float64
	counts []int64 // len(bounds)+1; last is the +Inf overflow
	sum    float64
	n      int64
}

// DefaultMeasurementBuckets suit per-search ATE measurement counts: SUTP
// follow-ups land in the first buckets, full-range searches in the last.
func DefaultMeasurementBuckets() []float64 { return []float64{1, 2, 4, 8, 16, 32, 64, 128} }

// DefaultErrorBuckets suit NN epoch errors (MSE) and similar small floats.
func DefaultErrorBuckets() []float64 {
	return []float64{1e-5, 1e-4, 1e-3, 5e-3, 1e-2, 5e-2, 1e-1, 1}
}

// Observe records one observation. Nil-safe.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	i := sort.SearchFloat64s(h.bounds, v) // first bound ≥ v → bucket "≤ bound"
	h.counts[i]++
	h.sum += v
	h.n++
}

// Registry is a named-metric store. A nil *Registry hands out nil metrics,
// whose methods are all no-ops — instrumented code needs no enabled-checks.
type Registry struct {
	mu     sync.Mutex
	counts map[string]*Counter
	gauges map[string]*Gauge
	hists  map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counts: make(map[string]*Counter),
		gauges: make(map[string]*Gauge),
		hists:  make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use. Nil-safe.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counts[name]
	if !ok {
		c = &Counter{}
		r.counts[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use. Nil-safe.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given bucket
// upper bounds on first use (later calls ignore the bounds). Bounds must be
// sorted ascending; empty bounds take DefaultMeasurementBuckets. Nil-safe.
func (r *Registry) Histogram(name string, bounds ...float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		if len(bounds) == 0 {
			bounds = DefaultMeasurementBuckets()
		}
		bs := append([]float64(nil), bounds...)
		h = &Histogram{bounds: bs, counts: make([]int64, len(bs)+1)}
		r.hists[name] = h
	}
	return h
}

// HistogramBucket is one snapshot bucket: Count observations ≤ LE.
type HistogramBucket struct {
	LE    float64 `json:"le"`
	Count int64   `json:"count"`
}

// HistogramSnapshot is the frozen state of one histogram.
type HistogramSnapshot struct {
	Buckets []HistogramBucket `json:"buckets"`
	Count   int64             `json:"count"`
	Sum     float64           `json:"sum"`
}

// Snapshot is a frozen, JSON-encodable view of the registry. Map keys
// encode in sorted order (encoding/json), so equal registries produce
// byte-identical snapshots.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters,omitempty"`
	Gauges     map[string]float64           `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Snapshot freezes the registry. Nil-safe: a nil registry snapshots empty.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{}
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.counts) > 0 {
		s.Counters = make(map[string]int64, len(r.counts))
		for name, c := range r.counts {
			s.Counters[name] = c.Value()
		}
	}
	if len(r.gauges) > 0 {
		s.Gauges = make(map[string]float64, len(r.gauges))
		for name, g := range r.gauges {
			s.Gauges[name] = g.Value()
		}
	}
	if len(r.hists) > 0 {
		s.Histograms = make(map[string]HistogramSnapshot, len(r.hists))
		for name, h := range r.hists {
			h.mu.Lock()
			hs := HistogramSnapshot{Count: h.n, Sum: h.sum}
			cum := int64(0)
			for i, b := range h.bounds {
				cum += h.counts[i]
				hs.Buckets = append(hs.Buckets, HistogramBucket{LE: b, Count: cum})
			}
			cum += h.counts[len(h.bounds)]
			hs.Buckets = append(hs.Buckets, HistogramBucket{LE: math.Inf(1), Count: cum})
			h.mu.Unlock()
			s.Histograms[name] = hs
		}
	}
	return s
}

// StripNonDeterministic returns a copy of the snapshot without the
// NonDeterministicPrefix-named metrics, the view stored in artifacts that
// must be byte-identical across executions (run-ledger records). Maps the
// strip leaves empty become nil, matching a registry that never saw them.
func (s Snapshot) StripNonDeterministic() Snapshot {
	var out Snapshot
	out.copyFrom(s, func(name string) (string, bool) {
		return name, !strings.HasPrefix(name, NonDeterministicPrefix)
	})
	return out
}

// Prefixed returns a copy of the snapshot with every metric name prefixed.
// Multi-tenant hosts (the job service) use it to namespace each tenant's
// registry — "job_j000001_" + "ate_measurements_total" — before merging the
// tenants into one exposition. An nd_ prefix stays recognizable because the
// namespace goes in front of it only after the host has decided what to
// publish; StripNonDeterministic therefore runs before Prefixed when both
// are wanted.
func (s Snapshot) Prefixed(prefix string) Snapshot {
	if prefix == "" {
		return s
	}
	var out Snapshot
	out.copyFrom(s, func(name string) (string, bool) { return prefix + name, true })
	return out
}

// MergeSnapshots combines snapshots into one: names are unioned, and on a
// collision the later snapshot wins (callers namespace with Prefixed first
// when tenants may share names). The inputs are not modified.
func MergeSnapshots(snaps ...Snapshot) Snapshot {
	var out Snapshot
	for _, s := range snaps {
		out.copyFrom(s, func(name string) (string, bool) { return name, true })
	}
	return out
}

// copyFrom copies every metric of src that rename keeps into s, under the
// name rename gives it. A map of s is made on its first kept metric, so a
// family with none stays nil.
func (s *Snapshot) copyFrom(src Snapshot, rename func(string) (string, bool)) {
	copyMetrics(&s.Counters, src.Counters, rename)
	copyMetrics(&s.Gauges, src.Gauges, rename)
	copyMetrics(&s.Histograms, src.Histograms, rename)
}

func copyMetrics[V any](dst *map[string]V, src map[string]V, rename func(string) (string, bool)) {
	for name, v := range src {
		if name, ok := rename(name); ok {
			if *dst == nil {
				*dst = make(map[string]V, len(src))
			}
			(*dst)[name] = v
		}
	}
}

// WriteJSON writes the snapshot as indented JSON, with the +Inf histogram
// bound as the string "+Inf". Other non-finite values are not clamped: a
// NaN or infinite gauge fails the encode, and nothing is written.
func (s Snapshot) WriteJSON(w io.Writer) error {
	enc := encodable(s)
	out, err := json.MarshalIndent(enc, "", "  ")
	if err != nil {
		return fmt.Errorf("telemetry: encoding snapshot: %w", err)
	}
	out = append(out, '\n')
	_, err = w.Write(out)
	return err
}

// jsonSnapshot mirrors Snapshot with the +Inf bucket bound replaced by a
// string so the document is valid JSON.
type jsonSnapshot struct {
	Counters   map[string]int64                 `json:"counters,omitempty"`
	Gauges     map[string]float64               `json:"gauges,omitempty"`
	Histograms map[string]jsonHistogramSnapshot `json:"histograms,omitempty"`
}

type jsonHistogramSnapshot struct {
	Buckets []jsonBucket `json:"buckets"`
	Count   int64        `json:"count"`
	Sum     float64      `json:"sum"`
}

type jsonBucket struct {
	LE    any   `json:"le"` // float64, or "+Inf" for the overflow bucket
	Count int64 `json:"count"`
}

func encodable(s Snapshot) jsonSnapshot {
	out := jsonSnapshot{Counters: s.Counters, Gauges: s.Gauges}
	if len(s.Histograms) > 0 {
		out.Histograms = make(map[string]jsonHistogramSnapshot, len(s.Histograms))
		for name, hs := range s.Histograms {
			jh := jsonHistogramSnapshot{Count: hs.Count, Sum: hs.Sum}
			for _, b := range hs.Buckets {
				le := any(b.LE)
				if math.IsInf(b.LE, 1) {
					le = "+Inf"
				}
				jh.Buckets = append(jh.Buckets, jsonBucket{LE: le, Count: b.Count})
			}
			out.Histograms[name] = jh
		}
	}
	return out
}
