package telemetry

import (
	"bytes"
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("x")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Errorf("counter = %d, want 5", c.Value())
	}
	if r.Counter("x") != c {
		t.Error("Counter did not return the same instance")
	}
	g := r.Gauge("y")
	g.Set(2.5)
	if g.Value() != 2.5 {
		t.Errorf("gauge = %g", g.Value())
	}
}

func TestNilRegistryIsInert(t *testing.T) {
	var r *Registry
	r.Counter("a").Add(3)
	r.Gauge("b").Set(1)
	r.Histogram("c").Observe(1)
	if v := r.Counter("a").Value(); v != 0 {
		t.Errorf("nil registry counter = %d", v)
	}
	s := r.Snapshot()
	if len(s.Counters) != 0 || len(s.Gauges) != 0 || len(s.Histograms) != 0 {
		t.Errorf("nil registry snapshot not empty: %+v", s)
	}
}

func TestHistogramBucketing(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("meas", 1, 2, 4, 8)
	for _, v := range []float64{0.5, 1, 1.5, 2, 3, 7, 8, 9, 100} {
		h.Observe(v)
	}
	s := r.Snapshot().Histograms["meas"]
	if s.Count != 9 {
		t.Fatalf("count = %d, want 9", s.Count)
	}
	if want := 0.5 + 1 + 1.5 + 2 + 3 + 7 + 8 + 9 + 100; s.Sum != want {
		t.Errorf("sum = %g, want %g", s.Sum, want)
	}
	// Cumulative counts: ≤1: 0.5,1 → 2; ≤2: +1.5,2 → 4; ≤4: +3 → 5;
	// ≤8: +7,8 → 7; +Inf: +9,100 → 9.
	wantCum := []int64{2, 4, 5, 7, 9}
	if len(s.Buckets) != len(wantCum) {
		t.Fatalf("bucket count = %d, want %d", len(s.Buckets), len(wantCum))
	}
	for i, b := range s.Buckets {
		if b.Count != wantCum[i] {
			t.Errorf("bucket %d (le %g) cum count = %d, want %d", i, b.LE, b.Count, wantCum[i])
		}
	}
	if !math.IsInf(s.Buckets[len(s.Buckets)-1].LE, 1) {
		t.Error("last bucket bound is not +Inf")
	}
	if s.Buckets[len(s.Buckets)-1].Count != s.Count {
		t.Error("overflow bucket cumulative count != total count")
	}
}

func TestHistogramDefaultBounds(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("default")
	h.Observe(3)
	s := r.Snapshot().Histograms["default"]
	if len(s.Buckets) != len(DefaultMeasurementBuckets())+1 {
		t.Errorf("default bucket count = %d", len(s.Buckets))
	}
}

func TestSnapshotEncodingDeterministic(t *testing.T) {
	build := func() *Registry {
		r := NewRegistry()
		// Insert in scrambled order; JSON map-key sorting must normalize.
		r.Counter("zeta").Add(1)
		r.Counter("alpha").Add(2)
		r.Gauge("mid").Set(0.25)
		h := r.Histogram("hist", 1, 10)
		h.Observe(0.5)
		h.Observe(5)
		h.Observe(50)
		return r
	}
	var a, b bytes.Buffer
	if err := build().Snapshot().WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := build().Snapshot().WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Errorf("snapshots differ:\n%s\nvs\n%s", a.String(), b.String())
	}
	out := a.String()
	for _, want := range []string{`"alpha": 2`, `"zeta": 1`, `"mid": 0.25`, `"+Inf"`, `"count": 3`} {
		if !strings.Contains(out, want) {
			t.Errorf("snapshot JSON missing %q:\n%s", want, out)
		}
	}
	if strings.Index(out, `"alpha"`) > strings.Index(out, `"zeta"`) {
		t.Error("counter keys not sorted in snapshot JSON")
	}
}

func TestRegistryConcurrentAccess(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				r.Counter("c").Inc()
				r.Histogram("h", 1, 2).Observe(float64(j % 3))
			}
		}()
	}
	wg.Wait()
	if r.Counter("c").Value() != 800 {
		t.Errorf("concurrent counter = %d, want 800", r.Counter("c").Value())
	}
	if n := r.Snapshot().Histograms["h"].Count; n != 800 {
		t.Errorf("concurrent histogram count = %d, want 800", n)
	}
}

func TestEmptyHistogramSnapshotDefined(t *testing.T) {
	r := NewRegistry()
	r.Histogram("empty", 1, 2, 4) // created, never observed
	hs := r.Snapshot().Histograms["empty"]
	if hs.Count != 0 || hs.Sum != 0 {
		t.Fatalf("empty histogram snapshot count/sum = %d/%v, want 0/0", hs.Count, hs.Sum)
	}
	if got := len(hs.Buckets); got != 4 { // 3 finite + the +Inf overflow
		t.Fatalf("empty histogram snapshot has %d buckets, want 4", got)
	}
}

func TestHitRateZeroLookups(t *testing.T) {
	if got := HitRate(0, 0); got != 0 || math.IsNaN(got) {
		t.Errorf("HitRate(0,0) = %v, want 0", got)
	}
	if got := HitRate(3, 1); got != 0.75 {
		t.Errorf("HitRate(3,1) = %v, want 0.75", got)
	}
	rep := &Report{}
	if got := rep.CacheHitRate(); got != 0 || math.IsNaN(got) {
		t.Errorf("zero-lookup report CacheHitRate() = %v, want 0", got)
	}
}

// TestRegistrySnapshotWhileRecording pins that Snapshot is safe and
// self-consistent while writers are live: every observed counter value is a
// valid prefix of the final total, and no snapshot tears (caught by -race).
func TestRegistrySnapshotWhileRecording(t *testing.T) {
	r := NewRegistry()
	const writers, perWriter = 4, 500
	var wg sync.WaitGroup
	stop := make(chan struct{})

	// One snapshotter per writer, hammering Snapshot concurrently.
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := r.Snapshot()
				if v, ok := snap.Counters["events"]; ok {
					if v < 0 || v > writers*perWriter {
						t.Errorf("snapshot counter out of range: %d", v)
						return
					}
				}
				if g, ok := snap.Gauges["level"]; ok && (g < 0 || g >= perWriter) {
					t.Errorf("snapshot gauge out of range: %v", g)
					return
				}
				if h, ok := snap.Histograms["lat"]; ok {
					// Cumulative bucket counts must be monotone.
					prev := int64(0)
					for _, b := range h.Buckets {
						if b.Count < prev {
							t.Errorf("histogram buckets not cumulative: %+v", h.Buckets)
							return
						}
						prev = b.Count
					}
				}
			}
		}()
	}

	var writerWG sync.WaitGroup
	for i := 0; i < writers; i++ {
		writerWG.Add(1)
		go func() {
			defer writerWG.Done()
			for j := 0; j < perWriter; j++ {
				r.Counter("events").Inc()
				r.Gauge("level").Set(float64(j))
				r.Histogram("lat", 1, 5, 10).Observe(float64(j % 12))
			}
		}()
	}
	writerWG.Wait()
	close(stop)
	wg.Wait()

	final := r.Snapshot()
	if final.Counters["events"] != writers*perWriter {
		t.Errorf("final counter = %d, want %d", final.Counters["events"], writers*perWriter)
	}
	if final.Histograms["lat"].Count != writers*perWriter {
		t.Errorf("final histogram count = %d, want %d", final.Histograms["lat"].Count, writers*perWriter)
	}
}
