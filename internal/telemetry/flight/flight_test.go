package flight

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/parallel"
	"repro/internal/telemetry"
)

func TestRecorderRecordsObserverCallbacks(t *testing.T) {
	r := New(64)
	var o telemetry.RunObserver = r
	o.PhaseStarted("learn")
	o.SearchRecorded(12, 41, true)
	o.CacheLookups(3, 7, 41)
	o.Generation(2, 1.25)
	o.Item("die", 5, 10)
	o.DiskCache(telemetry.DiskCacheStats{LoadedEntries: 9, Hits: 4, Misses: 1, BytesOnDisk: 100})
	o.PhaseEnded("learn", telemetry.Cost{Measurements: 100, Vectors: 2000, SimTimeSec: 1.5})
	r.FleetStream(parallel.StreamStats{Workers: 4, Tasks: 16, MaxRunAhead: 3,
		BusyNanos: 30, WallNanos: 10, DeliverNanos: 8, OverlapNanos: 2})

	ev := r.Tail(0)
	if len(ev) != 8 {
		t.Fatalf("Tail returned %d events, want 8", len(ev))
	}
	kinds := make([]string, len(ev))
	for i, e := range ev {
		kinds[i] = e.Kind
	}
	want := []string{"phase-start", "search", "cache", "generation", "item", "disk-cache", "phase-end", "fleet"}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("event %d kind = %q, want %q (all: %v)", i, kinds[i], want[i], kinds)
		}
	}
	// Events must come back in global order.
	for i := 1; i < len(ev); i++ {
		if ev[i].Seq <= ev[i-1].Seq {
			t.Fatalf("events out of order: seq[%d]=%d <= seq[%d]=%d", i, ev[i].Seq, i-1, ev[i-1].Seq)
		}
	}
	if ev[6].Fields["measurements"] != 100 {
		t.Fatalf("phase-end measurements = %v, want 100", ev[6].Fields["measurements"])
	}
	fleet := map[string]float64{"workers": 4, "tasks": 16, "queue_depth": 3, "utilization": 0.75, "overlap_ratio": 0.25}
	for k, want := range fleet {
		if got := ev[7].Fields[k]; got != want {
			t.Errorf("fleet event %s = %v, want %v", k, got, want)
		}
	}
	if r.TotalEvents() != 8 {
		t.Fatalf("TotalEvents = %d, want 8", r.TotalEvents())
	}
	if r.LastEventUnixNano() == 0 {
		t.Fatal("LastEventUnixNano = 0 after progress events")
	}
}

func TestRecorderRingBounds(t *testing.T) {
	r := New(32)
	cap := r.Capacity()
	for i := 0; i < 10*cap; i++ {
		r.Record("item", "die", nil)
	}
	ev := r.Tail(0)
	if len(ev) != cap {
		t.Fatalf("ring retained %d events, want capacity %d", len(ev), cap)
	}
	if r.TotalEvents() != uint64(10*cap) {
		t.Fatalf("TotalEvents = %d, want %d", r.TotalEvents(), 10*cap)
	}
	// The retained tail must be the newest events.
	if ev[len(ev)-1].Seq != uint64(10*cap) {
		t.Fatalf("newest retained seq = %d, want %d", ev[len(ev)-1].Seq, 10*cap)
	}
	// Tail(max) trims from the old end.
	tail := r.Tail(5)
	if len(tail) != 5 {
		t.Fatalf("Tail(5) returned %d events", len(tail))
	}
	if tail[4].Seq != uint64(10*cap) {
		t.Fatalf("Tail(5) newest seq = %d, want %d", tail[4].Seq, 10*cap)
	}
}

func TestRecorderConcurrent(t *testing.T) {
	r := New(128)
	var wg sync.WaitGroup
	const goroutines, per = 8, 500
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				r.Record("item", "die", map[string]float64{"done": float64(i)})
				if i%100 == 0 {
					r.Tail(16)
					r.Snapshot(8)
				}
			}
		}()
	}
	wg.Wait()
	if got := r.TotalEvents(); got != goroutines*per {
		t.Fatalf("TotalEvents = %d, want %d", got, goroutines*per)
	}
	ev := r.Tail(0)
	if len(ev) != r.Capacity() {
		t.Fatalf("retained %d events, want %d", len(ev), r.Capacity())
	}
	for i := 1; i < len(ev); i++ {
		if ev[i].Seq <= ev[i-1].Seq {
			t.Fatalf("events out of order after concurrent writes")
		}
	}
}

func TestSamplerPopulatesSampleAndGauges(t *testing.T) {
	r := New(64)
	reg := telemetry.NewRegistry()
	r.ExportTo(reg)
	stop := r.StartSampler(10 * time.Millisecond)
	defer stop()

	// The first sample is synchronous, so it is already there.
	s := r.LatestSample()
	if s == nil {
		t.Fatal("no sample immediately after StartSampler")
	}
	if s.HeapBytes == 0 {
		t.Error("sample heap_bytes = 0")
	}
	if s.Goroutines <= 0 {
		t.Errorf("sample goroutines = %d, want > 0", s.Goroutines)
	}

	snap := reg.Snapshot()
	if v, ok := snap.Gauges["nd_flight_heap_bytes"]; !ok || v <= 0 {
		t.Fatalf("nd_flight_heap_bytes gauge missing or zero in snapshot: %+v", snap.Gauges)
	}

	// Sampler events are quarantined behind the nd_ naming convention and
	// must not count as run progress (the stall watchdog relies on this).
	if r.LastEventUnixNano() != 0 {
		t.Fatal("runtime-sample advanced LastEventUnixNano; stall watchdog would never fire")
	}

	// Wait for at least one ticked sample, then stop twice (idempotent).
	deadline := time.Now().Add(2 * time.Second)
	for r.TotalEvents() < 2 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if r.TotalEvents() < 2 {
		t.Fatalf("sampler recorded %d events in 2s, want >= 2", r.TotalEvents())
	}
	stop()
	stop()
}

func TestSnapshotJSONShape(t *testing.T) {
	r := New(32)
	r.PhaseStarted("learn")
	r.takeSample()
	b, err := json.Marshal(r.Snapshot(0))
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"total_events"`, `"capacity"`, `"events"`, `"runtime_sample"`, `"heap_bytes"`, `"phase-start"`} {
		if !strings.Contains(string(b), key) {
			t.Errorf("snapshot JSON missing %s: %s", key, b)
		}
	}
}

func TestNilRecorderSafe(t *testing.T) {
	var r *Recorder
	r.Record("x", "", nil)
	r.PhaseStarted("p")
	r.PhaseEnded("p", telemetry.Cost{})
	r.SearchRecorded(1, 2, true)
	r.CacheLookups(1, 2, 3)
	r.DiskCache(telemetry.DiskCacheStats{})
	r.Generation(1, 0)
	r.Item("die", 1, 2)
	r.FleetStream(parallel.StreamStats{})
	r.ExportTo(nil)
	if r.Tail(0) != nil {
		t.Error("nil Tail not nil")
	}
	if r.Capacity() != 0 || r.TotalEvents() != 0 || r.LastEventUnixNano() != 0 {
		t.Error("nil accessors not zero")
	}
	if r.LatestSample() != nil {
		t.Error("nil LatestSample not nil")
	}
	snap := r.Snapshot(10)
	if snap.Events == nil || len(snap.Events) != 0 {
		t.Error("nil Snapshot events should be empty non-nil")
	}
	stop := r.StartSampler(time.Second)
	stop()
}

func TestHistQuantileEmptyAndInf(t *testing.T) {
	if got := histQuantile(nil, 0.5); got != 0 {
		t.Fatalf("nil histogram quantile = %v, want 0", got)
	}
}
