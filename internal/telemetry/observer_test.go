package telemetry

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// recordingObserver logs every callback in order.
type recordingObserver struct {
	log []string
}

func (r *recordingObserver) PhaseStarted(name string) { r.log = append(r.log, "start:"+name) }
func (r *recordingObserver) PhaseEnded(name string, cost Cost) {
	r.log = append(r.log, "end:"+name)
}
func (r *recordingObserver) SearchRecorded(m, budget int, conv bool) {
	r.log = append(r.log, "search")
}
func (r *recordingObserver) CacheLookups(hits, misses int64, budget int) {
	r.log = append(r.log, "cache")
}
func (r *recordingObserver) DiskCache(d DiskCacheStats) {
	r.log = append(r.log, "disk")
}
func (r *recordingObserver) Generation(gen int, best float64) { r.log = append(r.log, "gen") }
func (r *recordingObserver) Item(kind string, done, total int) {
	r.log = append(r.log, "item:"+kind)
}

func TestRunObserverReceivesCallbacks(t *testing.T) {
	tel := New("obs", nil)
	obs := &recordingObserver{}
	tel.SetRunObserver(obs)

	ph := tel.StartPhase("learn")
	tel.RecordSearch(4, 64, true)
	tel.RecordCacheLookups(2, 1, 64)
	tel.RecordItem("learn-test", 1, 10)
	ph.End(Cost{Measurements: 4})
	tel.RecordGeneration(3, 1.25)

	want := []string{"start:learn", "search", "cache", "item:learn-test", "end:learn", "gen"}
	if !reflect.DeepEqual(obs.log, want) {
		t.Errorf("observer log = %v, want %v", obs.log, want)
	}
	if v := tel.Registry().Gauge("ga_best_wcr").Value(); v != 1.25 {
		t.Errorf("RecordGeneration gauge = %v, want 1.25", v)
	}
	if n := tel.Registry().Counter("ga_generations_total").Value(); n != 1 {
		t.Errorf("ga_generations_total = %d, want 1", n)
	}
	if r := tel.Report(Cost{Measurements: 4}); r.CacheHits != 2 || r.CacheMisses != 1 {
		t.Errorf("report cache = %d/%d, want 2/1", r.CacheHits, r.CacheMisses)
	}

	// Detaching stops delivery; nil telemetry stays inert.
	tel.SetRunObserver(nil)
	tel.RecordItem("x", 1, 1)
	if len(obs.log) != len(want) {
		t.Error("observer received events after detach")
	}
	var nilTel *Telemetry
	nilTel.SetRunObserver(obs)
	nilTel.RecordGeneration(1, 1)
	nilTel.RecordItem("x", 1, 1)
}

func TestDiskCacheAndDroppedSurface(t *testing.T) {
	tel := New("disk", nil)
	obs := &recordingObserver{}
	tel.SetRunObserver(obs)

	tel.RecordDiskCache(DiskCacheStats{LoadedEntries: 10, LoadedSegments: 2, Hits: 7, Misses: 3, FlushedEntries: 3, BytesOnDisk: 480})
	tel.RecordDiskCache(DiskCacheStats{Hits: 5, FlushedEntries: 1, BytesOnDisk: 16})

	if got := tel.Registry().Gauge("disk_cache_hits").Value(); got != 12 {
		t.Errorf("disk_cache_hits gauge = %v, want 12", got)
	}
	if got := tel.Registry().Gauge("disk_cache_bytes_on_disk").Value(); got != 496 {
		t.Errorf("disk_cache_bytes_on_disk gauge = %v, want 496", got)
	}
	if !reflect.DeepEqual(obs.log, []string{"disk", "disk"}) {
		t.Errorf("observer log = %v", obs.log)
	}

	r := tel.Report(Cost{})
	// The memo-cache is unbounded, so nothing is ever dropped; the JSON key
	// stays, at 0, because ledger records written by earlier builds carry it.
	var js bytes.Buffer
	if err := r.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(js.String(), `"cache_dropped": 0,`) {
		t.Errorf("report JSON lost the cache_dropped key:\n%s", js.String())
	}
	want := DiskCacheStats{LoadedEntries: 10, LoadedSegments: 2, Hits: 12, Misses: 3, FlushedEntries: 4, BytesOnDisk: 496}
	if r.DiskCache != want {
		t.Errorf("report DiskCache = %+v, want %+v", r.DiskCache, want)
	}
	text := r.Render()
	if !strings.Contains(text, "disk cache: 10 entries loaded (2 segments), 12 hits / 3 misses (hit rate 80.0%), 4 flushed, 496 bytes on disk") {
		t.Errorf("render missing disk cache line:\n%s", text)
	}

	// Nil telemetry stays inert.
	var nilTel *Telemetry
	nilTel.RecordDiskCache(DiskCacheStats{Hits: 1})
}

// Attaching an observer must not change trace bytes: the observer path
// never writes to the tracer.
func TestObserverDoesNotPerturbTrace(t *testing.T) {
	run := func(attach bool) []byte {
		var buf bytes.Buffer
		tel := New("run", NewTracer(&buf))
		if attach {
			tel.SetRunObserver(&recordingObserver{})
		}
		ph := tel.StartPhase("p")
		tel.RecordSearch(3, 32, true)
		tel.RecordItem("unit", 1, 2)
		ph.End(Cost{Measurements: 3})
		tel.RecordGeneration(1, 2.0)
		if err := tel.Close(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	plain, observed := run(false), run(true)
	if !bytes.Equal(plain, observed) {
		t.Errorf("trace differs with observer attached:\nplain:    %s\nobserved: %s", plain, observed)
	}
}

// TestSetRunObserverFansOut: every callback reaches each installed observer
// in the order given, nil entries are dropped, and a later call replaces
// the list.
func TestSetRunObserverFansOut(t *testing.T) {
	a, b := &recordingObserver{}, &recordingObserver{}
	tel := New("fan-out", nil)
	tel.SetRunObserver(a, nil, b)

	ph := tel.StartPhase("learn")
	tel.RecordSearch(4, 64, true)
	tel.RecordCacheLookups(2, 1, 64)
	tel.RecordDiskCache(DiskCacheStats{Hits: 1})
	tel.RecordGeneration(3, 1.25)
	tel.RecordItem("die", 1, 10)
	ph.End(Cost{Measurements: 4})

	want := []string{"start:learn", "search", "cache", "disk", "gen", "item:die", "end:learn"}
	if !reflect.DeepEqual(a.log, want) {
		t.Errorf("first observer log = %v, want %v", a.log, want)
	}
	if !reflect.DeepEqual(b.log, want) {
		t.Errorf("second observer log = %v, want %v", b.log, want)
	}

	// A second call replaces the list; one with no observer empties it.
	tel.SetRunObserver(b)
	tel.RecordItem("die", 2, 10)
	tel.SetRunObserver()
	tel.RecordItem("die", 3, 10)
	if len(a.log) != len(want) || len(b.log) != len(want)+1 {
		t.Errorf("after replacing: first log %v, second log %v", a.log, b.log)
	}
}
