package telemetry

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/parallel"
)

func TestReportPhaseBreakdownSumsToTotal(t *testing.T) {
	tel := New("unit", nil)
	p1 := tel.StartPhase("learn")
	p1.End(Cost{Measurements: 100, Vectors: 1000, Profiles: 10, SimTimeSec: 1})
	p2 := tel.StartPhase("optimize")
	p2.End(Cost{Measurements: 50, Vectors: 500, Profiles: 5, SimTimeSec: 0.5})

	// Totals exceed the phases: the report must reconcile via "unattributed".
	total := Cost{Measurements: 170, Vectors: 1600, Profiles: 16, SimTimeSec: 1.6}
	r := tel.Report(total)
	var got int64
	for _, p := range r.Phases {
		got += p.Measurements
	}
	if got != total.Measurements {
		t.Errorf("phase breakdown sums to %d, want %d", got, total.Measurements)
	}
	last := r.Phases[len(r.Phases)-1]
	if last.Name != "unattributed" || last.Measurements != 20 {
		t.Errorf("unattributed phase = %+v", last)
	}
	if tel.Close() != nil {
		t.Error("close failed")
	}
}

func TestReportNoUnattributedWhenExact(t *testing.T) {
	tel := New("unit", nil)
	tel.StartPhase("only").End(Cost{Measurements: 5})
	r := tel.Report(Cost{Measurements: 5})
	if len(r.Phases) != 1 {
		t.Errorf("got %d phases, want 1 (no unattributed row): %+v", len(r.Phases), r.Phases)
	}
}

func TestReportCacheAndSavings(t *testing.T) {
	tel := New("unit", nil)
	for i := 0; i < 4; i++ {
		tel.RecordSearch(5, 12, true)
	}
	tel.RecordCacheLookups(6, 4, 12)
	r := tel.Report(Cost{Measurements: 20})
	if r.CacheHits != 6 || r.CacheMisses != 4 {
		t.Errorf("cache %d/%d", r.CacheHits, r.CacheMisses)
	}
	if got := r.CacheHitRate(); got != 0.6 {
		t.Errorf("hit rate %g, want 0.6", got)
	}
	if r.Searches != 4 || r.SearchMeasurements != 20 {
		t.Errorf("searches %d cost %d", r.Searches, r.SearchMeasurements)
	}
	// Baseline: 4 performed + 6 cache-absorbed searches × 12 full-range.
	if r.BaselineMeasurements != 10*12 {
		t.Errorf("baseline = %d, want 120", r.BaselineMeasurements)
	}
	if r.MeasurementsSaved() != 100 {
		t.Errorf("saved = %d, want 100", r.MeasurementsSaved())
	}
}

func TestReportRenderAndJSON(t *testing.T) {
	tel := New("fig5", nil)
	tel.StartPhase("learn").End(Cost{Measurements: 10})
	tel.RecordSearch(10, 11, true)
	tel.RecordCacheLookups(3, 7, 11)
	tel.ObserveFleet(parallel.StreamStats{Workers: 2, Tasks: 7, TasksPerWorker: []int{3, 4}})
	r := tel.Report(Cost{Measurements: 10})

	text := r.Render()
	for _, want := range []string{"run report: fig5", "learn", "TOTAL", "hit rate 30.0%", "worker pool: 1 runs, 7 tasks"} {
		if !strings.Contains(text, want) {
			t.Errorf("text report missing %q:\n%s", want, text)
		}
	}

	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded map[string]any
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("report JSON invalid: %v\n%s", err, buf.String())
	}
	if decoded["run"] != "fig5" {
		t.Errorf("run = %v", decoded["run"])
	}
	nd, ok := decoded["non_deterministic"].(map[string]any)
	if !ok {
		t.Fatalf("missing non_deterministic section: %v", decoded)
	}
	if _, ok := nd["wall_seconds"]; !ok {
		t.Error("wall clock not confined to the non_deterministic section")
	}
	if _, ok := decoded["metrics"].(map[string]any); !ok {
		t.Error("metrics snapshot missing from report JSON")
	}
}

// The nd_fleet_* series hold the run's totals, not the last stage's: a
// wide busy stage followed by a narrow half-idle one must report the
// run's utilization and overlap, and the deeper stage's run-ahead.
func TestObserveFleetKeepsRunTotals(t *testing.T) {
	ms := int64(time.Millisecond)
	tel := New("fleet", nil)
	tel.ObserveFleet(parallel.StreamStats{Workers: 2, Tasks: 10, TasksPerWorker: []int{6, 4}, MaxRunAhead: 6,
		BusyNanos: 20 * ms, WallNanos: 10 * ms, DeliverNanos: 4 * ms, OverlapNanos: 3 * ms})
	tel.ObserveFleet(parallel.StreamStats{Workers: 1, Tasks: 3, TasksPerWorker: []int{3}, MaxRunAhead: 2,
		BusyNanos: 5 * ms, WallNanos: 10 * ms, DeliverNanos: 6 * ms, OverlapNanos: 1 * ms})

	snap := tel.Registry().Snapshot()
	wantPool := PoolStats{Runs: 2, Tasks: 13, MaxWorkers: 2, WorkerTasks: []int64{9, 4}}
	if pool := tel.Report(Cost{}).NonDeterministic.Pool; !reflect.DeepEqual(pool, wantPool) {
		t.Errorf("report pool = %+v, want %+v", pool, wantPool)
	}
	counters := map[string]int64{"nd_fleet_stages_total": 2, "nd_fleet_tasks_total": 13}
	gauges := map[string]float64{
		"nd_fleet_max_workers":   2,
		"nd_fleet_queue_depth":   6,
		"nd_fleet_utilization":   25.0 / 30.0,
		"nd_fleet_overlap_ratio": 4.0 / 10.0,
	}
	if !reflect.DeepEqual(snap.Counters, counters) {
		t.Errorf("counters = %v, want exactly %v", snap.Counters, counters)
	}
	if !reflect.DeepEqual(snap.Gauges, gauges) {
		t.Errorf("gauges = %v, want exactly %v", snap.Gauges, gauges)
	}
	if stripped := snap.StripNonDeterministic(); stripped.Counters != nil || stripped.Gauges != nil || stripped.Histograms != nil {
		t.Errorf("StripNonDeterministic kept fleet series: %+v", stripped)
	}
}

func TestNilTelemetryIsInert(t *testing.T) {
	var tel *Telemetry
	tel.StartPhase("x").End(Cost{Measurements: 1})
	tel.RecordSearch(1, 2, true)
	tel.RecordCacheLookups(1, 1, 2)
	tel.ObserveFleet(parallel.StreamStats{Workers: 4, Tasks: 4, TasksPerWorker: []int{1, 1, 1, 1}})
	tel.Registry().Counter("c").Inc()
	if tel.Report(Cost{}) != nil {
		t.Error("nil telemetry should report nil")
	}
	if tel.Close() != nil {
		t.Error("nil telemetry Close should be nil")
	}
}
