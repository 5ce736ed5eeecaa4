package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// startTestServer brings up a real server on a free port with a live
// registry and progress publisher.
func startTestServer(t *testing.T) (*Server, *telemetry.Telemetry, *Progress) {
	t.Helper()
	tel := telemetry.New("test-run", nil)
	p := NewProgress("test-run")
	tel.SetRunObserver(p)
	srv, err := Start("127.0.0.1:0", Options{
		Run:      "test-run",
		Metrics:  tel.Registry().Snapshot,
		Progress: p,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, tel, p
}

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

func TestServerEndpoints(t *testing.T) {
	srv, tel, _ := startTestServer(t)
	base := "http://" + srv.Addr()

	// Liveness is immediate; readiness waits for the first phase.
	if code, body := get(t, base+"/healthz"); code != 200 || !strings.Contains(body, `"status": "ok"`) {
		t.Errorf("/healthz = %d %q", code, body)
	}
	if code, _ := get(t, base+"/readyz"); code != http.StatusServiceUnavailable {
		t.Errorf("/readyz before run start = %d, want 503", code)
	}

	// Drive some run activity through the telemetry hooks.
	ph := tel.StartPhase("learn")
	tel.RecordSearch(4, 64, true)
	tel.RecordCacheLookups(2, 1, 64)
	tel.RecordItem("learn-test", 1, 10)
	ph.End(telemetry.Cost{Measurements: 4})
	tel.RecordGeneration(1, 1.2)

	if code, _ := get(t, base+"/readyz"); code != 200 {
		t.Errorf("/readyz during run = %d, want 200", code)
	}

	code, body := get(t, base+"/metrics")
	if code != 200 {
		t.Fatalf("/metrics = %d", code)
	}
	for _, want := range []string{
		`repro_search_total{run="test-run"} 1`,
		`repro_cache_hits_total{run="test-run"} 2`,
		`repro_ga_generations_total{run="test-run"} 1`,
		`repro_search_measurements_per_search_bucket{run="test-run",le="4"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q in:\n%s", want, body)
		}
	}

	code, body = get(t, base+"/progress")
	if code != 200 {
		t.Fatalf("/progress = %d", code)
	}
	var payload struct {
		Snapshot
		NonDeterministic map[string]any `json:"non_deterministic"`
	}
	if err := json.Unmarshal([]byte(body), &payload); err != nil {
		t.Fatalf("/progress not JSON: %v\n%s", err, body)
	}
	if payload.State != StateRunning || payload.Searches != 1 || payload.CacheHits != 2 {
		t.Errorf("/progress payload = %+v", payload.Snapshot)
	}
	if payload.Generation != 1 || payload.BestWCR != 1.2 {
		t.Errorf("/progress GA fields = %d/%v", payload.Generation, payload.BestWCR)
	}
	if _, ok := payload.NonDeterministic["uptime_seconds"]; !ok {
		t.Error("/progress missing non_deterministic.uptime_seconds")
	}

	// pprof index answers.
	if code, body := get(t, base+"/debug/pprof/"); code != 200 || !strings.Contains(body, "goroutine") {
		t.Errorf("/debug/pprof/ = %d", code)
	}
	// Index page links the endpoints; unknown paths 404.
	if code, body := get(t, base+"/"); code != 200 || !strings.Contains(body, "/metrics") {
		t.Errorf("/ = %d %q", code, body)
	}
	if code, _ := get(t, base+"/nope"); code != http.StatusNotFound {
		t.Errorf("/nope = %d, want 404", code)
	}
}

// /progress's fleet fields are a view of the nd_fleet_* series the Metrics
// func serves, in the JSON payload and in an SSE frame alike; without a
// Metrics func they read zero.
func TestProgressNDReadsFleetSeries(t *testing.T) {
	series := telemetry.Snapshot{
		Counters: map[string]int64{"nd_fleet_stages_total": 4, "nd_fleet_tasks_total": 96},
		Gauges: map[string]float64{"nd_fleet_max_workers": 2, "nd_fleet_queue_depth": 7,
			"nd_fleet_utilization": 0.75, "nd_fleet_overlap_ratio": 0.5},
	}
	want := map[string]float64{"pool_runs": 4, "pool_tasks": 96, "pool_max_workers": 2,
		"fleet_queue_depth": 7, "fleet_utilization": 0.75, "fleet_overlap_ratio": 0.5}
	p := NewProgress("nd")
	p.Done() // an SSE stream of a finished run sends one frame and ends
	nd := func(metrics func() telemetry.Snapshot, sse bool) map[string]any {
		t.Helper()
		s := &Server{opts: Options{Run: "nd", Metrics: metrics, Progress: p}, started: time.Now()}
		target := "/progress"
		if sse {
			target += "?sse=1"
		}
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", target, nil))
		body := rec.Body.String()
		if sse {
			_, data, ok := strings.Cut(body, "data: ")
			if !ok {
				t.Fatalf("no SSE frame in %q", body)
			}
			body, _, _ = strings.Cut(data, "\n")
		}
		var payload struct {
			NonDeterministic map[string]any `json:"non_deterministic"`
		}
		if err := json.Unmarshal([]byte(body), &payload); err != nil {
			t.Fatalf("sse=%v: /progress not JSON: %v\n%s", sse, err, body)
		}
		return payload.NonDeterministic
	}
	for _, sse := range []bool{false, true} {
		got := nd(func() telemetry.Snapshot { return series }, sse)
		for k, v := range want {
			if got[k] != v {
				t.Errorf("sse=%v: %s = %v, want %v", sse, k, got[k], v)
			}
		}
		for _, k := range []string{"fleet_streams", "fleet_tasks"} {
			if _, ok := got[k]; ok {
				t.Errorf("sse=%v: retired key %s present", sse, k)
			}
		}
		zero := nd(nil, sse)
		for k := range want {
			// The pool keys are always present; the fleet keys are omitted at zero.
			if v, ok := zero[k]; (ok || strings.HasPrefix(k, "pool_")) && v != 0.0 {
				t.Errorf("sse=%v without Metrics: %s = %v, want 0", sse, k, v)
			}
		}
	}
}

func TestServerProgressSSE(t *testing.T) {
	srv, tel, p := startTestServer(t)

	req, err := http.NewRequest("GET", "http://"+srv.Addr()+"/progress", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "text/event-stream")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("SSE content type = %q", ct)
	}

	frames := make(chan sseFrame, 16)
	errc := make(chan error, 1)
	go func() {
		defer close(frames)
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			line := sc.Text()
			if !strings.HasPrefix(line, "data: ") {
				continue
			}
			var f sseFrame
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &f); err != nil {
				errc <- fmt.Errorf("bad SSE frame %q: %w", line, err)
				return
			}
			frames <- f
		}
	}()

	// First frame arrives immediately with the starting state.
	first := waitFrame(t, frames, errc)
	if first.State != StateStarting {
		t.Errorf("first SSE frame state = %q", first.State)
	}

	ph := tel.StartPhase("optimize")
	running := waitFrame(t, frames, errc)
	for running.Phase != "optimize" && running.State != StateDone {
		running = waitFrame(t, frames, errc)
	}
	if running.State != StateRunning {
		t.Errorf("running frame = %+v", running.Snapshot)
	}

	ph.End(telemetry.Cost{})
	p.Done()
	// The stream replays up to the done state and then terminates.
	var last sseFrame
	for f := range frames {
		last = f
		if last.State == StateDone {
			break
		}
	}
	if last.State != StateDone {
		t.Errorf("stream ended before done state: %+v", last.Snapshot)
	}
}

// sseFrame is one decoded /progress SSE event.
type sseFrame struct {
	Snapshot
}

func waitFrame(t *testing.T, frames chan sseFrame, errc chan error) sseFrame {
	t.Helper()
	select {
	case f, ok := <-frames:
		if !ok {
			t.Fatal("SSE stream closed early")
		}
		return f
	case err := <-errc:
		t.Fatal(err)
	case <-time.After(5 * time.Second):
		t.Fatal("timed out waiting for SSE frame")
	}
	panic("unreachable")
}
