package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"

	"repro/internal/runstore"
	"repro/internal/telemetry"
	"repro/internal/telemetry/flight"
)

// Options configures an admin server.
type Options struct {
	// Run names the run in /healthz and the "run" metric label.
	Run string
	// Metrics supplies the registry snapshot behind /metrics and the fleet
	// fields of /progress's non_deterministic section (typically
	// tel.Registry().Snapshot). Nil serves an empty exposition and zeros.
	Metrics func() telemetry.Snapshot
	// Progress feeds /progress and /readyz. Nil disables both with 404 /
	// not-ready responses.
	Progress *Progress
	// Flight feeds /debug/flight with the recorder's event tail and latest
	// runtime sample. Nil serves a 404 JSON error there.
	Flight *flight.Recorder
	// Ledger serves the cross-run observatory — /runs, /runs/<id> and
	// /runs/diff — from this run store. Nil serves 404 JSON errors there.
	Ledger *runstore.Store
	// RunInfo supplies the label set of the repro_run_info info-pattern
	// gauge appended to /metrics (flow, seed, run_fingerprint).
	// Called per scrape so live values (the fingerprint) stay current. Nil
	// omits the gauge.
	RunInfo func() map[string]string
	// Jobs mounts a job-service handler (internal/jobs) under /jobs and
	// /jobs/ on the admin mux, so the service API, the run observatory and
	// the metrics exposition share one listener. Nil leaves /jobs unmounted
	// (404). obs deliberately takes an opaque handler — the jobs package
	// imports obs for Progress, not the other way around.
	Jobs http.Handler
	// Heartbeat is the interval between SSE comment frames on idle
	// /progress streams, keeping proxies from reaping quiet connections and
	// letting the server notice dead clients. Zero takes DefaultHeartbeat;
	// negative disables heartbeats.
	Heartbeat time.Duration
}

// DefaultHeartbeat is the idle-stream SSE comment interval.
const DefaultHeartbeat = 15 * time.Second

// Server is the embeddable observability endpoint of one run: /metrics in
// Prometheus text format, /healthz + run-phase-aware /readyz, net/http/pprof
// under /debug/pprof/, and /progress as a JSON snapshot or an SSE stream.
// All handlers are read-only against atomically published state, so serving
// never perturbs the run (trace bytes stay bit-identical with the server on
// or off).
type Server struct {
	opts    Options
	ln      net.Listener
	srv     *http.Server
	started time.Time
}

// Start listens on addr (host:port; port 0 picks a free port — read the
// resolved address back with Addr) and serves the admin endpoints until
// Close.
func Start(addr string, opts Options) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: listening on %s: %w", addr, err)
	}
	s := &Server{opts: opts, ln: ln, started: time.Now()}
	s.srv = &http.Server{Handler: s.Handler()}
	go s.srv.Serve(ln) //nolint:errcheck // Serve returns ErrServerClosed on Close
	return s, nil
}

// Addr returns the resolved listen address (useful with port 0).
func (s *Server) Addr() string {
	if s == nil || s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Close shuts the server down, waiting briefly for in-flight scrapes and
// unblocking any SSE subscribers. Nil-safe.
func (s *Server) Close() error {
	if s == nil || s.srv == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := s.srv.Shutdown(ctx); err != nil {
		return s.srv.Close()
	}
	return nil
}

// Handler returns the admin mux (exported so tests and embedders can mount
// it without a listener).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/", s.handleIndex)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/readyz", s.handleReadyz)
	mux.HandleFunc("/progress", s.handleProgress)
	mux.HandleFunc("/runs", s.handleRuns)
	mux.HandleFunc("/runs/", s.handleRunsSub)
	if s.opts.Jobs != nil {
		mux.Handle("/jobs", s.opts.Jobs)
		mux.Handle("/jobs/", s.opts.Jobs)
	}
	mux.HandleFunc("/debug/flight", s.handleFlight)
	// net/http/pprof registers on DefaultServeMux as an import side effect;
	// mounting the handlers explicitly keeps this mux self-contained.
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	fmt.Fprintf(w, `<html><head><title>repro obs: %s</title></head><body>
<h1>repro observability — run %q</h1>
<ul>
<li><a href="/metrics">/metrics</a> — Prometheus exposition</li>
<li><a href="/healthz">/healthz</a> — liveness</li>
<li><a href="/readyz">/readyz</a> — run-phase-aware readiness</li>
<li><a href="/progress">/progress</a> — live run snapshot (add <code>Accept: text/event-stream</code> or <code>?sse=1</code> to stream)</li>
<li><a href="/runs">/runs</a> — run-ledger listing (<code>?flow=&amp;seed=&amp;limit=&amp;offset=</code>); <code>/runs/&lt;id&gt;</code> inspects, <code>/runs/diff?a=&amp;b=</code> compares</li>
<li><a href="/jobs">/jobs</a> — job service (when mounted): <code>POST /jobs</code> submits, <code>/jobs/&lt;id&gt;</code> inspects, <code>/jobs/&lt;id&gt;/progress</code> streams</li>
<li><a href="/debug/flight">/debug/flight</a> — flight-recorder tail + latest runtime sample</li>
<li><a href="/debug/pprof/">/debug/pprof/</a> — runtime profiles</li>
</ul></body></html>
`, s.opts.Run, s.opts.Run)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var snap telemetry.Snapshot
	if s.opts.Metrics != nil {
		snap = s.opts.Metrics()
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	labels := map[string]string{}
	if s.opts.Run != "" {
		labels["run"] = s.opts.Run
	}
	if err := WritePrometheus(w, snap, labels); err != nil {
		// Headers are gone; nothing to do but drop the connection.
		return
	}
	if s.opts.RunInfo != nil {
		if err := WriteRunInfo(w, s.opts.RunInfo()); err != nil {
			return
		}
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, map[string]any{
		"status":         "ok",
		"run":            s.opts.Run,
		"uptime_seconds": time.Since(s.started).Seconds(),
	})
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	p := s.opts.Progress
	state := StateStarting
	if p != nil {
		state = p.Current().State
	}
	code := http.StatusServiceUnavailable
	if p.Ready() {
		code = http.StatusOK
	}
	WriteJSON(w, code, map[string]any{"ready": p.Ready(), "state": state, "run": s.opts.Run})
}

// progressPayload is the /progress response body: the deterministic run
// snapshot plus a clearly partitioned non-deterministic section.
type progressPayload struct {
	*Snapshot
	NonDeterministic progressND `json:"non_deterministic"`
}

// progressND is the /progress non_deterministic section. Its fleet fields
// are the run totals telemetry.ObserveFleet keeps in the nd_fleet_* series,
// read from the same snapshot /metrics serves: stages, tasks, the widest
// stage, the out-of-order run-ahead high-water mark (queue depth) and the
// run's worker-utilization and pipeline-overlap ratios.
type progressND struct {
	UptimeSeconds float64 `json:"uptime_seconds"`
	PoolRuns      int64   `json:"pool_runs"`
	PoolTasks     int64   `json:"pool_tasks"`
	PoolMaxW      int64   `json:"pool_max_workers"`
	FleetDepth    int64   `json:"fleet_queue_depth,omitempty"`
	FleetUtil     float64 `json:"fleet_utilization,omitempty"`
	FleetOverlap  float64 `json:"fleet_overlap_ratio,omitempty"`
	// DiesPerSecond is the lot-screening throughput so far (the "die"
	// item counter over uptime) — wall-clock derived, hence ND.
	DiesPerSecond float64 `json:"dies_per_second,omitempty"`
}

func (s *Server) payload() progressPayload {
	return s.payloadFor(s.opts.Progress.Current())
}

// payloadFor wraps one consistent snapshot with the server's ND context, so
// the JSON and SSE variants (which obtain the snapshot differently) share
// the assembly.
func (s *Server) payloadFor(snap *Snapshot) progressPayload {
	var m telemetry.Snapshot
	if s.opts.Metrics != nil {
		m = s.opts.Metrics()
	}
	uptime := time.Since(s.started).Seconds()
	var dps float64
	if die, ok := snap.Items["die"]; ok && die.Done > 0 && uptime > 0 {
		dps = float64(die.Done) / uptime
	}
	return progressPayload{
		Snapshot: snap,
		NonDeterministic: progressND{
			UptimeSeconds: uptime,
			PoolRuns:      m.Counters[telemetry.FleetStages],
			PoolTasks:     m.Counters[telemetry.FleetTasks],
			PoolMaxW:      int64(m.Gauges[telemetry.FleetMaxWorkers]),
			FleetDepth:    int64(m.Gauges[telemetry.FleetQueueDepth]),
			FleetUtil:     m.Gauges[telemetry.FleetUtilization],
			FleetOverlap:  m.Gauges[telemetry.FleetOverlap],
			DiesPerSecond: dps,
		},
	}
}

func (s *Server) handleProgress(w http.ResponseWriter, r *http.Request) {
	p := s.opts.Progress
	if p == nil {
		WriteJSON(w, http.StatusNotFound, map[string]any{"error": "no progress publisher attached"})
		return
	}
	if WantsSSE(r) {
		s.serveProgressSSE(w, r)
		return
	}
	WriteJSON(w, http.StatusOK, s.payload())
}

// handleFlight serves the flight recorder's ring tail and latest runtime
// sample. Everything the recorder holds — wall-clock event times, heap and
// scheduler readings — varies run to run, so the whole snapshot lives under
// the same non_deterministic quarantine key /progress uses for its ND
// block; nothing here ever feeds determinism comparisons.
func (s *Server) handleFlight(w http.ResponseWriter, r *http.Request) {
	rec := s.opts.Flight
	if rec == nil {
		WriteJSON(w, http.StatusNotFound, map[string]any{"error": "no flight recorder attached"})
		return
	}
	max := 0
	if q := r.URL.Query().Get("max"); q != "" {
		if n, err := strconv.Atoi(q); err == nil && n > 0 {
			max = n
		}
	}
	WriteJSON(w, http.StatusOK, map[string]any{
		"run":               s.opts.Run,
		"non_deterministic": rec.Snapshot(max),
	})
}

// serveProgressSSE streams every published snapshot as one SSE "progress"
// event via the shared ServeProgressSSE loop, wrapping each snapshot with
// this server's ND context.
func (s *Server) serveProgressSSE(w http.ResponseWriter, r *http.Request) {
	ServeProgressSSE(w, r, s.opts.Progress, s.opts.Heartbeat, func(snap *Snapshot) any {
		return s.payloadFor(snap)
	})
}

// WriteJSON answers with status code and v as indented JSON, the one JSON
// response writer of the observability and job servers.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // client gone; nothing to report
}
