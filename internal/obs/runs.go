package obs

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strconv"
	"strings"

	"repro/internal/runstore"
)

// Cross-run observatory: read-only HTTP views over a run-ledger store
// (internal/runstore). /runs is a paged, filterable listing; /runs/<id>
// returns one record's manifest, report and attempt history; /runs/diff
// compares two records' stored traces with the same DiffTraces semantics
// (and the same JSON shape) as `tracestat diff -json`.

const (
	runsDefaultLimit = 50
	runsMaxLimit     = 500
)

// runListEntry is one row of the /runs listing.
type runListEntry struct {
	ID           string  `json:"id"`
	Flow         string  `json:"flow"`
	Seed         int64   `json:"seed"`
	CacheWarmth  string  `json:"cache_warmth,omitempty"`
	TraceDigest  string  `json:"trace_digest,omitempty"`
	Measurements int64   `json:"measurements"`
	SimTimeSec   float64 `json:"sim_time_sec"`
	Attempts     int     `json:"attempts"`
	FirstNano    int64   `json:"first_recorded_unix_nano,omitempty"`
	LastNano     int64   `json:"last_recorded_unix_nano,omitempty"`
}

// handleRuns serves the paged ledger listing. Query parameters: flow and
// seed filter, limit (default 50, max 500) and offset page. Records come
// back in the store's chronological order (first attempt time, then ID).
func (s *Server) handleRuns(w http.ResponseWriter, r *http.Request) {
	st := s.opts.Ledger
	if st == nil {
		WriteJSON(w, http.StatusNotFound, map[string]any{"error": "no run ledger attached (start with -run-dir)"})
		return
	}
	sums, err := st.List()
	if err != nil {
		WriteJSON(w, http.StatusInternalServerError, map[string]any{"error": err.Error()})
		return
	}
	q := r.URL.Query()
	if flow := q.Get("flow"); flow != "" {
		sums = filterSummaries(sums, func(sum runstore.Summary) bool { return sum.Manifest.Flow == flow })
	}
	if seedStr := q.Get("seed"); seedStr != "" {
		seed, err := strconv.ParseInt(seedStr, 10, 64)
		if err != nil {
			WriteJSON(w, http.StatusBadRequest, map[string]any{"error": "bad seed filter: " + seedStr})
			return
		}
		sums = filterSummaries(sums, func(sum runstore.Summary) bool { return sum.Manifest.Seed == seed })
	}

	limit := runsDefaultLimit
	if v := q.Get("limit"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			limit = min(n, runsMaxLimit)
		}
	}
	offset := 0
	if v := q.Get("offset"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			offset = n
		}
	}
	total := len(sums)
	// Clamp the start, then take at most limit rows: offset is any
	// positive int from the query, so offset+limit could overflow.
	page := sums[min(offset, total):]
	page = page[:min(limit, len(page))]

	entries := make([]runListEntry, 0, len(page))
	for _, sum := range page {
		entries = append(entries, runListEntry{
			ID:           sum.ID,
			Flow:         sum.Manifest.Flow,
			Seed:         sum.Manifest.Seed,
			CacheWarmth:  sum.Manifest.CacheWarmth,
			TraceDigest:  sum.Manifest.TraceDigest,
			Measurements: sum.Totals.Measurements,
			SimTimeSec:   sum.Totals.SimTimeSec,
			Attempts:     len(sum.Attempts),
			FirstNano:    sum.FirstAttemptNano(),
			LastNano:     sum.LastAttemptNano(),
		})
	}
	WriteJSON(w, http.StatusOK, map[string]any{
		"total":  total,
		"offset": offset,
		"count":  len(entries),
		"runs":   entries,
	})
}

// handleRunsSub dispatches /runs/diff and /runs/<id>.
func (s *Server) handleRunsSub(w http.ResponseWriter, r *http.Request) {
	if s.opts.Ledger == nil {
		WriteJSON(w, http.StatusNotFound, map[string]any{"error": "no run ledger attached (start with -run-dir)"})
		return
	}
	rest := strings.TrimPrefix(r.URL.Path, "/runs/")
	if rest == "diff" {
		s.handleRunsDiff(w, r)
		return
	}
	s.handleRunByID(w, r, rest)
}

// handleRunByID serves one record: manifest, report and metrics artifacts
// (verbatim JSON), trace presence, and the ND attempt history.
func (s *Server) handleRunByID(w http.ResponseWriter, r *http.Request, id string) {
	if !runstore.ValidID(id) {
		WriteJSON(w, http.StatusBadRequest, map[string]any{"error": "invalid run id: " + id})
		return
	}
	rec, err := s.opts.Ledger.Get(id)
	if err != nil {
		WriteJSON(w, http.StatusNotFound, map[string]any{"error": err.Error()})
		return
	}
	attempts, err := s.opts.Ledger.Attempts(id)
	if err != nil {
		WriteJSON(w, http.StatusInternalServerError, map[string]any{"error": err.Error()})
		return
	}
	WriteJSON(w, http.StatusOK, map[string]any{
		"id":          id,
		"manifest":    rec.Manifest,
		"report":      rawOrNull(rec.Report),
		"metrics":     rawOrNull(rec.Metrics),
		"trace_bytes": len(rec.Trace),
		"attempts":    attempts,
	})
}

// handleRunsDiff compares two records' stored traces:
// /runs/diff?a=<id>&b=<id>[&fail_over=PCT][&min_measurements=N][&fail_on_new=1].
// The "diff" payload is the exact TraceDiffJSON `tracestat diff -json`
// prints, so a CI consumer can reuse one decoder for both.
func (s *Server) handleRunsDiff(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	opts := DiffOptions{MinMeasurements: 50}
	if v := q.Get("fail_over"); v != "" {
		f, err := strconv.ParseFloat(v, 64)
		if err != nil {
			WriteJSON(w, http.StatusBadRequest, map[string]any{"error": "bad fail_over: " + v})
			return
		}
		opts.FailOverPct = f
	}
	if v := q.Get("min_measurements"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			WriteJSON(w, http.StatusBadRequest, map[string]any{"error": "bad min_measurements: " + v})
			return
		}
		opts.MinMeasurements = n
	}
	opts.FailOnNew = q.Get("fail_on_new") == "1"

	trA, idA, ok := s.ledgerTrace(w, q.Get("a"), "a")
	if !ok {
		return
	}
	trB, idB, ok := s.ledgerTrace(w, q.Get("b"), "b")
	if !ok {
		return
	}
	d := DiffTraces(trA, trB, opts)
	WriteJSON(w, http.StatusOK, map[string]any{
		"a":    idA,
		"b":    idB,
		"diff": d.JSON(),
	})
}

// ledgerTrace loads and parses one diff side's stored trace, writing the
// error response itself when anything is missing.
func (s *Server) ledgerTrace(w http.ResponseWriter, id, side string) (*Trace, string, bool) {
	if !runstore.ValidID(id) {
		WriteJSON(w, http.StatusBadRequest, map[string]any{"error": "missing or invalid run id for ?" + side + "="})
		return nil, "", false
	}
	rec, err := s.opts.Ledger.Get(id)
	if err != nil {
		WriteJSON(w, http.StatusNotFound, map[string]any{"error": err.Error()})
		return nil, "", false
	}
	if len(rec.Trace) == 0 {
		WriteJSON(w, http.StatusUnprocessableEntity, map[string]any{"error": "record " + id + " has no stored trace"})
		return nil, "", false
	}
	tr, err := ParseTrace(bytes.NewReader(rec.Trace))
	if err != nil {
		WriteJSON(w, http.StatusInternalServerError, map[string]any{"error": err.Error()})
		return nil, "", false
	}
	return tr, id, true
}

func filterSummaries(sums []runstore.Summary, keep func(runstore.Summary) bool) []runstore.Summary {
	out := sums[:0:0]
	for _, sum := range sums {
		if keep(sum) {
			out = append(out, sum)
		}
	}
	return out
}

// rawOrNull passes a stored JSON artifact through verbatim; empty
// artifacts become JSON null.
func rawOrNull(b []byte) json.RawMessage {
	if len(b) == 0 {
		return json.RawMessage("null")
	}
	return json.RawMessage(b)
}
