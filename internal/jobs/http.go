package jobs

import (
	"encoding/json"
	"errors"
	"net/http"
	"strings"

	"repro/internal/obs"
)

// REST surface, mounted on the obs admin mux at /jobs:
//
//	POST   /jobs                — submit a Submission, 201 + the Job record
//	GET    /jobs                — list every job
//	GET    /jobs/<id>           — one job's record
//	DELETE /jobs/<id>           — cancel (immediate if queued, cooperative if running)
//	GET    /jobs/<id>/progress  — live progress: JSON snapshot, or SSE with ?sse=1
//	GET    /jobs/<id>/output    — the flow's captured text output
//
// Every error body is {"error": "one pinned line"}.

// Handler returns the /jobs HTTP handler (paths are absolute, so it mounts
// directly on the admin mux via obs.Options.Jobs).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/jobs", s.handleCollection)
	mux.HandleFunc("/jobs/", s.handleJob)
	return mux
}

// jobError is the error envelope every non-2xx response carries.
type jobError struct {
	Error string `json:"error"`
}

func httpError(w http.ResponseWriter, code int, msg string) {
	obs.WriteJSON(w, code, jobError{Error: msg})
}

// handleCollection serves POST /jobs (submit) and GET /jobs (list).
func (s *Server) handleCollection(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodPost:
		var sub Submission
		dec := json.NewDecoder(r.Body)
		dec.DisallowUnknownFields()
		if err := dec.Decode(&sub); err != nil {
			httpError(w, http.StatusBadRequest, "bad job submission: "+err.Error())
			return
		}
		j, err := s.Submit(sub)
		if err != nil {
			code := http.StatusBadRequest
			if strings.Contains(err.Error(), "server is shut down") {
				code = http.StatusServiceUnavailable
			}
			httpError(w, code, err.Error())
			return
		}
		obs.WriteJSON(w, http.StatusCreated, j)
	case http.MethodGet:
		obs.WriteJSON(w, http.StatusOK, struct {
			Jobs []*Job `json:"jobs"`
		}{Jobs: s.List()})
	default:
		httpError(w, http.StatusMethodNotAllowed, "method not allowed (want GET or POST)")
	}
}

// handleJob serves /jobs/<id>, /jobs/<id>/progress and /jobs/<id>/output.
func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/jobs/")
	id, sub, _ := strings.Cut(rest, "/")
	if !ValidID(id) {
		httpError(w, http.StatusNotFound, "no such job")
		return
	}
	j, err := s.Get(id)
	if err != nil {
		httpError(w, http.StatusNotFound, "no such job")
		return
	}
	switch sub {
	case "":
		switch r.Method {
		case http.MethodGet:
			obs.WriteJSON(w, http.StatusOK, j)
		case http.MethodDelete:
			canceled, err := s.Cancel(id)
			switch {
			case errors.Is(err, ErrTerminal):
				httpError(w, http.StatusConflict, "job already finished")
			case err != nil:
				httpError(w, http.StatusNotFound, "no such job")
			default:
				obs.WriteJSON(w, http.StatusOK, canceled)
			}
		default:
			httpError(w, http.StatusMethodNotAllowed, "method not allowed (want GET or DELETE)")
		}
	case "progress":
		if r.Method != http.MethodGet {
			httpError(w, http.StatusMethodNotAllowed, "method not allowed (want GET)")
			return
		}
		s.serveProgress(w, r, id)
	case "output":
		if r.Method != http.MethodGet {
			httpError(w, http.StatusMethodNotAllowed, "method not allowed (want GET)")
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Write([]byte(j.Output)) //nolint:errcheck // client went away; nothing to do
	default:
		httpError(w, http.StatusNotFound, "no such job endpoint (want /progress or /output)")
	}
}

// jobProgress is one progress frame: the job record plus the live run
// snapshot, captured together so a frame is internally consistent.
type jobProgress struct {
	Job      *Job          `json:"job"`
	Progress *obs.Snapshot `json:"progress"`
}

// serveProgress streams (SSE) or snapshots (JSON) one job's live progress.
// The stream ends when the job reaches a terminal state: the executor marks
// the job's progress done on every terminal transition, including jobs
// canceled while still queued.
func (s *Server) serveProgress(w http.ResponseWriter, r *http.Request, id string) {
	p := s.Progress(id)
	if p == nil {
		httpError(w, http.StatusNotFound, "no such job")
		return
	}
	frame := func(snap *obs.Snapshot) any {
		j, err := s.Get(id)
		if err != nil {
			j = nil
		}
		return jobProgress{Job: j, Progress: snap}
	}
	if obs.WantsSSE(r) {
		obs.ServeProgressSSE(w, r, p, s.opts.Heartbeat, frame)
		return
	}
	obs.WriteJSON(w, http.StatusOK, frame(p.Current()))
}
