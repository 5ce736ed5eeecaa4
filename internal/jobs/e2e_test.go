package jobs_test

// End-to-end service harness: boots the real job server on 127.0.0.1:0
// (admin mux with the /jobs API mounted, exactly as charserved wires it),
// submits every flow over HTTP at -parallel 1, 2 and 8 while background
// jobs keep the executor busy, and asserts the service-identity contract:
// each job's ledger run ID and trace bytes are byte-identical to a direct
// in-process invocation of the same flow spec, and all parallelisms of one
// spec collide into a single content-addressed record.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/cli"
	"repro/internal/jobs"
	"repro/internal/obs"
	"repro/internal/runstore"
)

// bootService starts a job server plus its admin HTTP listener.
func bootService(t *testing.T, queueDir, runDir string, workers int) (*jobs.Server, string) {
	t.Helper()
	srv, err := jobs.New(jobs.Options{
		QueueDir:  queueDir,
		RunDir:    runDir,
		Workers:   workers,
		Heartbeat: -1,
	})
	if err != nil {
		t.Fatalf("jobs.New: %v", err)
	}
	admin, err := obs.Start("127.0.0.1:0", obs.Options{
		Run:     "jobs-e2e",
		Metrics: srv.MetricsSnapshot,
		Ledger:  srv.Store(),
		Jobs:    srv.Handler(),
	})
	if err != nil {
		srv.Close()
		t.Fatalf("obs.Start: %v", err)
	}
	t.Cleanup(func() {
		admin.Close()
		srv.Close()
	})
	return srv, "http://" + admin.Addr()
}

// submitHTTP posts one submission and returns the created job record.
func submitHTTP(t *testing.T, base string, sub jobs.Submission) *jobs.Job {
	t.Helper()
	body, err := json.Marshal(sub)
	if err != nil {
		t.Fatalf("marshal submission: %v", err)
	}
	resp, err := http.Post(base+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /jobs: %v", err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("POST /jobs: status %d: %s", resp.StatusCode, raw)
	}
	var j jobs.Job
	if err := json.Unmarshal(raw, &j); err != nil {
		t.Fatalf("decode job: %v (%s)", err, raw)
	}
	return &j
}

// waitTerminal polls GET /jobs/<id> until the job finishes.
func waitTerminal(t *testing.T, base, id string) *jobs.Job {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/jobs/" + id)
		if err != nil {
			t.Fatalf("GET /jobs/%s: %v", id, err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /jobs/%s: status %d: %s", id, resp.StatusCode, raw)
		}
		var j jobs.Job
		if err := json.Unmarshal(raw, &j); err != nil {
			t.Fatalf("decode job: %v (%s)", err, raw)
		}
		if j.State.Terminal() {
			return &j
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish in time", id)
	return nil
}

// directRun executes the same flow spec in-process (the CLI code path) into
// its own ledger and returns the run ID and fingerprint.
func directRun(t *testing.T, spec cli.FlowSpec, parallel int, runDir string) (runID, fingerprint string) {
	t.Helper()
	fr, err := cli.NewFlowRun(spec)
	if err != nil {
		t.Fatalf("NewFlowRun(%+v): %v", spec, err)
	}
	fr.Common.Embedded = true // several runs share this test process
	fr.Common.Parallel = parallel
	fr.Common.RunDir = runDir
	var out bytes.Buffer
	if err := fr.Run(&out); err != nil {
		t.Fatalf("direct %s run: %v", spec.Flow, err)
	}
	runID, fingerprint = fr.Common.LastRun()
	if runID == "" || fingerprint == "" {
		t.Fatalf("direct %s run: empty run ID/fingerprint", spec.Flow)
	}
	return runID, fingerprint
}

// e2eCase is one flow spec the harness pushes through both paths.
type e2eCase struct {
	flow string
	seed int64
	args map[string]string
}

var e2eCases = []e2eCase{
	{"learn", 7, map[string]string{"learn-tests": "12"}},
	{"optimize", 3, map[string]string{"learn-tests": "10"}},
	{"table1", 5, map[string]string{"learn-tests": "10", "random-tests": "30"}},
	{"shmoo", 9, map[string]string{"tests": "6"}},
	{"lot", 11, map[string]string{"dies": "4"}},
}

func TestServiceMatchesCLI(t *testing.T) {
	queueDir := t.TempDir()
	svcRuns := t.TempDir()
	cliRuns := t.TempDir()
	srv, base := bootService(t, queueDir, svcRuns, 32)

	// Background tenants: two jobs that keep the executor multiplexing
	// while every comparison job runs, so identity holds under concurrency.
	bg := []*jobs.Job{
		submitHTTP(t, base, jobs.Submission{Flow: "optimize", Seed: 101, Args: map[string]string{"learn-tests": "12"}, Parallel: 2}),
		submitHTTP(t, base, jobs.Submission{Flow: "table1", Seed: 102, Args: map[string]string{"learn-tests": "10", "random-tests": "40"}, Parallel: 2}),
	}

	type result struct {
		c           e2eCase
		runID       string
		fingerprint string
	}
	var results []result
	for _, c := range e2eCases {
		var firstID, firstFP string
		for _, par := range []int{1, 2, 8} {
			j := submitHTTP(t, base, jobs.Submission{Flow: c.flow, Seed: c.seed, Args: c.args, Parallel: par})
			done := waitTerminal(t, base, j.ID)
			if done.State != jobs.StateDone {
				t.Fatalf("%s parallel=%d: state %s, error %q", c.flow, par, done.State, done.Error)
			}
			if done.RunID == "" || done.Fingerprint == "" {
				t.Fatalf("%s parallel=%d: missing run ID or fingerprint: %+v", c.flow, par, done)
			}
			if firstID == "" {
				firstID, firstFP = done.RunID, done.Fingerprint
			} else if done.RunID != firstID || done.Fingerprint != firstFP {
				// Different -parallel must collide into one record.
				t.Fatalf("%s parallel=%d: run %s/%s, want %s/%s (parallelism leaked into identity)",
					c.flow, par, done.RunID, done.Fingerprint, firstID, firstFP)
			}
		}
		results = append(results, result{c: c, runID: firstID, fingerprint: firstFP})
	}

	// The same specs through the direct (CLI) code path, into a separate
	// ledger, must land on the same content-addressed IDs...
	cliStore, err := runstore.Open(cliRuns)
	if err != nil {
		t.Fatalf("open CLI ledger: %v", err)
	}
	for _, r := range results {
		spec := cli.FlowSpec{Flow: r.c.flow, Seed: r.c.seed, Args: r.c.args}
		directID, directFP := directRun(t, spec, 1, cliRuns)
		if directID != r.runID || directFP != r.fingerprint {
			t.Fatalf("%s: service run %s/%s, direct run %s/%s",
				r.c.flow, r.runID, r.fingerprint, directID, directFP)
		}
		// ...with byte-identical trace payloads in both ledgers.
		svcRec, err := srv.Store().Get(r.runID)
		if err != nil {
			t.Fatalf("%s: service ledger Get(%s): %v", r.c.flow, r.runID, err)
		}
		cliRec, err := cliStore.Get(directID)
		if err != nil {
			t.Fatalf("%s: CLI ledger Get(%s): %v", r.c.flow, directID, err)
		}
		if len(svcRec.Trace) == 0 {
			t.Fatalf("%s: service record has no trace", r.c.flow)
		}
		if !bytes.Equal(svcRec.Trace, cliRec.Trace) {
			t.Fatalf("%s: trace bytes differ between service and CLI (%d vs %d bytes)",
				r.c.flow, len(svcRec.Trace), len(cliRec.Trace))
		}
	}

	// The background tenants must have finished cleanly too.
	for _, j := range bg {
		done := waitTerminal(t, base, j.ID)
		if done.State != jobs.StateDone {
			t.Fatalf("background job %s: state %s, error %q", j.ID, done.State, done.Error)
		}
	}
}

func TestServiceHTTPSurface(t *testing.T) {
	queueDir := t.TempDir()
	_, base := bootService(t, queueDir, t.TempDir(), 4)

	j := submitHTTP(t, base, jobs.Submission{Flow: "shmoo", Seed: 2, Args: map[string]string{"tests": "4"}})
	done := waitTerminal(t, base, j.ID)
	if done.State != jobs.StateDone {
		t.Fatalf("job state %s, error %q", done.State, done.Error)
	}

	// GET /jobs lists it.
	resp, err := http.Get(base + "/jobs")
	if err != nil {
		t.Fatalf("GET /jobs: %v", err)
	}
	var list struct {
		Jobs []*jobs.Job `json:"jobs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatalf("decode list: %v", err)
	}
	resp.Body.Close()
	if len(list.Jobs) != 1 || list.Jobs[0].ID != j.ID {
		t.Fatalf("GET /jobs: %+v, want the one submitted job", list.Jobs)
	}

	// /jobs/<id>/output carries the flow's text output.
	resp, err = http.Get(base + "/jobs/" + j.ID + "/output")
	if err != nil {
		t.Fatalf("GET output: %v", err)
	}
	out, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(out), "Shmoo overlay") {
		t.Fatalf("output missing shmoo text: %q", out)
	}

	// /jobs/<id>/progress streams SSE and terminates on the done state.
	req, _ := http.NewRequest(http.MethodGet, base+"/jobs/"+j.ID+"/progress?sse=1", nil)
	sseResp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("GET progress SSE: %v", err)
	}
	defer sseResp.Body.Close()
	if ct := sseResp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("SSE content type %q", ct)
	}
	sse, err := io.ReadAll(bufio.NewReader(sseResp.Body)) // ends at StateDone
	if err != nil {
		t.Fatalf("read SSE: %v", err)
	}
	if !strings.Contains(string(sse), "event: progress") || !strings.Contains(string(sse), `"state":"done"`) {
		t.Fatalf("SSE stream missing progress frames: %q", sse)
	}

	// Unknown flows and rejected args fail with pinned one-line errors.
	for _, tc := range []struct {
		sub  jobs.Submission
		want string
	}{
		// The response body is JSON, so quotes inside the pinned error
		// lines arrive escaped; match around them.
		{jobs.Submission{Flow: "frob"}, `cli: unknown flow`},
		{jobs.Submission{Flow: "shmoo", Args: map[string]string{"dies": "3"}}, `does not accept arg`},
		{jobs.Submission{Flow: "learn", Parallel: 99}, "wants 99 workers but the server budget is 4"},
		// Values their flag does not accept fail here, not when the job runs.
		{jobs.Submission{Flow: "learn", Args: map[string]string{"param": "bogus"}}, `unknown parameter`},
		{jobs.Submission{Flow: "learn", Args: map[string]string{"corner": "xx"}}, `unknown corner`},
		{jobs.Submission{Flow: "lot", Args: map[string]string{"dies": "0"}}, `must be at least 1, got 0`},
		// Only the characterize flows have a memo-cache to disable.
		{jobs.Submission{Flow: "shmoo", NoCache: true}, `-no-cache has no effect here`},
		{jobs.Submission{Flow: "lot", NoCache: true}, `-no-cache has no effect here`},
	} {
		body, _ := json.Marshal(tc.sub)
		resp, err := http.Post(base+"/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("POST bad job: %v", err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("bad submission %+v: status %d, want 400", tc.sub, resp.StatusCode)
		}
		if !strings.Contains(string(raw), tc.want) {
			t.Fatalf("bad submission %+v: error %s, want %q", tc.sub, raw, tc.want)
		}
	}

	// Unknown IDs 404; double-cancel of a finished job 409s.
	resp, err = http.Get(base + "/jobs/j999999")
	if err != nil {
		t.Fatalf("GET unknown: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job: status %d, want 404", resp.StatusCode)
	}
	req, _ = http.NewRequest(http.MethodDelete, base+"/jobs/"+j.ID, nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("DELETE finished: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("cancel of finished job: status %d, want 409", resp.StatusCode)
	}
}

// TestServiceRestartResumes boots a server on the journal a stopped server
// leaves with queued work and verifies it runs exactly the pending set to
// completion.
func TestServiceRestartResumes(t *testing.T) {
	queueDir := t.TempDir()
	runDir := t.TempDir()

	q, err := jobs.Open(queueDir)
	if err != nil {
		t.Fatalf("jobs.Open: %v", err)
	}
	var ids []string
	for i := 0; i < 3; i++ {
		j, err := q.Submit(jobs.Submission{Flow: "shmoo", Seed: int64(20 + i), Args: map[string]string{"tests": "4"}})
		if err != nil {
			t.Fatalf("submit: %v", err)
		}
		ids = append(ids, j.ID)
	}
	canceled, now, err := q.Cancel(ids[1])
	if err != nil || !now || canceled.State != jobs.StateCanceled {
		t.Fatalf("cancel queued: %+v, %v, %v", canceled, now, err)
	}
	if err := q.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	// Boot on that journal: the two still-queued jobs run, the canceled
	// one stays canceled.
	srv2, err := jobs.New(jobs.Options{QueueDir: queueDir, RunDir: runDir, Workers: 2})
	if err != nil {
		t.Fatalf("reboot: %v", err)
	}
	defer srv2.Close()
	deadline := time.Now().Add(30 * time.Second)
	for _, id := range []string{ids[0], ids[2]} {
		for {
			j, err := srv2.Get(id)
			if err != nil {
				t.Fatalf("get %s: %v", id, err)
			}
			if j.State.Terminal() {
				if j.State != jobs.StateDone {
					t.Fatalf("resumed job %s: state %s, error %q", id, j.State, j.Error)
				}
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("resumed job %s did not finish", id)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	j, err := srv2.Get(ids[1])
	if err != nil || j.State != jobs.StateCanceled {
		t.Fatalf("canceled job after reboot: %+v, %v", j, err)
	}
}

// A job that a previous server finished streams its done frame after a
// restart, and the stream ends there.
func TestFinishedJobStreamEndsAfterRestart(t *testing.T) {
	queueDir, runDir := t.TempDir(), t.TempDir()
	srv, err := jobs.New(jobs.Options{QueueDir: queueDir, RunDir: runDir, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	j, err := srv.Submit(jobs.Submission{Flow: "shmoo", Seed: 4, Args: map[string]string{"tests": "4"}})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		got, err := srv.Get(j.ID)
		if err != nil {
			t.Fatal(err)
		}
		if got.State == jobs.StateDone {
			break
		}
		if got.State.Terminal() || time.Now().After(deadline) {
			t.Fatalf("job %s: state %s, error %q", j.ID, got.State, got.Error)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	_, base := bootService(t, queueDir, runDir, 1)
	client := &http.Client{Timeout: 10 * time.Second}
	resp, err := client.Get(base + "/jobs/" + j.ID + "/progress?sse=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sse, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("the stream did not end: %v (read %q)", err, sse)
	}
	frames := strings.Split(strings.TrimSpace(string(sse)), "\n\n")
	last := frames[len(frames)-1]
	var frame struct {
		Progress obs.Snapshot `json:"progress"`
	}
	if err := json.Unmarshal([]byte(strings.TrimPrefix(last, "event: progress\ndata: ")), &frame); err != nil {
		t.Fatalf("decoding the last frame %q: %v", last, err)
	}
	if frame.Progress.State != obs.StateDone {
		t.Errorf("the stream's last frame has progress state %q, want %q", frame.Progress.State, obs.StateDone)
	}
}
