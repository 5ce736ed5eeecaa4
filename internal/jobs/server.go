package jobs

import (
	"bytes"
	"errors"
	"fmt"
	"log"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cli"
	"repro/internal/obs"
	"repro/internal/runstore"
	"repro/internal/telemetry"
)

// Options configures a job server.
type Options struct {
	// QueueDir holds the persistent job journal.
	QueueDir string
	// RunDir is the shared run-ledger directory every finished job
	// finalizes into.
	RunDir string
	// Workers is the global worker budget the executor multiplexes
	// concurrent jobs under; a job's Parallel is its claim against it.
	Workers int
	// Heartbeat is the SSE heartbeat interval (0 = obs.DefaultHeartbeat,
	// negative disables).
	Heartbeat time.Duration
	// Log receives operational lines; nil silences them.
	Log *log.Logger
}

// runningJob is the executor's in-flight state for one job.
type runningJob struct {
	cancel atomic.Bool
	tel    *telemetry.Telemetry // set by OnTelemetryStart, read under Server.mu
}

// Server is the multi-tenant executor: it drains the persistent queue in
// strict priority order, runs each job's flow body on its own fleet under
// the global worker budget, and records the terminal transition (with run
// ID and trace fingerprint) back into the queue journal. Dispatch is
// head-of-line: the highest-priority queued job runs next or — if the
// remaining budget cannot fit it — blocks everything behind it, so
// priority order is exact, never best-effort.
type Server struct {
	opts  Options
	q     *Queue
	store *runstore.Store
	reg   *telemetry.Registry

	mu       sync.Mutex
	running  map[string]*runningJob
	progress map[string]*obs.Progress
	busy     int
	maxBusy  int
	closed   bool

	closing atomic.Bool

	wake   chan struct{}
	stop   chan struct{}
	wg     sync.WaitGroup // job goroutines
	loopWG sync.WaitGroup // dispatcher goroutine
}

// New opens the queue and ledger and starts the dispatcher. Jobs that
// survived a previous process (queued, or running at the crash) are already
// back in the queue and dispatch immediately.
func New(opts Options) (*Server, error) {
	if opts.Workers < 1 {
		return nil, fmt.Errorf("jobs: worker budget must be positive, got %d", opts.Workers)
	}
	if opts.QueueDir == "" {
		return nil, fmt.Errorf("jobs: QueueDir is required")
	}
	if opts.RunDir == "" {
		return nil, fmt.Errorf("jobs: RunDir is required")
	}
	q, err := Open(opts.QueueDir)
	if err != nil {
		return nil, err
	}
	store, err := runstore.Open(opts.RunDir)
	if err != nil {
		q.Close()
		return nil, fmt.Errorf("jobs: opening run ledger: %w", err)
	}
	s := &Server{
		opts:     opts,
		q:        q,
		store:    store,
		reg:      telemetry.NewRegistry(),
		running:  make(map[string]*runningJob),
		progress: make(map[string]*obs.Progress),
		wake:     make(chan struct{}, 1),
		stop:     make(chan struct{}),
	}
	s.reg.Gauge("jobs_worker_budget").Set(float64(opts.Workers))
	s.loopWG.Add(1)
	go s.dispatchLoop()
	s.kick()
	return s, nil
}

// Store exposes the shared run-ledger handle (the admin mux serves /runs
// from it).
func (s *Server) Store() *runstore.Store { return s.store }

// logf writes one operational line when logging is configured.
func (s *Server) logf(format string, args ...any) {
	if s.opts.Log != nil {
		s.opts.Log.Printf(format, args...)
	}
}

// kick nudges the dispatcher (coalescing; never blocks).
func (s *Server) kick() {
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// dispatchLoop is the single dispatcher goroutine: every wake-up it starts
// as many queued jobs as strict priority order and the worker budget allow.
func (s *Server) dispatchLoop() {
	defer s.loopWG.Done()
	for {
		select {
		case <-s.stop:
			return
		case <-s.wake:
		}
		s.dispatchReady()
	}
}

// dispatchReady starts queued jobs until the head no longer fits the
// remaining budget (or the queue drains). The head never yields to a
// smaller lower-priority job — exact priority ordering is part of the
// service contract and the load tests assert it.
func (s *Server) dispatchReady() {
	for {
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			return
		}
		head := s.q.NextRunnable()
		if head == nil || head.Workers > s.opts.Workers-s.busy {
			s.mu.Unlock()
			return
		}
		started, err := s.q.Start(head.ID)
		if err != nil {
			// Lost a race with Cancel: the head left the queued state
			// between NextRunnable and Start. Try the next head.
			s.mu.Unlock()
			if errors.Is(err, ErrNotFound) || errors.Is(err, ErrTerminal) {
				continue
			}
			s.logf("jobs: dispatch %s: %v", head.ID, err)
			return
		}
		rj := &runningJob{}
		s.running[started.ID] = rj
		s.busy += started.Workers
		if s.busy > s.maxBusy {
			s.maxBusy = s.busy
		}
		s.wg.Add(1)
		s.mu.Unlock()
		s.logf("jobs: start %s (%s, %d workers, priority %d)", started.ID, started.Flow, started.Workers, started.Priority)
		go s.runJob(started, rj)
	}
}

// runJob executes one job's flow body and records the terminal transition.
func (s *Server) runJob(job *Job, rj *runningJob) {
	defer s.wg.Done()
	var out bytes.Buffer
	runID, fingerprint, err := s.execute(job, rj, &out)

	state := StateDone
	var errMsg string
	switch {
	case err == nil:
	case errors.Is(err, ErrCanceled):
		state = StateCanceled
		errMsg = err.Error()
	default:
		state = StateFailed
		errMsg = err.Error()
	}

	// A job interrupted by server shutdown (not by an explicit cancel) is
	// left journalled as running: the restarted server replays it back into
	// the queue and runs it again, which is safe — its partial run wrote
	// nothing durable.
	interrupted := state == StateCanceled && s.closing.Load() && !rj.cancel.Load()

	s.mu.Lock()
	delete(s.running, job.ID)
	s.busy -= job.Workers
	s.mu.Unlock()

	if !interrupted {
		if _, ferr := s.q.Finish(job.ID, state, runID, fingerprint, errMsg, out.String()); ferr != nil {
			s.logf("jobs: finish %s: %v", job.ID, ferr)
		}
		switch state {
		case StateDone:
			s.reg.Counter("jobs_done_total").Add(1)
			s.logf("jobs: done %s (run %s)", job.ID, runID)
		case StateCanceled:
			s.reg.Counter("jobs_canceled_total").Add(1)
			s.logf("jobs: canceled %s", job.ID)
		default:
			s.reg.Counter("jobs_failed_total").Add(1)
			s.logf("jobs: failed %s: %s", job.ID, errMsg)
		}
	}
	s.finishProgress(job.ID)
	s.kick()
}

// execute builds the job's FlowRun — the binary's exact flag set with the
// spec applied — and runs it embedded: private fleet sized to the job's
// worker claim, the server's ledger directory, externally owned progress,
// and cooperative cancellation polled at phase boundaries. The run ID and
// trace fingerprint come back from the shared ledger finalization, so they
// are byte-for-byte the ones the equivalent CLI invocation would produce.
func (s *Server) execute(job *Job, rj *runningJob, out *bytes.Buffer) (runID, fingerprint string, err error) {
	fr, err := cli.NewFlowRun(cli.FlowSpec{
		Flow:    job.Flow,
		Seed:    job.Seed,
		NoCache: job.NoCache,
		Args:    job.Args,
	})
	if err != nil {
		return "", "", err
	}
	c := fr.Common
	c.Embedded = true
	c.Parallel = job.Workers
	c.RunDir = s.opts.RunDir
	c.AttachProgress(s.progressFor(job))
	c.CheckCancel = func() error {
		if rj.cancel.Load() || s.closing.Load() {
			return ErrCanceled
		}
		return nil
	}
	c.OnTelemetryStart = func(tel *telemetry.Telemetry) {
		s.mu.Lock()
		rj.tel = tel
		s.mu.Unlock()
	}
	if err := fr.Run(out); err != nil {
		return "", "", err
	}
	runID, fingerprint = c.LastRun()
	return runID, fingerprint, nil
}

// progressFor returns (creating on demand) the job's progress publisher.
// It exists from submission on, so SSE watchers can attach to queued jobs
// and resumed jobs alike. One created for a job that is already terminal —
// a job a previous process finished — starts done, so its streams end.
func (s *Server) progressFor(j *Job) *obs.Progress {
	s.mu.Lock()
	defer s.mu.Unlock()
	p, ok := s.progress[j.ID]
	if !ok {
		p = obs.NewProgress(j.ID)
		if j.State.Terminal() {
			p.Done()
		}
		s.progress[j.ID] = p
	}
	return p
}

// finishProgress marks the job's progress done so SSE streams terminate.
func (s *Server) finishProgress(id string) {
	s.mu.Lock()
	p := s.progress[id]
	s.mu.Unlock()
	p.Done() // nil-safe
}

// Submit validates and enqueues one submission. Validation constructs the
// actual FlowRun, so an unknown flow, a rejected arg or a value its flag
// does not accept (an unknown -param, -dies 0) fails here with the same
// pinned one-line error the CLI would print. A rule of the flow's own
// configuration still fails when the job runs: core.Config.Validate
// rejects -learn-tests below 10.
func (s *Server) Submit(sub Submission) (*Job, error) {
	if sub.Seed == 0 {
		sub.Seed = 1 // the CLI's -seed default; the record shows the effective seed
	}
	if _, err := cli.NewFlowRun(cli.FlowSpec{Flow: sub.Flow, Seed: sub.Seed, NoCache: sub.NoCache, Args: sub.Args}); err != nil {
		return nil, err
	}
	if workers := normalizeWorkers(sub.Parallel); workers > s.opts.Workers {
		return nil, fmt.Errorf("jobs: job wants %d workers but the server budget is %d", workers, s.opts.Workers)
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, fmt.Errorf("jobs: server is shut down")
	}
	s.mu.Unlock()
	j, err := s.q.Submit(sub)
	if err != nil {
		return nil, err
	}
	s.progressFor(j)
	s.reg.Counter("jobs_submitted_total").Add(1)
	s.logf("jobs: submitted %s (%s, priority %d)", j.ID, j.Flow, j.Priority)
	s.kick()
	return j, nil
}

// Cancel requests a job's cancellation: a queued job lands in canceled
// immediately, a running one at its next phase boundary. Terminal jobs
// return ErrTerminal.
func (s *Server) Cancel(id string) (*Job, error) {
	j, canceledNow, err := s.q.Cancel(id)
	if err != nil {
		return nil, err
	}
	if canceledNow {
		s.reg.Counter("jobs_canceled_total").Add(1)
		s.finishProgress(id)
		s.logf("jobs: canceled %s (was queued)", id)
		s.kick()
		return j, nil
	}
	s.mu.Lock()
	if rj, ok := s.running[id]; ok {
		rj.cancel.Store(true)
	}
	s.mu.Unlock()
	s.logf("jobs: cancel requested for running %s", id)
	return j, nil
}

// Get returns one job's current record.
func (s *Server) Get(id string) (*Job, error) { return s.q.Get(id) }

// List returns every job in submission order.
func (s *Server) List() []*Job { return s.q.List() }

// Progress returns the job's progress publisher (nil for unknown jobs).
func (s *Server) Progress(id string) *obs.Progress {
	j, err := s.q.Get(id)
	if err != nil {
		return nil
	}
	return s.progressFor(j)
}

// MetricsSnapshot merges the server's own counters with each running job's
// registry, namespaced as job_<id>_<metric>, for one admin-mux /metrics
// exposition across every tenant.
func (s *Server) MetricsSnapshot() telemetry.Snapshot {
	s.mu.Lock()
	s.reg.Gauge("jobs_running").Set(float64(len(s.running)))
	s.reg.Gauge("jobs_workers_busy").Set(float64(s.busy))
	snaps := []telemetry.Snapshot{s.reg.Snapshot()}
	for id, rj := range s.running {
		if rj.tel != nil {
			snaps = append(snaps, rj.tel.Registry().Snapshot().Prefixed("job_"+id+"_"))
		}
	}
	s.mu.Unlock()
	return telemetry.MergeSnapshots(snaps...)
}

// MaxBusyObserved is a test hook: the high-water mark of concurrently
// claimed workers (must never exceed the budget).
func (s *Server) MaxBusyObserved() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.maxBusy
}

// Close shuts the executor down: dispatch stops, running jobs are
// interrupted at their next phase boundary and stay journalled as running —
// the next Open replays them back into the queue, so a restart resumes
// exactly the pending set. Queued jobs are untouched.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	s.closing.Store(true)
	close(s.stop)
	s.loopWG.Wait()
	s.wg.Wait()
	return s.q.Close()
}
