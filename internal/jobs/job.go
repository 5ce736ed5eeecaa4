// Package jobs is the characterization-as-a-service layer: a REST/JSON job
// API over a persistent priority queue and a bounded multi-tenant executor.
//
// Every paper flow (learn, optimize, table1, shmoo, lot) becomes a job
// payload: POST /jobs submits a cli.FlowSpec plus scheduling hints (seed,
// parallelism, priority), the executor multiplexes concurrent jobs over
// per-job parallel.Fleet instances under one global worker budget, per-job
// progress streams over SSE, and completed runs finalize into the shared
// content-addressed runstore ledger. Because the executor runs the exact
// flow bodies the binaries run (internal/cli's Run* functions) with the
// same resolved flag sets, a submitted job produces the same run ID and
// bit-identical trace bytes as the equivalent CLI invocation — at any
// parallelism, even while other jobs run concurrently.
//
// The queue survives crashes: every state transition appends a CRC-checked
// internal/frame frame to a journal, and a restarted server resumes exactly
// the pending set (jobs caught mid-run return to the queue).
package jobs

import (
	"errors"
	"fmt"
	"regexp"
)

// State is a job's lifecycle state.
type State string

const (
	// StateQueued: submitted, waiting for budget.
	StateQueued State = "queued"
	// StateRunning: executing on its fleet.
	StateRunning State = "running"
	// StateDone: finished cleanly; RunID and Fingerprint are set.
	StateDone State = "done"
	// StateFailed: the flow returned an error (recorded in Error).
	StateFailed State = "failed"
	// StateCanceled: canceled before or during execution.
	StateCanceled State = "canceled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// valid reports whether s is a known state (journal decoding guard).
func (s State) valid() bool {
	switch s {
	case StateQueued, StateRunning, StateDone, StateFailed, StateCanceled:
		return true
	}
	return false
}

// Submission is the POST /jobs payload: the flow spec plus scheduling
// hints. Flow, Seed, NoCache and Args mirror cli.FlowSpec.
type Submission struct {
	// Flow is the workload: learn, optimize, table1, shmoo or lot.
	Flow string `json:"flow"`
	// Seed is the run seed; 0 takes the CLI default (1).
	Seed int64 `json:"seed,omitempty"`
	// NoCache disables the measurement memo-cache.
	NoCache bool `json:"no_cache,omitempty"`
	// Args overrides the flow's workload flags by name.
	Args map[string]string `json:"args,omitempty"`
	// Parallel is the job's worker count (its claim against the server
	// budget); 0 means 1. Results are bit-identical at any value.
	Parallel int `json:"parallel,omitempty"`
	// Priority orders dispatch: higher runs first, ties break by
	// submission order. Default 0.
	Priority int `json:"priority,omitempty"`
}

// Job is one submitted workload and its full lifecycle record.
type Job struct {
	// ID is the queue-assigned identifier ("j000042").
	ID string `json:"id"`
	// Seq is the monotonic submission sequence number behind the ID.
	Seq int64 `json:"seq"`

	Submission

	// Workers is the resolved worker claim (Parallel, minimum 1).
	Workers int `json:"workers"`
	// State is the current lifecycle state.
	State State `json:"state"`
	// CancelRequested marks a running job whose cancellation was requested
	// but not yet observed by the flow (cancellation is cooperative, taking
	// effect at the next phase boundary).
	CancelRequested bool `json:"cancel_requested,omitempty"`

	SubmittedUnixNano int64 `json:"submitted_unix_nano,omitempty"`
	StartedUnixNano   int64 `json:"started_unix_nano,omitempty"`
	FinishedUnixNano  int64 `json:"finished_unix_nano,omitempty"`

	// RunID is the content-addressed run-ledger record ID (done jobs).
	RunID string `json:"run_id,omitempty"`
	// Fingerprint is the deterministic trace digest (done jobs).
	Fingerprint string `json:"fingerprint,omitempty"`
	// Error is the failure (or cancellation) message of a failed job.
	Error string `json:"error,omitempty"`
	// Output is the flow's captured human-readable output (terminal jobs).
	Output string `json:"output,omitempty"`
}

// clone returns an independent copy (Args map included).
func (j *Job) clone() *Job {
	cp := *j
	if j.Args != nil {
		cp.Args = make(map[string]string, len(j.Args))
		for k, v := range j.Args {
			cp.Args[k] = v
		}
	}
	return &cp
}

// ErrCanceled is the cooperative-cancellation sentinel a job's CheckCancel
// hook returns; the executor maps it to StateCanceled.
var ErrCanceled = errors.New("jobs: job canceled")

// ErrNotFound reports an unknown job ID.
var ErrNotFound = errors.New("jobs: no such job")

// ErrTerminal reports an operation on a job that already finished.
var ErrTerminal = errors.New("jobs: job already finished")

// jobIDPattern pins the ID grammar URL routing accepts.
var jobIDPattern = regexp.MustCompile(`^j[0-9]{6,}$`)

// ValidID reports whether s is a well-formed job ID.
func ValidID(s string) bool { return jobIDPattern.MatchString(s) }

// jobID renders a sequence number as an ID.
func jobID(seq int64) string { return fmt.Sprintf("j%06d", seq) }
