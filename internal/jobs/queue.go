package jobs

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/frame"
)

// Queue is the crash-safe persistent job queue. Every state transition
// appends one JSON entry to a journal as an internal/frame frame (length
// prefix, payload, trailing checksum), fsync'd per append, so
// a killed server reopens the journal and resumes exactly the pending set:
// queued jobs stay queued, jobs caught mid-run return to the queue, and a
// cancellation that raced the crash wins. A torn final frame — the only
// damage a crash mid-append can cause — is tolerated and truncated away;
// corruption anywhere earlier means the file was tampered with or the disk
// is lying, and the queue refuses to load rather than guess.
type Queue struct {
	mu      sync.Mutex
	dir     string
	f       *os.File
	jobs    map[string]*Job
	nextSeq int64
}

const (
	// journalMagic identifies (and versions) the journal format.
	journalMagic = "RPROJOB1"
	// journalName is the journal's filename inside the queue dir.
	journalName = "jobs.journal"
	// maxEntryLen bounds one journal frame; anything larger is corruption,
	// not a job (the largest legitimate entry is a Job with a small Args
	// map and a captured-output tail).
	maxEntryLen = 1 << 20
)

// journalEntry is one journal frame: a job state transition.
type journalEntry struct {
	// Op: "submit", "start", "finish" or "cancel".
	Op string `json:"op"`
	// Job carries the full record on submit (and on compaction, where the
	// stored State is authoritative).
	Job *Job `json:"job,omitempty"`
	// ID targets an existing job for start/finish/cancel.
	ID string `json:"id,omitempty"`
	// State is the terminal state on finish.
	State       State  `json:"state,omitempty"`
	RunID       string `json:"run_id,omitempty"`
	Fingerprint string `json:"fingerprint,omitempty"`
	Error       string `json:"error,omitempty"`
	Output      string `json:"output,omitempty"`
	// At is the transition's wall-clock unix-nano timestamp.
	At int64 `json:"at,omitempty"`
}

// encodeEntry renders one entry as a frame carrying its JSON.
func encodeEntry(e journalEntry) ([]byte, error) {
	payload, err := json.Marshal(e)
	if err != nil {
		return nil, fmt.Errorf("jobs: encode journal entry: %w", err)
	}
	if len(payload) > maxEntryLen {
		return nil, fmt.Errorf("jobs: journal entry too large (%d bytes)", len(payload))
	}
	return frame.Append(nil, payload), nil
}

// loadJournal decodes every intact frame of data (the bytes after the
// magic). It returns the decoded entries and the byte offset of the last
// intact frame, so callers can truncate a torn tail. Damage that cannot be
// a torn tail — a checksum mismatch or an impossible length before the
// final frame, or a damaged length that swallows later intact frames — is
// a hard error: replaying past silent corruption would resurrect or lose
// jobs.
func loadJournal(data []byte) (entries []journalEntry, goodLen int, err error) {
	for off := 0; off < len(data); {
		payload, size, err := frame.Next(data[off:], maxEntryLen)
		torn := errors.Is(err, frame.ErrTruncated) || (err != nil && off+size == len(data))
		if torn && !frameAfter(data, off) {
			// Torn tail: the final append was cut off mid-write, or its
			// last bytes never reached the disk.
			return entries, off, nil
		}
		if err != nil {
			return entries, off, fmt.Errorf("jobs: corrupt journal at offset %d: %w", off, err)
		}
		var e journalEntry
		if err := json.Unmarshal(payload, &e); err != nil {
			return entries, off, fmt.Errorf("jobs: journal entry at offset %d: %w", off, err)
		}
		entries = append(entries, e)
		off += size
	}
	return entries, len(data), nil
}

// frameAfter reports whether a frame that frame.Next accepts starts
// anywhere past off. A torn tail is the prefix of one frame, so it holds
// none, bar a CRC-32 collision; a flipped length bit that reaches past
// later frames leaves them intact. Only the error path scans.
func frameAfter(data []byte, off int) bool {
	for p := off + 1; p < len(data); p++ {
		if _, _, err := frame.Next(data[p:], maxEntryLen); err == nil {
			return true
		}
	}
	return false
}

// replay folds journal entries into the job map. Unknown IDs and
// out-of-order transitions are hard errors — a journal the queue wrote
// itself never contains them.
func replay(entries []journalEntry) (map[string]*Job, int64, error) {
	jobs := make(map[string]*Job)
	var nextSeq int64 = 1
	for i, e := range entries {
		switch e.Op {
		case "submit":
			if e.Job == nil || e.Job.ID == "" {
				return nil, 0, fmt.Errorf("jobs: journal entry %d: submit without job", i)
			}
			j := e.Job.clone()
			if j.State == "" {
				j.State = StateQueued
			}
			if !j.State.valid() {
				return nil, 0, fmt.Errorf("jobs: journal entry %d: unknown state %q", i, j.State)
			}
			jobs[j.ID] = j
			if j.Seq >= nextSeq {
				nextSeq = j.Seq + 1
			}
		case "start":
			j, ok := jobs[e.ID]
			if !ok {
				return nil, 0, fmt.Errorf("jobs: journal entry %d: start of unknown job %q", i, e.ID)
			}
			j.State = StateRunning
			j.StartedUnixNano = e.At
		case "finish":
			j, ok := jobs[e.ID]
			if !ok {
				return nil, 0, fmt.Errorf("jobs: journal entry %d: finish of unknown job %q", i, e.ID)
			}
			if !e.State.Terminal() {
				return nil, 0, fmt.Errorf("jobs: journal entry %d: finish with non-terminal state %q", i, e.State)
			}
			j.State = e.State
			j.RunID = e.RunID
			j.Fingerprint = e.Fingerprint
			j.Error = e.Error
			j.Output = e.Output
			j.FinishedUnixNano = e.At
			j.CancelRequested = false
		case "cancel":
			j, ok := jobs[e.ID]
			if !ok {
				return nil, 0, fmt.Errorf("jobs: journal entry %d: cancel of unknown job %q", i, e.ID)
			}
			switch {
			case j.State == StateQueued:
				j.State = StateCanceled
				j.FinishedUnixNano = e.At
			case j.State == StateRunning:
				j.CancelRequested = true
			}
		default:
			return nil, 0, fmt.Errorf("jobs: journal entry %d: unknown op %q", i, e.Op)
		}
	}
	return jobs, nextSeq, nil
}

// Open loads (or creates) the queue journal in dir, resumes the pending
// set, and compacts the journal down to one entry per live job. Jobs that
// were running when the previous process died go back to the queue — their
// partial run wrote nothing durable (the ledger finalizes atomically) — and
// a running job whose cancellation was journalled before the crash lands
// in canceled, not back in the queue.
func Open(dir string) (*Queue, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("jobs: create queue dir: %w", err)
	}
	path := filepath.Join(dir, journalName)
	data, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, fmt.Errorf("jobs: read journal: %w", err)
	}
	var jobs map[string]*Job
	var nextSeq int64 = 1
	if len(data) > 0 {
		if err := frame.CheckMagic(data, journalMagic); err != nil {
			return nil, fmt.Errorf("jobs: %s is not a job journal: %w", path, err)
		}
		entries, _, err := loadJournal(data[len(journalMagic):])
		if err != nil {
			return nil, err
		}
		jobs, nextSeq, err = replay(entries)
		if err != nil {
			return nil, err
		}
		for _, j := range jobs {
			if j.State != StateRunning {
				continue
			}
			if j.CancelRequested {
				j.State = StateCanceled
				j.CancelRequested = false
				j.Error = ErrCanceled.Error()
				j.FinishedUnixNano = time.Now().UnixNano()
			} else {
				j.State = StateQueued
				j.StartedUnixNano = 0
			}
		}
	} else {
		jobs = make(map[string]*Job)
	}

	// Compact: publish the surviving state as one submit entry per job,
	// then append from there. This bounds the journal and folds the resume
	// transitions into durable state.
	compacted := []byte(journalMagic)
	for _, j := range sortedBySeq(jobs) {
		entry, err := encodeEntry(journalEntry{Op: "submit", Job: j})
		if err != nil {
			return nil, err
		}
		compacted = append(compacted, entry...)
	}
	if err := frame.Publish(path, compacted); err != nil {
		return nil, fmt.Errorf("jobs: compact journal: %w", err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("jobs: open journal: %w", err)
	}
	return &Queue{dir: dir, f: f, jobs: jobs, nextSeq: nextSeq}, nil
}

// sortedBySeq returns the jobs in submission order.
func sortedBySeq(jobs map[string]*Job) []*Job {
	out := make([]*Job, 0, len(jobs))
	for _, j := range jobs {
		out = append(out, j)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Seq < out[b].Seq })
	return out
}

// append journals one entry durably (fsync before the transition is
// acknowledged). Caller holds q.mu.
func (q *Queue) append(e journalEntry) error {
	frame, err := encodeEntry(e)
	if err != nil {
		return err
	}
	if _, err := q.f.Write(frame); err != nil {
		return fmt.Errorf("jobs: append journal: %w", err)
	}
	if err := q.f.Sync(); err != nil {
		return fmt.Errorf("jobs: sync journal: %w", err)
	}
	return nil
}

// Submit journals a new queued job and returns its record.
func (q *Queue) Submit(sub Submission) (*Job, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	j := &Job{
		Seq:               q.nextSeq,
		ID:                jobID(q.nextSeq),
		Submission:        sub,
		Workers:           normalizeWorkers(sub.Parallel),
		State:             StateQueued,
		SubmittedUnixNano: time.Now().UnixNano(),
	}
	if err := q.append(journalEntry{Op: "submit", Job: j}); err != nil {
		return nil, err
	}
	q.nextSeq++
	q.jobs[j.ID] = j
	return j.clone(), nil
}

// normalizeWorkers resolves a submission's Parallel into a worker claim.
func normalizeWorkers(parallel int) int {
	if parallel < 1 {
		return 1
	}
	return parallel
}

// Start journals the queued→running transition.
func (q *Queue) Start(id string) (*Job, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	j, ok := q.jobs[id]
	if !ok {
		return nil, ErrNotFound
	}
	if j.State != StateQueued {
		return nil, fmt.Errorf("jobs: start %s: job is %s, not queued", id, j.State)
	}
	at := time.Now().UnixNano()
	if err := q.append(journalEntry{Op: "start", ID: id, At: at}); err != nil {
		return nil, err
	}
	j.State = StateRunning
	j.StartedUnixNano = at
	return j.clone(), nil
}

// Finish journals a running job's terminal transition.
func (q *Queue) Finish(id string, state State, runID, fingerprint, errMsg, output string) (*Job, error) {
	if !state.Terminal() {
		return nil, fmt.Errorf("jobs: finish %s with non-terminal state %q", id, state)
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	j, ok := q.jobs[id]
	if !ok {
		return nil, ErrNotFound
	}
	if j.State.Terminal() {
		return nil, ErrTerminal
	}
	at := time.Now().UnixNano()
	if err := q.append(journalEntry{
		Op: "finish", ID: id, State: state,
		RunID: runID, Fingerprint: fingerprint, Error: errMsg, Output: output, At: at,
	}); err != nil {
		return nil, err
	}
	j.State = state
	j.RunID = runID
	j.Fingerprint = fingerprint
	j.Error = errMsg
	j.Output = output
	j.FinishedUnixNano = at
	j.CancelRequested = false
	return j.clone(), nil
}

// Cancel journals a cancellation. A queued job lands in canceled
// immediately (canceledNow true); a running job gets CancelRequested set
// and finishes through Finish once the flow observes the request at its
// next phase boundary.
func (q *Queue) Cancel(id string) (j *Job, canceledNow bool, err error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	job, ok := q.jobs[id]
	if !ok {
		return nil, false, ErrNotFound
	}
	if job.State.Terminal() {
		return nil, false, ErrTerminal
	}
	at := time.Now().UnixNano()
	if err := q.append(journalEntry{Op: "cancel", ID: id, At: at}); err != nil {
		return nil, false, err
	}
	if job.State == StateQueued {
		job.State = StateCanceled
		job.Error = ErrCanceled.Error()
		job.FinishedUnixNano = at
		return job.clone(), true, nil
	}
	job.CancelRequested = true
	return job.clone(), false, nil
}

// Get returns a copy of one job.
func (q *Queue) Get(id string) (*Job, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	j, ok := q.jobs[id]
	if !ok {
		return nil, ErrNotFound
	}
	return j.clone(), nil
}

// List returns copies of every job in submission order.
func (q *Queue) List() []*Job {
	q.mu.Lock()
	defer q.mu.Unlock()
	out := sortedBySeq(q.jobs)
	for i, j := range out {
		out[i] = j.clone()
	}
	return out
}

// NextRunnable returns the queued job that should dispatch next — highest
// priority first, submission order within a priority — or nil when the
// queue holds no queued jobs. The executor dispatches strictly from this
// head: a head too wide for the remaining worker budget blocks lower
// priorities behind it rather than being overtaken.
func (q *Queue) NextRunnable() *Job {
	q.mu.Lock()
	defer q.mu.Unlock()
	var best *Job
	for _, j := range q.jobs {
		if j.State != StateQueued {
			continue
		}
		if best == nil || j.Priority > best.Priority || (j.Priority == best.Priority && j.Seq < best.Seq) {
			best = j
		}
	}
	if best == nil {
		return nil
	}
	return best.clone()
}

// Close releases the journal handle. The queue is unusable afterwards.
func (q *Queue) Close() error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.f == nil {
		return nil
	}
	err := q.f.Close()
	q.f = nil
	return err
}
