package jobs_test

// Concurrency/load tests (run under -race in ci.sh): hundreds of small
// jobs across mixed priorities with random cancellations, asserting the
// executor's three contracts — exact priority dispatch order, a worker
// budget that is never exceeded, and no goroutine leaks — plus journal
// state that matches the in-memory outcome after shutdown.

import (
	"bufio"
	"bytes"
	"fmt"
	"log"
	"math/rand"
	"net/http"
	"regexp"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/jobs"
)

// syncBuffer is a goroutine-safe log sink.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// waitAllTerminal polls until every job in the server is terminal.
func waitAllTerminal(t *testing.T, srv *jobs.Server, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		pending := 0
		for _, j := range srv.List() {
			if !j.State.Terminal() {
				pending++
			}
		}
		if pending == 0 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("jobs did not all finish in time")
}

// waitGoroutinesSettle asserts the goroutine count returns to (near) the
// baseline — the leak check from the obs SSE tests.
func waitGoroutinesSettle(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= baseline+2 {
			return
		}
		runtime.Gosched()
		time.Sleep(20 * time.Millisecond)
	}
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	t.Fatalf("goroutines leaked: %d now vs %d baseline\n%s",
		runtime.NumGoroutine(), baseline, buf[:n])
}

var startLine = regexp.MustCompile(`(?m)^jobs: start (j\d+) `)

func TestLoadPrioritiesCancellationsBudget(t *testing.T) {
	const njobs = 220
	const budget = 4
	baseline := runtime.NumGoroutine()

	// Journal the full batch and its cancellations before a server boots
	// on it — the journal a stopped server leaves behind — so the boot
	// drains one fixed pending set in a deterministic dispatch order.
	queueDir := t.TempDir()
	q, err := jobs.Open(queueDir)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	type rec struct {
		id       string
		seq      int
		priority int
		canceled bool
	}
	var recs []*rec
	for i := 0; i < njobs; i++ {
		j, err := q.Submit(jobs.Submission{
			Flow:     "shmoo",
			Seed:     int64(1 + i%7),
			Args:     map[string]string{"tests": "1"},
			Parallel: 1 + rng.Intn(2),
			Priority: rng.Intn(5),
		})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		recs = append(recs, &rec{id: j.ID, seq: i, priority: j.Priority})
	}
	// Cancel a seeded-random ~20% before any dispatch, so every
	// cancellation deterministically hits a queued job.
	for _, r := range recs {
		if rng.Float64() < 0.2 {
			if _, _, err := q.Cancel(r.id); err != nil {
				t.Fatalf("cancel %s: %v", r.id, err)
			}
			r.canceled = true
		}
	}
	if err := q.Close(); err != nil {
		t.Fatal(err)
	}

	var logBuf syncBuffer
	srv, err := jobs.New(jobs.Options{
		QueueDir:  queueDir,
		RunDir:    t.TempDir(),
		Workers:   budget,
		Heartbeat: -1,
		Log:       log.New(&logBuf, "", 0),
	})
	if err != nil {
		t.Fatal(err)
	}
	waitAllTerminal(t, srv, 120*time.Second)

	// Outcomes: canceled jobs canceled, everything else done with a run ID.
	byID := map[string]*jobs.Job{}
	for _, j := range srv.List() {
		byID[j.ID] = j
	}
	if len(byID) != njobs {
		t.Fatalf("job count %d, want %d", len(byID), njobs)
	}
	for _, r := range recs {
		j := byID[r.id]
		if r.canceled {
			if j.State != jobs.StateCanceled {
				t.Fatalf("%s: state %s, want canceled", r.id, j.State)
			}
			continue
		}
		if j.State != jobs.StateDone || j.RunID == "" || j.Fingerprint == "" {
			t.Fatalf("%s: state %s (run %q), want done with a run ID; error %q",
				r.id, j.State, j.RunID, j.Error)
		}
	}

	// The worker budget is a hard ceiling.
	if max := srv.MaxBusyObserved(); max > budget || max < 1 {
		t.Fatalf("busy high-water %d, budget %d", max, budget)
	}

	// Exact priority order: the dispatcher's start log must equal the
	// non-canceled set sorted by (priority desc, submission asc). Strict
	// head-of-line dispatch makes this exact, not statistical.
	var want []string
	var survivors []*rec
	for _, r := range recs {
		if !r.canceled {
			survivors = append(survivors, r)
		}
	}
	sort.SliceStable(survivors, func(a, b int) bool {
		if survivors[a].priority != survivors[b].priority {
			return survivors[a].priority > survivors[b].priority
		}
		return survivors[a].seq < survivors[b].seq
	})
	for _, r := range survivors {
		want = append(want, r.id)
	}
	var got []string
	for _, m := range startLine.FindAllStringSubmatch(logBuf.String(), -1) {
		got = append(got, m[1])
	}
	if len(got) != len(want) {
		t.Fatalf("dispatched %d jobs, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("dispatch position %d: %s, want %s (priority order violated)", i, got[i], want[i])
		}
	}

	if err := srv.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	waitGoroutinesSettle(t, baseline)
}

// TestLoadJournalMatchesOutcome re-opens the journal after a full load run
// and checks the persisted states equal the served ones.
func TestLoadJournalMatchesOutcome(t *testing.T) {
	queueDir := t.TempDir()
	q, err := jobs.Open(queueDir)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 40; i++ {
		seed := int64(i)
		if seed == 0 {
			seed = 1 // the effective seed Server.Submit records for 0
		}
		j, err := q.Submit(jobs.Submission{
			Flow: "shmoo", Seed: seed, Args: map[string]string{"tests": "1"}, Priority: rng.Intn(3),
		})
		if err != nil {
			t.Fatal(err)
		}
		if rng.Intn(4) == 0 {
			if _, _, err := q.Cancel(j.ID); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := q.Close(); err != nil {
		t.Fatal(err)
	}
	srv, err := jobs.New(jobs.Options{QueueDir: queueDir, RunDir: t.TempDir(), Workers: 3, Heartbeat: -1})
	if err != nil {
		t.Fatal(err)
	}
	waitAllTerminal(t, srv, 60*time.Second)
	final := map[string]*jobs.Job{}
	for _, j := range srv.List() {
		final[j.ID] = j
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	q, err = jobs.Open(queueDir)
	if err != nil {
		t.Fatalf("reopen journal: %v", err)
	}
	defer q.Close()
	persisted := q.List()
	if len(persisted) != len(final) {
		t.Fatalf("journal has %d jobs, served %d", len(persisted), len(final))
	}
	for _, p := range persisted {
		f := final[p.ID]
		if f == nil {
			t.Fatalf("journal job %s never served", p.ID)
		}
		if p.State != f.State || p.RunID != f.RunID || p.Fingerprint != f.Fingerprint {
			t.Fatalf("journal %s: %s/%s/%s, served %s/%s/%s",
				p.ID, p.State, p.RunID, p.Fingerprint, f.State, f.RunID, f.Fingerprint)
		}
	}
}

// TestCancelRunningJob cancels a job after it started: it must land in
// canceled (caught at a phase boundary) or done (it beat the request) —
// never wedge — and the job behind it must still run. A job still queued
// behind both is canceled at once and never runs.
func TestCancelRunningJob(t *testing.T) {
	srv, err := jobs.New(jobs.Options{
		QueueDir: t.TempDir(), RunDir: t.TempDir(), Workers: 1, Heartbeat: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	long, err := srv.Submit(jobs.Submission{Flow: "optimize", Seed: 5, Args: map[string]string{"learn-tests": "12"}})
	if err != nil {
		t.Fatal(err)
	}
	next, err := srv.Submit(jobs.Submission{Flow: "shmoo", Seed: 6, Args: map[string]string{"tests": "2"}})
	if err != nil {
		t.Fatal(err)
	}
	queued, err := srv.Submit(jobs.Submission{Flow: "shmoo", Seed: 7, Args: map[string]string{"tests": "2"}})
	if err != nil {
		t.Fatal(err)
	}
	// Wait for the long job to actually start, then cancel it mid-run.
	deadline := time.Now().Add(30 * time.Second)
	for {
		j, err := srv.Get(long.ID)
		if err != nil {
			t.Fatal(err)
		}
		if j.State == jobs.StateRunning || j.State.Terminal() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("long job never started")
		}
		time.Sleep(time.Millisecond)
	}
	// The last job waits behind both others on the one-worker budget, so
	// its cancellation takes the queued path: canceled at once.
	if j, err := srv.Cancel(queued.ID); err != nil || j.State != jobs.StateCanceled {
		t.Fatalf("cancel queued: %+v, %v", j, err)
	}
	if _, err := srv.Cancel(long.ID); err != nil && err != jobs.ErrTerminal {
		t.Fatalf("cancel running: %v", err)
	}
	waitAllTerminal(t, srv, 60*time.Second)

	j, err := srv.Get(long.ID)
	if err != nil {
		t.Fatal(err)
	}
	if j.State != jobs.StateCanceled && j.State != jobs.StateDone {
		t.Fatalf("canceled running job: state %s, error %q", j.State, j.Error)
	}
	if j.State == jobs.StateCanceled && j.RunID != "" {
		t.Fatalf("canceled job has a ledger run ID %s", j.RunID)
	}
	n, err := srv.Get(next.ID)
	if err != nil {
		t.Fatal(err)
	}
	if n.State != jobs.StateDone {
		t.Fatalf("job behind the canceled one: state %s, error %q", n.State, n.Error)
	}
	if q, err := srv.Get(queued.ID); err != nil || q.State != jobs.StateCanceled || q.RunID != "" {
		t.Fatalf("canceled queued job: %+v, %v; want canceled without a run", q, err)
	}
}

// TestSSEStreamsReclaimed opens many SSE progress streams against a live
// job over HTTP and asserts every handler goroutine is reclaimed once the
// job finishes (the stream self-terminates on the done frame).
func TestSSEStreamsReclaimed(t *testing.T) {
	baseline := runtime.NumGoroutine()
	_, base := bootService(t, t.TempDir(), t.TempDir(), 2)

	j := submitHTTP(t, base, jobs.Submission{Flow: "optimize", Seed: 9, Args: map[string]string{"learn-tests": "14"}})

	const streams = 8
	var wg sync.WaitGroup
	errs := make(chan error, streams)
	for i := 0; i < streams; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Get(base + "/jobs/" + j.ID + "/progress?sse=1")
			if err != nil {
				errs <- err
				return
			}
			defer resp.Body.Close()
			sc := bufio.NewScanner(resp.Body)
			frames := 0
			for sc.Scan() {
				if bytes.HasPrefix(sc.Bytes(), []byte("event: progress")) {
					frames++
				}
			}
			if frames == 0 {
				errs <- fmt.Errorf("stream saw no progress frames")
			}
		}()
	}
	wg.Wait() // streams end on their own when the job reaches done
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	done := waitTerminal(t, base, j.ID)
	if done.State != jobs.StateDone {
		t.Fatalf("job state %s, error %q", done.State, done.Error)
	}

	waitGoroutinesSettleAfterCleanup(t, baseline)
}

// waitGoroutinesSettleAfterCleanup can't run the t.Cleanup-registered
// shutdown early, so it only asserts the SSE handler goroutines (the bulk)
// are gone; the two server goroutines die in cleanup.
func waitGoroutinesSettleAfterCleanup(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		// Idle keep-alive client connections pin server-side conn
		// goroutines; drop them so only real leaks remain.
		http.DefaultClient.CloseIdleConnections()
		// dispatcher + http server goroutines are still legitimately alive.
		if runtime.NumGoroutine() <= baseline+6 {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	t.Fatalf("SSE goroutines leaked: %d now vs %d baseline\n%s",
		runtime.NumGoroutine(), baseline, buf[:n])
}
