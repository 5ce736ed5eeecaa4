package parallel

import (
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"
)

// Fleet is a persistent deterministic worker pool: the goroutines are
// created once and survive across any number of execution stages, so
// worker-owned resources (forked tester insertions, scratch arenas) that a
// caller memoizes by worker index are constructed once per run instead of
// once per batch. Stages run through Stream/RunOn/ForEachOn under the
// package's determinism contract — index-addressed results, per-task seeds,
// bit-identical output at any worker count — with strictly in-order result
// delivery while later tasks are still executing, which is what lets batch
// barriers (per GA generation, per shmoo test, per lot stage) become a
// pipeline.
//
// Worker index w is always served by the same goroutine, so a resource a
// caller memoizes under index w is never touched by two goroutines, even
// across stages. A fleet runs one stage at a time (concurrent Stream calls
// serialize); a task must never start a stage on its own fleet — use a
// separate fleet for nested parallelism.
//
// A nil *Fleet is a valid fleet of one: every stage runs inline on the
// calling goroutine, with no goroutines, locks or Close needed, so serial
// callers pass nil instead of wrapping their loop.
type Fleet struct {
	nw int

	mu      sync.Mutex // guards start/close state
	chans   []chan *stage
	wg      sync.WaitGroup
	started bool
	closed  bool

	streamMu sync.Mutex // one stage in flight at a time
}

// NewFleet creates a fleet with Workers(workers) persistent workers. The
// worker goroutines spawn lazily on the first multi-worker stage; a fleet
// sized 1 never spawns any and executes every stage inline on the calling
// goroutine, exactly like a nil fleet. Close releases the goroutines when
// the run is over.
func NewFleet(workers int) *Fleet {
	return &Fleet{nw: Workers(workers)}
}

// Size returns the worker count (1 for a nil fleet).
func (f *Fleet) Size() int {
	if f == nil {
		return 1
	}
	return f.nw
}

// Close shuts the worker goroutines down and waits for them to exit.
// Idempotent and nil-safe. A closed fleet must not be streamed on again.
func (f *Fleet) Close() {
	if f == nil {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return
	}
	f.closed = true
	if f.started {
		for _, ch := range f.chans {
			close(ch)
		}
	}
	f.wg.Wait()
}

// start spawns the persistent workers (called with f.mu held).
func (f *Fleet) start() {
	f.chans = make([]chan *stage, f.nw)
	for w := 0; w < f.nw; w++ {
		// Buffer 1: a stage is fully drained before Stream returns, so the
		// next stage's broadcast never blocks on a busy worker.
		ch := make(chan *stage, 1)
		f.chans[w] = ch
		f.wg.Add(1)
		go func(w int, ch chan *stage) {
			defer f.wg.Done()
			for st := range ch {
				st.work(w)
			}
		}(w, ch)
	}
	f.started = true
}

// StreamStats is the scheduling summary of one fleet stage, reported to the
// fleet observer. Everything here depends on goroutine scheduling and
// wall-clock time, so consumers must quarantine it with the other
// non-deterministic diagnostics (nd_ metrics); task results are
// bit-identical regardless.
type StreamStats struct {
	Workers int // workers that participated in the stage
	Tasks   int
	// TasksPerWorker is how many tasks each participating worker ran (len
	// Workers, summing to Tasks).
	TasksPerWorker []int
	// MaxRunAhead is the high-water mark of claimed-but-undelivered tasks —
	// the observed pipeline queue depth.
	MaxRunAhead int
	// BusyNanos is the summed task execution time across workers; WallNanos
	// is the stage's wall time. BusyNanos/(Workers*WallNanos) is the worker
	// utilization.
	BusyNanos int64
	WallNanos int64
	// DeliverNanos is the time spent inside the in-order deliver callback;
	// OverlapNanos is the portion of it during which at least one task was
	// still executing — the pipeline overlap a batch barrier would have
	// serialized.
	DeliverNanos int64
	OverlapNanos int64
}

// Utilization returns the mean busy fraction of the stage's workers.
func (s StreamStats) Utilization() float64 {
	if s.Workers <= 0 || s.WallNanos <= 0 {
		return 0
	}
	return float64(s.BusyNanos) / (float64(s.Workers) * float64(s.WallNanos))
}

// OverlapRatio returns the fraction of delivery time that overlapped task
// execution (0 when nothing was delivered).
func (s StreamStats) OverlapRatio() float64 {
	if s.DeliverNanos <= 0 {
		return 0
	}
	return float64(s.OverlapNanos) / float64(s.DeliverNanos)
}

// FleetObserver receives the scheduling summary of every completed fleet
// stage.
type FleetObserver func(StreamStats)

var fleetObserver atomic.Pointer[FleetObserver]

// SetFleetObserver installs the process-wide fleet observer (nil
// uninstalls). Intended for top-level run instrumentation (CLI telemetry),
// not libraries: there is one slot, and tests that run fleets concurrently
// should leave it unset.
func SetFleetObserver(fn FleetObserver) {
	if fn == nil {
		fleetObserver.Store(nil)
		return
	}
	fleetObserver.Store(&fn)
}

// stage is one Stream execution: tasks 0..n-1 claimed in index order by the
// participating workers, with completion flags signalled to the delivering
// caller. Claims never wait on delivery; floor only measures how far they
// run ahead of it.
type stage struct {
	n       int
	workers int // participants: min(fleet size, n)

	init func(w int) error // constructs/fetches worker w's resource
	run  func(w, i int)    // executes task i on worker w's resource

	mu       sync.Mutex
	cond     sync.Cond
	next     int // next unclaimed task index
	floor    int // tasks delivered so far
	failures int // workers whose init failed
	maxAhead int // high-water of next-floor (queue depth)
	done     []uint8

	timed    bool // collect wall-clock stats for the fleet observer
	inFlight atomic.Int32
	busy     atomic.Int64

	wg sync.WaitGroup
}

// work is one worker's participation in a stage.
func (st *stage) work(w int) {
	defer st.wg.Done()
	if w >= st.workers {
		return
	}
	if err := st.init(w); err != nil {
		st.mu.Lock()
		st.failures++
		st.cond.Broadcast()
		st.mu.Unlock()
		return
	}
	for {
		st.mu.Lock()
		i := st.next
		if i >= st.n {
			st.mu.Unlock()
			return
		}
		st.next++
		if ahead := st.next - st.floor; ahead > st.maxAhead {
			st.maxAhead = ahead
		}
		st.mu.Unlock()
		if st.timed {
			st.inFlight.Add(1)
			t0 := time.Now()
			st.run(w, i)
			st.busy.Add(int64(time.Since(t0)))
			st.inFlight.Add(-1)
		} else {
			st.run(w, i)
		}
		st.mu.Lock()
		st.done[i] = 1
		st.cond.Broadcast()
		st.mu.Unlock()
	}
}

// Stream executes tasks 0..n-1 on the fleet and delivers their results
// strictly in index order while later tasks are still executing. Each
// participating worker obtains its resource via newWorker (memoize by
// worker index for resources that should persist across stages); task runs
// out of order into index-addressed slots; deliver (nil to skip) is invoked
// on the calling goroutine for i = 0, 1, 2, … as soon as task i and every
// task before it have finished, so serial merge work (stats accumulation,
// memo-cache inserts, telemetry emission) overlaps the remaining execution
// instead of waiting behind a batch barrier. Deliveries — and therefore
// every side effect of the merge — happen in the same order at any worker
// count.
//
// Error semantics: with several workers every task still runs when some
// fail (delivery stops at the first failed index); the lowest-index task
// panic is re-panicked as a TaskPanic after the stage drains; otherwise the
// lowest-worker construction error, then the lowest-index task error, then
// the first deliver error is returned. A fleet of one (nil or sized 1) runs
// tasks and deliveries interleaved in index order and stops at the first
// panic or error.
func Stream[W any](f *Fleet, n int, newWorker func(w int) (W, error), task func(wk W, i int) error, deliver func(i int) error) error {
	if n <= 0 {
		return nil
	}
	if f != nil {
		f.streamMu.Lock()
		defer f.streamMu.Unlock()
	}

	fobs := fleetObserver.Load()
	var wallStart time.Time
	if fobs != nil {
		wallStart = time.Now()
	}

	panics := make([]any, n)
	stacks := make([][]byte, n)
	taskErrs := make([]error, n)

	if f == nil || f.nw == 1 {
		// Inline path: no goroutines, tasks and deliveries interleave in
		// index order on the calling goroutine, stopping at the first panic
		// or error. Under an observer, task and delivery time are lapped
		// separately; nothing overlaps, so OverlapNanos stays 0.
		wk, err := newWorker(0)
		if err != nil {
			return err
		}
		var busy, deliverNanos int64
		var clock time.Time
		if fobs != nil {
			clock = time.Now()
		}
		for i := 0; i < n; i++ {
			err := runStreamTask(wk, i, task, panics, stacks)
			if fobs != nil {
				busy += lap(&clock)
			}
			if panics[i] != nil {
				panic(TaskPanic{Task: i, Value: panics[i], Stack: stacks[i]})
			}
			if err != nil {
				return err
			}
			if deliver != nil {
				err := deliver(i)
				if fobs != nil {
					deliverNanos += lap(&clock)
				}
				if err != nil {
					return err
				}
			}
		}
		if fobs != nil {
			(*fobs)(StreamStats{Workers: 1, Tasks: n, TasksPerWorker: []int{n}, MaxRunAhead: 1,
				BusyNanos: busy, WallNanos: int64(time.Since(wallStart)), DeliverNanos: deliverNanos})
		}
		return nil
	}

	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		panic("parallel: Stream on a closed Fleet")
	}
	if !f.started {
		f.start()
	}
	f.mu.Unlock()

	np := f.nw
	if np > n {
		np = n
	}
	res := make([]W, np)
	resInit := make([]bool, np)
	workerErrs := make([]error, np)
	taskCounts := make([]int, np)

	st := &stage{n: n, workers: np, timed: fobs != nil, done: make([]uint8, n)}
	st.cond.L = &st.mu
	st.init = func(w int) error {
		if !resInit[w] {
			wk, err := newWorker(w)
			if err != nil {
				workerErrs[w] = err
				return err
			}
			res[w] = wk
			resInit[w] = true
		}
		return nil
	}
	st.run = func(w, i int) {
		taskCounts[w]++
		taskErrs[i] = runStreamTask(res[w], i, task, panics, stacks)
	}

	st.wg.Add(f.nw)
	for _, ch := range f.chans {
		ch <- st
	}

	// In-order delivery while the workers keep executing. Stops at the
	// first failed index (or deliver error); the workers drain the rest
	// regardless.
	var deliverErr error
	var deliverNanos, overlapNanos int64
	st.mu.Lock()
	for i := 0; i < n; i++ {
		for st.done[i] == 0 && st.failures < st.workers {
			st.cond.Wait()
		}
		if st.done[i] == 0 { // every worker failed construction; nothing ran
			break
		}
		if panics[i] != nil || taskErrs[i] != nil {
			break
		}
		if deliver != nil {
			st.mu.Unlock()
			if st.timed {
				executing := st.inFlight.Load() > 0
				t0 := time.Now()
				deliverErr = deliver(i)
				d := int64(time.Since(t0))
				deliverNanos += d
				if executing {
					overlapNanos += d
				}
			} else {
				deliverErr = deliver(i)
			}
			st.mu.Lock()
			if deliverErr != nil {
				break
			}
		}
		st.floor = i + 1
	}
	st.mu.Unlock()
	st.wg.Wait()

	for i, r := range panics {
		if r != nil {
			panic(TaskPanic{Task: i, Value: r, Stack: stacks[i]})
		}
	}
	if fobs != nil {
		(*fobs)(StreamStats{
			Workers:        np,
			Tasks:          n,
			TasksPerWorker: taskCounts,
			MaxRunAhead:    st.maxAhead,
			BusyNanos:      st.busy.Load(),
			WallNanos:      int64(time.Since(wallStart)),
			DeliverNanos:   deliverNanos,
			OverlapNanos:   overlapNanos,
		})
	}
	for _, err := range workerErrs {
		if err != nil {
			return err
		}
	}
	for _, err := range taskErrs {
		if err != nil {
			return err
		}
	}
	return deliverErr
}

// lap returns the nanoseconds elapsed since *t and moves *t to now.
func lap(t *time.Time) int64 {
	now := time.Now()
	d := int64(now.Sub(*t))
	*t = now
	return d
}

// runStreamTask executes one task with panic capture (shared by the inline
// and fleet paths).
func runStreamTask[W any](wk W, i int, task func(wk W, i int) error, panics []any, stacks [][]byte) (err error) {
	defer func() {
		if r := recover(); r != nil {
			panics[i] = r
			stacks[i] = debug.Stack()
		}
	}()
	return task(wk, i)
}

// RunOn executes tasks 0..n-1 on the fleet with no delivery callback; every
// task's index-addressed output is complete when it returns.
func RunOn[W any](f *Fleet, n int, newWorker func(w int) (W, error), task func(wk W, i int) error) error {
	return Stream(f, n, newWorker, task, nil)
}

// ForEachOn runs fn(i) for every i in [0, n) on the fleet, for tasks that
// need no worker-owned resource.
func ForEachOn(f *Fleet, n int, fn func(i int) error) error {
	return Stream(f, n, func(int) (struct{}, error) { return struct{}{}, nil },
		func(_ struct{}, i int) error { return fn(i) }, nil)
}
