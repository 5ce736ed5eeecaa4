package parallel

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

func TestWorkersResolution(t *testing.T) {
	if got := Workers(0); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(0) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := Workers(-3); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(-3) = %d, want GOMAXPROCS", got)
	}
	if got := Workers(5); got != 5 {
		t.Errorf("Workers(5) = %d", got)
	}
	if got := Bound(8, 3); got != 3 {
		t.Errorf("Bound(8, 3) = %d, want 3", got)
	}
	if got := Bound(2, 100); got != 2 {
		t.Errorf("Bound(2, 100) = %d, want 2", got)
	}
}

// fleetOf builds the fleet shape a scheduling property is checked at: size
// 0 is the nil fleet (a fleet of one), anything else a fleet of that size.
// Close is nil-safe, so callers defer it unconditionally.
func fleetOf(size int) *Fleet {
	if size == 0 {
		return nil
	}
	return NewFleet(size)
}

func TestNilFleetIsAFleetOfOne(t *testing.T) {
	var f *Fleet
	if f.Size() != 1 {
		t.Errorf("nil fleet: Size %d, want 1", f.Size())
	}
	f.Close() // no-op, must not panic
}

func TestForEachCoversEveryIndexOnce(t *testing.T) {
	for _, size := range []int{0, 1, 3, 16} {
		const n = 200
		counts := make([]atomic.Int64, n)
		f := fleetOf(size)
		err := ForEachOn(f, n, func(i int) error {
			counts[i].Add(1)
			return nil
		})
		f.Close()
		if err != nil {
			t.Fatalf("size=%d: %v", size, err)
		}
		for i := range counts {
			if c := counts[i].Load(); c != 1 {
				t.Fatalf("size=%d: index %d ran %d times", size, i, c)
			}
		}
	}
}

func TestForEachSerialOrder(t *testing.T) {
	// A fleet of one — nil or sized 1 — executes tasks inline, in index
	// order.
	for _, size := range []int{0, 1} {
		var order []int
		f := fleetOf(size)
		err := ForEachOn(f, 10, func(i int) error {
			order = append(order, i)
			return nil
		})
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
		if len(order) != 10 {
			t.Fatalf("size=%d: ran %d of 10 tasks", size, len(order))
		}
		for i, v := range order {
			if i != v {
				t.Fatalf("size=%d: serial order broken: %v", size, order)
			}
		}
	}
}

func TestForEachBoundsConcurrency(t *testing.T) {
	const workers = 4
	f := NewFleet(workers)
	defer f.Close()
	var cur, peak atomic.Int64
	if err := ForEachOn(f, 100, func(int) error {
		c := cur.Add(1)
		for {
			p := peak.Load()
			if c <= p || peak.CompareAndSwap(p, c) {
				break
			}
		}
		defer cur.Add(-1)
		runtime.Gosched()
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > workers {
		t.Errorf("observed %d concurrent tasks, worker bound is %d", p, workers)
	}
}

func TestForEachOnLowestIndexErrorWins(t *testing.T) {
	for _, size := range []int{0, 1, 8} {
		wantErr := errors.New("task 3 failed")
		f := fleetOf(size)
		err := ForEachOn(f, 50, func(i int) error {
			switch i {
			case 3:
				return wantErr
			case 7, 20, 41:
				return fmt.Errorf("task %d failed", i)
			}
			return nil
		})
		f.Close()
		if !errors.Is(err, wantErr) {
			t.Errorf("size=%d: got %v, want lowest-index error %v", size, err, wantErr)
		}
	}
}

func TestRunOnWorkerConstructionError(t *testing.T) {
	// Worker 0's construction fails at every fleet size, so its error must
	// surface whether the stage runs inline or on goroutines.
	for _, size := range []int{0, 1, 4} {
		boom := errors.New("no resources")
		var ran atomic.Int32
		f := fleetOf(size)
		err := RunOn(f, 10, func(w int) (int, error) {
			if w == 0 {
				return 0, boom
			}
			return w, nil
		}, func(int, int) error { ran.Add(1); return nil })
		f.Close()
		if !errors.Is(err, boom) {
			t.Errorf("size=%d: worker construction error lost: %v", size, err)
		}
		if size < 2 && ran.Load() != 0 {
			t.Errorf("size=%d: inline stage ran %d tasks without a worker", size, ran.Load())
		}
	}
}

func TestRunOnWorkerOwnedResources(t *testing.T) {
	// Every worker gets its own resource; a task only ever sees the
	// resource of the worker that runs it.
	const n, workers = 64, 4
	var made atomic.Int64
	type res struct{ id int64 }
	var mu sync.Mutex
	seen := map[int64]int{}
	f := NewFleet(workers)
	defer f.Close()
	err := RunOn(f, n, func(int) (*res, error) {
		return &res{id: made.Add(1)}, nil
	}, func(r *res, i int) error {
		mu.Lock()
		seen[r.id]++
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if made.Load() > workers {
		t.Errorf("constructed %d resources for %d workers", made.Load(), workers)
	}
	total := 0
	for _, c := range seen {
		total += c
	}
	if total != n {
		t.Errorf("tasks seen %d, want %d", total, n)
	}
}

func TestRunOnZeroTasks(t *testing.T) {
	for _, size := range []int{0, 1, 4} {
		called := false
		f := fleetOf(size)
		err := RunOn(f, 0, func(int) (int, error) { called = true; return 0, nil },
			func(int, int) error { called = true; return nil })
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
		if called {
			t.Errorf("size=%d: zero-task run constructed a worker or ran a task", size)
		}
	}
}

func TestRunOnFewerTasksThanWorkers(t *testing.T) {
	// A stage engages at most min(size, n) workers: 3 tasks on a 16-worker
	// fleet never build more than 3 worker resources, and every task still
	// runs exactly once.
	f := NewFleet(16)
	defer f.Close()
	var built atomic.Int32
	var ran [3]atomic.Int32
	err := RunOn(f, 3,
		func(int) (int, error) { built.Add(1); return 0, nil },
		func(_ int, i int) error { ran[i].Add(1); return nil })
	if err != nil {
		t.Fatal(err)
	}
	if built.Load() > 3 {
		t.Errorf("%d workers built for 3 tasks", built.Load())
	}
	for i := range ran {
		if ran[i].Load() != 1 {
			t.Errorf("task %d ran %d times", i, ran[i].Load())
		}
	}
	if got := Bound(16, 3); got != 3 {
		t.Errorf("Bound(16, 3) = %d", got)
	}
}

func TestObserverReportsTaskCounts(t *testing.T) {
	var got []StreamStats
	SetFleetObserver(func(st StreamStats) {
		st.TasksPerWorker = append([]int(nil), st.TasksPerWorker...)
		got = append(got, st)
	})
	defer SetFleetObserver(nil)

	if err := ForEachOn(nil, 7, func(int) error { return nil }); err != nil {
		t.Fatal(err)
	}
	f := NewFleet(3)
	defer f.Close()
	if err := ForEachOn(f, 7, func(int) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("observer fired %d times, want 2", len(got))
	}
	if got[0].Workers != 1 || len(got[0].TasksPerWorker) != 1 || got[0].TasksPerWorker[0] != 7 {
		t.Errorf("inline run observation = %+v", got[0])
	}
	if got[1].Workers != 3 || len(got[1].TasksPerWorker) != 3 {
		t.Fatalf("parallel run observation = %+v", got[1])
	}
	sum := 0
	for _, c := range got[1].TasksPerWorker {
		sum += c
	}
	if sum != 7 {
		t.Errorf("per-worker counts sum to %d, want 7", sum)
	}

	SetFleetObserver(nil)
	if err := ForEachOn(f, 2, func(int) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Error("observer fired after uninstall")
	}
}

// runCatching runs a stage on a fleet of the given size (0 = nil) and
// recovers its re-panic.
func runCatching(t *testing.T, n, size int, task func(i int) error) (rec any) {
	t.Helper()
	f := fleetOf(size)
	defer f.Close()
	defer func() { rec = recover() }()
	err := ForEachOn(f, n, task)
	if err != nil {
		t.Fatalf("unexpected error instead of panic: %v", err)
	}
	return nil
}

func TestForEachOnPanicPropagatesLowestIndex(t *testing.T) {
	for _, workers := range []int{0, 1, 4} {
		var ran atomic.Int32
		rec := runCatching(t, 8, workers, func(i int) error {
			ran.Add(1)
			if i == 2 || i == 6 {
				panic(fmt.Sprintf("boom %d", i))
			}
			return nil
		})
		tp, ok := rec.(TaskPanic)
		if !ok {
			t.Fatalf("workers=%d: recovered %T (%v), want TaskPanic", workers, rec, rec)
		}
		if tp.Task != 2 || tp.Value != "boom 2" {
			t.Errorf("workers=%d: got TaskPanic{%d, %v}, want task 2", workers, tp.Task, tp.Value)
		}
		if !strings.Contains(tp.Error(), "task 2 panicked: boom 2") {
			t.Errorf("workers=%d: unhelpful message %q", workers, tp.Error())
		}
		// The winning panic carries the stack captured at recover time, so a
		// crash report can show the original frame, not the fleet's re-panic.
		if !strings.Contains(string(tp.Stack), "panic") {
			t.Errorf("workers=%d: TaskPanic.Stack missing the panic frame:\n%s", workers, tp.Stack)
		}
		// The multi-worker path runs every task despite the panics; the
		// inline path stops at the first one (index order, so equally
		// deterministic).
		if workers <= 1 && ran.Load() != 3 {
			t.Errorf("inline run executed %d tasks before the panic, want 3", ran.Load())
		}
		if workers > 1 && ran.Load() != 8 {
			t.Errorf("multi-worker run executed %d of 8 tasks", ran.Load())
		}
	}
}

func TestForEachOnPanicUnwrapsErrorValue(t *testing.T) {
	for _, size := range []int{0, 1, 2} {
		sentinel := errors.New("wrapped cause")
		rec := runCatching(t, 2, size, func(i int) error {
			if i == 1 {
				panic(sentinel)
			}
			return nil
		})
		tp, ok := rec.(TaskPanic)
		if !ok {
			t.Fatalf("size=%d: recovered %T, want TaskPanic", size, rec)
		}
		if !errors.Is(tp, sentinel) {
			t.Errorf("size=%d: TaskPanic does not unwrap to the panicked error", size)
		}
	}
}

func TestForEachOnPanicBeatsError(t *testing.T) {
	// On a multi-worker fleet every task runs, and a panic anywhere
	// outranks task errors: the caller must not mistake a crashed stage for
	// a cleanly failed one. (A fleet of one stops at the first failure in
	// index order — see TestStreamPanicDeterministicLowestIndex.)
	for _, size := range []int{2, 4} {
		rec := runCatching(t, 4, size, func(i int) error {
			if i == 0 {
				return errors.New("ordinary failure")
			}
			if i == 3 {
				panic("late crash")
			}
			return nil
		})
		tp, ok := rec.(TaskPanic)
		if !ok || tp.Task != 3 {
			t.Fatalf("size=%d: recovered %v, want TaskPanic for task 3", size, rec)
		}
	}
}

func TestForEachPanicPropagates(t *testing.T) {
	for _, size := range []int{0, 1, 3} {
		rec := runCatching(t, 3, size, func(i int) error {
			if i == 1 {
				panic("fe")
			}
			return nil
		})
		if tp, ok := rec.(TaskPanic); !ok || tp.Task != 1 {
			t.Errorf("size=%d: ForEachOn panic not propagated as TaskPanic: %v", size, rec)
		}
	}
}
