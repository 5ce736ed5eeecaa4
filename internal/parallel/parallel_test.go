package parallel

import (
	"errors"
	"fmt"
	"runtime"
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
	if f.Size() != 1 || f.Window() != 0 {
		t.Errorf("nil fleet: Size %d Window %d, want 1 and 0", f.Size(), f.Window())
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

func TestMemoCache(t *testing.T) {
	c := NewMemoCache()
	if _, ok := c.Get(42); ok {
		t.Error("empty cache reported a hit")
	}
	c.Put(42, 1.5)
	v, ok := c.Get(42)
	if !ok || v != 1.5 {
		t.Errorf("Get(42) = %v, %v", v, ok)
	}
	c.Put(42, 2.5)
	if v, _ := c.Get(42); v != 2.5 {
		t.Errorf("overwrite lost: %v", v)
	}
	if c.Len() != 1 {
		t.Errorf("Len = %d", c.Len())
	}
	if c.Hits() != 2 || c.Misses() != 1 {
		t.Errorf("hits/misses = %d/%d, want 2/1", c.Hits(), c.Misses())
	}
}

func TestMemoCacheConcurrent(t *testing.T) {
	// Exercised under -race: concurrent readers and writers must be safe.
	c := NewMemoCache()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				key := uint64(i % 37)
				if g%2 == 0 {
					c.Put(key, float64(i))
				} else {
					c.Get(key)
				}
			}
		}(g)
	}
	wg.Wait()
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
