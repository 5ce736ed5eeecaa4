package parallel

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
)

func TestRunFewerTasksThanWorkers(t *testing.T) {
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

func TestRunNegativeTaskCount(t *testing.T) {
	for _, size := range []int{0, 2} {
		called := false
		f := fleetOf(size)
		err := Stream(f, -4,
			func(int) (int, error) { called = true; return 0, nil },
			func(int, int) error { called = true; return nil },
			func(int) error { called = true; return nil })
		f.Close()
		if err != nil || called {
			t.Fatalf("size=%d: negative task count: err=%v called=%v", size, err, called)
		}
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

func TestRunPanicPropagatesLowestIndex(t *testing.T) {
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
		// crash report can show the original frame, not the pool's re-panic.
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
			t.Errorf("pooled run executed %d of 8 tasks", ran.Load())
		}
	}
}

func TestRunPanicUnwrapsErrorValue(t *testing.T) {
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

func TestRunPanicBeatsError(t *testing.T) {
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

func TestMemoCacheLimitRejectsNewAtCapacity(t *testing.T) {
	c := NewMemoCache()
	c.SetLimit(2)
	if c.Limit() != 2 {
		t.Fatalf("Limit() = %d", c.Limit())
	}
	c.Put(1, 1.0)
	c.Put(2, 2.0)
	c.Put(3, 3.0) // at capacity: new key rejected
	if c.Len() != 2 {
		t.Errorf("Len() = %d after capped insert, want 2", c.Len())
	}
	if _, ok := c.Get(3); ok {
		t.Error("rejected key 3 is resident")
	}
	if c.Dropped() != 1 {
		t.Errorf("Dropped() = %d, want 1", c.Dropped())
	}
	// Overwrites of resident keys still land at capacity.
	c.Put(2, 22.0)
	if v, ok := c.Get(2); !ok || v != 22.0 {
		t.Errorf("overwrite at capacity lost: %v %v", v, ok)
	}
	if c.Dropped() != 1 {
		t.Errorf("overwrite counted as drop: Dropped() = %d", c.Dropped())
	}
	// Raising the cap admits new keys again.
	c.SetLimit(3)
	c.Put(3, 3.0)
	if v, ok := c.Get(3); !ok || v != 3.0 {
		t.Error("key rejected below capacity")
	}
}

func TestMemoCacheSetLimitBelowCurrentSize(t *testing.T) {
	c := NewMemoCache()
	for k := uint64(0); k < 5; k++ {
		c.Put(k, float64(k))
	}
	c.SetLimit(2)
	if c.Len() != 5 {
		t.Errorf("shrinking the cap evicted entries: Len() = %d", c.Len())
	}
	c.Put(9, 9.0)
	if _, ok := c.Get(9); ok {
		t.Error("new key admitted above the cap")
	}
	for k := uint64(0); k < 5; k++ {
		if v, ok := c.Get(k); !ok || v != float64(k) {
			t.Errorf("resident key %d lost after cap shrink", k)
		}
	}
}

func TestMemoCacheReset(t *testing.T) {
	c := NewMemoCache()
	c.SetLimit(1)
	c.Put(1, 1.0)
	c.Put(2, 2.0) // dropped
	c.Get(1)      // hit
	c.Get(7)      // miss
	c.Reset()
	if c.Len() != 0 || c.Hits() != 0 || c.Misses() != 0 || c.Dropped() != 0 {
		t.Errorf("Reset left state: len=%d hits=%d misses=%d dropped=%d",
			c.Len(), c.Hits(), c.Misses(), c.Dropped())
	}
	if c.Limit() != 1 {
		t.Errorf("Reset cleared the limit: %d", c.Limit())
	}
	c.Put(3, 3.0)
	if v, ok := c.Get(3); !ok || v != 3.0 {
		t.Error("cache unusable after Reset")
	}
}

func TestMemoCacheUnlimitedByDefault(t *testing.T) {
	c := NewMemoCache()
	for k := uint64(0); k < 10_000; k++ {
		c.Put(k, float64(k))
	}
	if c.Len() != 10_000 || c.Dropped() != 0 {
		t.Errorf("unbounded cache dropped entries: len=%d dropped=%d", c.Len(), c.Dropped())
	}
	c.SetLimit(-5)
	c.Put(99_999, 1)
	if c.Limit() != 0 || c.Len() != 10_001 {
		t.Errorf("negative limit not treated as unbounded: limit=%d len=%d", c.Limit(), c.Len())
	}
}
