package parallel

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/proptest"
)

func TestStreamDeliversInOrder(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		f := NewFleet(workers)
		results := make([]int, 20)
		var delivered []int
		err := Stream(f, 20,
			func(w int) (int, error) { return w, nil },
			func(_ int, i int) error { results[i] = i * i; return nil },
			func(i int) error {
				if results[i] != i*i {
					t.Errorf("workers=%d: delivered %d before its task finished", workers, i)
				}
				delivered = append(delivered, i)
				return nil
			})
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
		if len(delivered) != 20 {
			t.Fatalf("workers=%d: delivered %d of 20", workers, len(delivered))
		}
		for i, d := range delivered {
			if d != i {
				t.Fatalf("workers=%d: delivery order %v", workers, delivered)
			}
		}
	}
}

func TestStreamSurvivesAcrossStages(t *testing.T) {
	// The tentpole property: worker-memoized resources persist across
	// stages. Each worker's resource is constructed exactly once even
	// though the fleet runs several stages.
	f := NewFleet(4)
	defer f.Close()
	var built atomic.Int32
	resources := make([]*int, f.Size())
	newWorker := func(w int) (*int, error) {
		if resources[w] == nil {
			built.Add(1)
			v := new(int)
			resources[w] = v
		}
		return resources[w], nil
	}
	for stage := 0; stage < 5; stage++ {
		err := RunOn(f, 32, newWorker, func(wk *int, i int) error {
			*wk++ // worker-owned: no two goroutines share a resource
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if built.Load() > 4 {
		t.Errorf("%d resources built for a 4-worker fleet over 5 stages", built.Load())
	}
	total := 0
	for _, r := range resources {
		if r != nil {
			total += *r
		}
	}
	if total != 5*32 {
		t.Errorf("tasks executed %d times, want %d", total, 5*32)
	}
}

func TestStreamTaskErrorLowestIndexWins(t *testing.T) {
	f := NewFleet(4)
	defer f.Close()
	var ran atomic.Int32
	var delivered atomic.Int32
	err := Stream(f, 10,
		func(w int) (struct{}, error) { return struct{}{}, nil },
		func(_ struct{}, i int) error {
			ran.Add(1)
			if i == 3 || i == 7 {
				return fmt.Errorf("task %d failed", i)
			}
			return nil
		},
		func(i int) error { delivered.Add(1); return nil })
	if err == nil || err.Error() != "task 3 failed" {
		t.Fatalf("got %v, want the lowest-index task error", err)
	}
	if ran.Load() != 10 {
		t.Errorf("only %d of 10 tasks ran despite failures", ran.Load())
	}
	if delivered.Load() != 3 {
		t.Errorf("%d deliveries, want 3 (stop at the first failed index)", delivered.Load())
	}
}

func TestStreamDeliverErrorStopsDelivery(t *testing.T) {
	f := NewFleet(3)
	defer f.Close()
	sentinel := errors.New("merge failed")
	var delivered atomic.Int32
	err := Stream(f, 9,
		func(w int) (struct{}, error) { return struct{}{}, nil },
		func(_ struct{}, i int) error { return nil },
		func(i int) error {
			if i == 4 {
				return sentinel
			}
			delivered.Add(1)
			return nil
		})
	if !errors.Is(err, sentinel) {
		t.Fatalf("got %v, want the deliver error", err)
	}
	if delivered.Load() != 4 {
		t.Errorf("%d deliveries before the failing one, want 4", delivered.Load())
	}
}

func TestStreamConstructionErrorLowestWorkerWins(t *testing.T) {
	f := NewFleet(4)
	defer f.Close()
	err := RunOn(f, 16,
		func(w int) (struct{}, error) {
			if w == 1 || w == 3 {
				return struct{}{}, fmt.Errorf("worker %d broken", w)
			}
			return struct{}{}, nil
		},
		func(_ struct{}, i int) error { return nil })
	if err == nil || err.Error() != "worker 1 broken" {
		t.Fatalf("got %v, want the lowest-worker construction error", err)
	}
}

func TestStreamAllWorkersFailConstruction(t *testing.T) {
	f := NewFleet(3)
	defer f.Close()
	var ran atomic.Int32
	err := RunOn(f, 8,
		func(w int) (struct{}, error) { return struct{}{}, fmt.Errorf("worker %d broken", w) },
		func(_ struct{}, i int) error { ran.Add(1); return nil })
	if err == nil || err.Error() != "worker 0 broken" {
		t.Fatalf("got %v, want worker 0's error", err)
	}
	if ran.Load() != 0 {
		t.Errorf("%d tasks ran with no constructible worker", ran.Load())
	}
	// The fleet survives a failed stage: a later stage still works.
	if err := ForEachOn(f, 4, func(i int) error { return nil }); err != nil {
		t.Fatalf("fleet unusable after failed construction: %v", err)
	}
}

// TestStreamPanicDeterministicLowestIndex pins the TaskPanic-through-Fleet
// contract: the lowest-index panic wins at any worker count, it outranks
// task errors, and the stage drains before re-panicking.
func TestStreamPanicDeterministicLowestIndex(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		f := NewFleet(workers)
		var ran atomic.Int32
		var streamErr error
		rec := func() (rec any) {
			defer func() { rec = recover() }()
			streamErr = Stream(f, 12,
				func(w int) (struct{}, error) { return struct{}{}, nil },
				func(_ struct{}, i int) error {
					ran.Add(1)
					if i == 5 || i == 9 {
						panic(fmt.Sprintf("boom %d", i))
					}
					if i == 1 {
						return errors.New("ordinary failure")
					}
					return nil
				}, nil)
			return nil
		}()
		f.Close()
		if workers == 1 {
			// Inline semantics: index order stops at the first failure, so
			// the task-1 error precedes any panic.
			if rec != nil {
				t.Fatalf("inline fleet panicked (%v) instead of returning the first error", rec)
			}
			if streamErr == nil || streamErr.Error() != "ordinary failure" {
				t.Errorf("inline fleet returned %v, want the task-1 error", streamErr)
			}
			if ran.Load() != 2 {
				t.Errorf("inline fleet ran %d tasks before the error, want 2", ran.Load())
			}
			continue
		}
		tp, ok := rec.(TaskPanic)
		if !ok {
			t.Fatalf("workers=%d: recovered %T (%v), want TaskPanic", workers, rec, rec)
		}
		if tp.Task != 5 || tp.Value != "boom 5" {
			t.Errorf("workers=%d: TaskPanic{%d, %v}, want task 5 (panic beats the task-1 error)", workers, tp.Task, tp.Value)
		}
		if len(tp.Stack) == 0 {
			t.Errorf("workers=%d: TaskPanic without a captured stack", workers)
		}
		if ran.Load() != 12 {
			t.Errorf("workers=%d: %d of 12 tasks ran before the re-panic", workers, ran.Load())
		}
	}
}

func TestStreamOnClosedFleetPanics(t *testing.T) {
	f := NewFleet(2)
	// Force the goroutines up so Close exercises the full path.
	if err := ForEachOn(f, 4, func(i int) error { return nil }); err != nil {
		t.Fatal(err)
	}
	f.Close()
	f.Close() // idempotent
	defer func() {
		if recover() == nil {
			t.Error("Stream on a closed fleet did not panic")
		}
	}()
	_ = ForEachOn(f, 1, func(i int) error { return nil })
}

func TestStreamZeroTasks(t *testing.T) {
	f := NewFleet(4)
	defer f.Close()
	called := false
	err := Stream(f, 0,
		func(w int) (struct{}, error) { called = true; return struct{}{}, nil },
		func(_ struct{}, i int) error { called = true; return nil },
		func(i int) error { called = true; return nil })
	if err != nil || called {
		t.Fatalf("zero tasks: err=%v called=%v", err, called)
	}
}

func TestStreamNegativeTaskCount(t *testing.T) {
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

func TestStreamObserverReportsParticipants(t *testing.T) {
	// The observer sees min(size, n) workers and per-worker task counts
	// summing to n.
	defer SetFleetObserver(nil)
	var gotWorkers int
	var gotTotal int
	SetFleetObserver(func(st StreamStats) {
		gotWorkers = st.Workers
		gotTotal = 0
		for _, c := range st.TasksPerWorker {
			gotTotal += c
		}
	})
	f := NewFleet(8)
	defer f.Close()
	if err := ForEachOn(f, 3, func(i int) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if gotWorkers != 3 || gotTotal != 3 {
		t.Errorf("observer saw %d workers / %d tasks, want 3/3", gotWorkers, gotTotal)
	}
}

// TestFleetOfOneTimesDeliverySeparately: the inline path reports task time
// as BusyNanos and delivery time as DeliverNanos, never one as the other,
// so a fleet of one shows its exposed merge time like a larger fleet does.
func TestFleetOfOneTimesDeliverySeparately(t *testing.T) {
	defer SetFleetObserver(nil)
	const n, nap = 4, 2 * time.Millisecond
	for _, size := range []int{0, 1} {
		var stats StreamStats
		SetFleetObserver(func(s StreamStats) { stats = s })
		f := fleetOf(size)
		err := Stream(f, n,
			func(int) (struct{}, error) { return struct{}{}, nil },
			func(struct{}, int) error { return nil },
			func(int) error { time.Sleep(nap); return nil })
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
		if stats.Tasks != n || stats.Workers != 1 {
			t.Fatalf("size=%d: observer saw %d tasks on %d workers", size, stats.Tasks, stats.Workers)
		}
		if stats.DeliverNanos < int64(n*nap) {
			t.Errorf("size=%d: DeliverNanos %v, want at least the %v slept in deliver",
				size, time.Duration(stats.DeliverNanos), n*nap)
		}
		if stats.BusyNanos > stats.WallNanos-stats.DeliverNanos {
			t.Errorf("size=%d: BusyNanos %v exceeds wall %v minus delivery %v",
				size, time.Duration(stats.BusyNanos), time.Duration(stats.WallNanos), time.Duration(stats.DeliverNanos))
		}
		if stats.OverlapNanos != 0 {
			t.Errorf("size=%d: inline stage reports %v of overlap", size, time.Duration(stats.OverlapNanos))
		}
	}
}

// taskValue is the deterministic per-task "measurement" the equivalence
// property compares across fleet shapes: depends only on the task index and
// a seed, never on worker identity or execution order.
func taskValue(seed int64, i int) float64 {
	x := uint64(seed)*0x9e3779b97f4a7c15 + uint64(i)*0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return float64(x%1_000_003) / 1_000_003
}

// TestStreamMatchesSerialLoopProperty is the fleet-equivalence invariant
// suite: for random task counts, fleet shapes (nil, 1, N workers) and
// memo-cache use, Stream on a persistent fleet produces bit-identical
// results, identical in-order merge sequences and identical cache
// accounting to a plain serial loop that computes every task and then
// merges in index order. The cache is a map the caller owns and touches
// only from the calling goroutine — in the resolve before Stream and in
// the in-order delivery — the way the GA fitness engine uses it.
func TestStreamMatchesSerialLoopProperty(t *testing.T) {
	proptest.Check(t, 40, func(pt *proptest.T) {
		n := pt.IntRange(0, 60)
		workers := proptest.Pick(pt, []int{0, 1, 2, 8})
		useCache := pt.Bool()
		seed := pt.Int64Range(1, 1<<40)
		stages := pt.IntRange(1, 3)
		pt.Logf("n=%d workers=%d cache=%v seed=%d stages=%d", n, workers, useCache, seed, stages)

		// runStages computes every stage's merge sequence and the cache's
		// hit/miss counts, executing the tasks with exec.
		runStages := func(exec func(vals []float64, resolved []bool, merge func(i int)) error) (merged [][]float64, hits, misses int) {
			var cache map[uint64]float64
			if useCache {
				cache = map[uint64]float64{}
			}
			merged = make([][]float64, stages)
			for s := 0; s < stages; s++ {
				vals := make([]float64, n)
				resolved := make([]bool, n)
				if cache != nil {
					for i := 0; i < n; i++ {
						// Key collisions across stages are intentional: stage
						// s>0 re-resolves stage 0's keys as hits.
						if v, ok := cache[uint64(i)]; ok {
							vals[i], resolved[i] = v, true
							hits++
						} else {
							misses++
						}
					}
				}
				err := exec(vals, resolved, func(i int) {
					if cache != nil && !resolved[i] {
						cache[uint64(i)] = vals[i]
					}
					merged[s] = append(merged[s], vals[i])
				})
				if err != nil {
					pt.Fatalf("stage %d: %v", s, err)
				}
			}
			return merged, hits, misses
		}

		// Reference: a plain serial loop, then a serial merge loop.
		runMerged, runHits, runMiss := runStages(func(vals []float64, resolved []bool, merge func(int)) error {
			for i := 0; i < n; i++ {
				if !resolved[i] {
					vals[i] = taskValue(seed, i)
				}
			}
			for i := 0; i < n; i++ {
				merge(i)
			}
			return nil
		})

		// Fleet: persistent workers across stages, streamed in-order merge.
		f := fleetOf(workers)
		fleetMerged, fleetHits, fleetMiss := runStages(func(vals []float64, resolved []bool, merge func(int)) error {
			return Stream(f, n,
				func(w int) (struct{}, error) { return struct{}{}, nil },
				func(_ struct{}, i int) error {
					if !resolved[i] {
						vals[i] = taskValue(seed, i)
					}
					return nil
				},
				func(i int) error { merge(i); return nil })
		})
		f.Close()

		for s := 0; s < stages; s++ {
			if len(runMerged[s]) != len(fleetMerged[s]) {
				pt.Fatalf("stage %d: merge lengths %d vs %d", s, len(runMerged[s]), len(fleetMerged[s]))
			}
			for i := range runMerged[s] {
				if runMerged[s][i] != fleetMerged[s][i] {
					pt.Fatalf("stage %d merge[%d]: run %g, fleet %g", s, i, runMerged[s][i], fleetMerged[s][i])
				}
			}
		}
		if runHits != fleetHits || runMiss != fleetMiss {
			pt.Fatalf("cache accounting: run %d/%d, fleet %d/%d", runHits, runMiss, fleetHits, fleetMiss)
		}
	})
}
