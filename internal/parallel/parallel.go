// Package parallel is the shared deterministic parallel-execution substrate
// of the characterization system. Every hot loop that fans measurement or
// training work across goroutines — GA fitness batches, ensemble member
// training, shmoo sweeps, lot screens, Table-1 replication — runs on the
// persistent worker Fleet defined here, and only there: one fleet per run,
// and a nil fleet is a fleet of one that executes the very same task code
// inline on the calling goroutine.
//
// The determinism contract: work is identified by a task index, results are
// written into index-addressed slots, and any per-task randomness derives
// from a seed of the form baseSeed + taskIndex. Worker-owned resources
// (forked tester insertions) are rewound to a task-hermetic state at the
// start of every task, so the output is bit-identical regardless of the
// worker count or the scheduling order.
package parallel

import (
	"fmt"
	"runtime"
)

// Workers resolves a parallelism knob: values below 1 select one worker per
// available CPU (runtime.GOMAXPROCS), anything else is taken literally.
func Workers(n int) int {
	if n < 1 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// Bound resolves the knob and caps it at the task count, returning the
// fleet size worth starting for a run of that many tasks.
func Bound(workers, tasks int) int {
	w := Workers(workers)
	if w > tasks {
		w = tasks
	}
	if w < 1 {
		w = 1
	}
	return w
}

// TaskPanic is the value Stream re-panics with when a task function panics:
// the original panic value plus the index of the panicking task. The
// lowest-index panic wins regardless of the worker count or scheduling, so
// a crash reproduces identically under -parallel 1 and -parallel N.
type TaskPanic struct {
	Task  int
	Value any
	// Stack is the panicking goroutine's stack captured at recover time —
	// the fleet re-panics from its own frame after the stage drains, so
	// without this the original crash site would be lost. Diagnostic only
	// (addresses and goroutine IDs vary run to run); crash bundles file it
	// with the other nondeterministic artifacts.
	Stack []byte
}

// Error makes a TaskPanic readable when it escapes to a crash report or is
// recovered into an error path.
func (p TaskPanic) Error() string {
	return fmt.Sprintf("parallel: task %d panicked: %v", p.Task, p.Value)
}

// Unwrap exposes a task panic whose value already was an error.
func (p TaskPanic) Unwrap() error {
	if err, ok := p.Value.(error); ok {
		return err
	}
	return nil
}
