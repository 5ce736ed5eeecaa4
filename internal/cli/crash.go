package cli

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/parallel"
	"repro/internal/telemetry"
)

// Crash bundles: when a run dies (task panic, fatal error) or stalls, the
// CLI freezes everything a post-mortem needs into one directory under
// -crash-dir — the flight-recorder tail, the latest runtime sample, the
// resolved flags, all goroutine stacks, the metrics snapshot and the
// partial run report. Bundles are written into a temp dir and renamed into
// place, so a bundle either exists completely or not at all (a crash while
// writing the crash bundle cannot leave a half-readable one).

// crashMeta is the bundle's meta.json: what happened and when.
type crashMeta struct {
	Reason string `json:"reason"` // "panic", "fatal-error" or "stall"
	Cause  string `json:"cause"`
	// PanicTask is the worker-pool task index when the cause was a
	// parallel.TaskPanic (the deterministic lowest-index loser), else -1.
	PanicTask    int      `json:"panic_task"`
	Run          string   `json:"run"`
	Args         []string `json:"args"`
	TimeUnixNano int64    `json:"time_unix_nano"`
	GoVersion    string   `json:"go_version"`
}

// CaptureCrash writes one crash bundle describing cause (an error, a panic
// value, or a plain string) and returns the bundle directory. A no-op
// returning "" when -crash-dir is unset. Failures to write the bundle are
// reported on stderr but never mask the original failure.
func (c *Common) CaptureCrash(reason string, cause any) string {
	if c == nil || c.CrashDir == "" {
		return ""
	}
	dir, err := c.writeCrashBundle(reason, cause)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cli: writing crash bundle: %v\n", err)
		return ""
	}
	fmt.Fprintf(os.Stderr, "cli: crash bundle written to %s\n", dir)
	return dir
}

func (c *Common) writeCrashBundle(reason string, cause any) (string, error) {
	meta := crashMeta{
		Reason:       reason,
		Cause:        fmt.Sprint(cause),
		PanicTask:    -1,
		Run:          c.runName,
		Args:         os.Args,
		TimeUnixNano: time.Now().UnixNano(),
		GoVersion:    runtime.Version(),
	}
	// Surface the deterministic task index — and the panicking task's own
	// stack, captured at recover time before the pool's re-panic discarded
	// the original frame — when the pool's panic envelope (or an error
	// wrapping it) is the cause.
	var taskStack []byte
	if tp, ok := cause.(parallel.TaskPanic); ok {
		meta.PanicTask = tp.Task
		taskStack = tp.Stack
	} else if err, ok := cause.(error); ok {
		var tp parallel.TaskPanic
		if errors.As(err, &tp) {
			meta.PanicTask = tp.Task
			taskStack = tp.Stack
		}
	}

	// stacks.txt: every goroutine, the classic post-mortem artifact. The
	// panicking task's stack leads when the pool captured one — by the time
	// the bundle is written that goroutine is long gone from the live dump.
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	if len(taskStack) > 0 {
		buf = append(append([]byte("panicking task stack (captured at recover):\n\n"), taskStack...),
			append([]byte("\nall goroutines at bundle time:\n\n"), buf...)...)
	}
	files := map[string][]byte{"stacks.txt": buf}
	for name, v := range map[string]any{
		"meta.json": meta,
		// flags.json: the run's own fully resolved flag set (defaults +
		// overrides), so a bundle reproduces the exact invocation without
		// shell history.
		"flags.json": c.allFlags(),
		// flight.json: the recorder tail + latest runtime sample,
		// quarantined under non_deterministic exactly like the live
		// /debug/flight endpoint.
		"flight.json": map[string]any{"non_deterministic": c.flight.Snapshot(0)},
	} {
		b, err := json.MarshalIndent(v, "", "  ")
		if err != nil {
			return "", err
		}
		files[name] = append(b, '\n')
	}
	// metrics.json + report.txt: the partial run state at the moment of
	// death (total cost is unknown mid-run, so the report's TOTAL row is the
	// phase sum only).
	if c.tel != nil {
		rep := c.tel.Report(telemetry.Cost{})
		var metrics bytes.Buffer
		if err := rep.Metrics.WriteJSON(&metrics); err != nil {
			return "", err
		}
		files["metrics.json"] = metrics.Bytes()
		files["report.txt"] = []byte(rep.Render())
	}

	if err := os.MkdirAll(c.CrashDir, 0o755); err != nil {
		return "", err
	}
	tmp, err := os.MkdirTemp(c.CrashDir, ".bundle-*")
	if err != nil {
		return "", err
	}
	defer os.RemoveAll(tmp) // no-op after a successful rename
	for name, data := range files {
		if err := os.WriteFile(filepath.Join(tmp, name), data, 0o666); err != nil {
			return "", err
		}
	}
	final := filepath.Join(c.CrashDir, fmt.Sprintf("%s-%d", reason, meta.TimeUnixNano))
	if err := os.Rename(tmp, final); err != nil {
		return "", err
	}
	return final, nil
}

// watchdog dumps a stall bundle when no progress event reaches the flight
// recorder for the configured interval. It never exits the process: a stall
// may be a long serial phase, and killing a 10-hour lot run on a false
// positive costs more than an extra bundle. One bundle per quiet episode —
// the watchdog re-arms only after progress resumes.
type watchdog struct {
	stop chan struct{}
	done chan struct{}
}

// startWatchdog begins stall monitoring. rec must be non-nil (the caller
// wires the recorder whenever -crash-dir is set).
func (c *Common) startWatchdog(interval time.Duration) *watchdog {
	w := &watchdog{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(w.done)
		// Poll a few times per interval: cheap, and keeps worst-case
		// detection latency near interval, not 2×interval.
		tick := interval / 4
		if tick < 10*time.Millisecond {
			tick = 10 * time.Millisecond
		}
		ticker := time.NewTicker(tick)
		defer ticker.Stop()
		start := time.Now().UnixNano()
		dumped := false
		for {
			select {
			case <-w.stop:
				return
			case <-ticker.C:
				last := c.flight.LastEventUnixNano()
				if last == 0 {
					// Nothing has happened yet; measure from watchdog start
					// so a run that never reports still trips.
					last = start
				}
				quiet := time.Duration(time.Now().UnixNano() - last)
				if quiet >= interval {
					if !dumped {
						dumped = true
						c.CaptureCrash("stall", fmt.Sprintf(
							"no progress event for %s (stall timeout %s)",
							quiet.Round(time.Millisecond), interval))
					}
				} else {
					dumped = false // progress resumed; re-arm
				}
			}
		}
	}()
	return w
}

// Stop terminates the watchdog, idempotently.
func (w *watchdog) Stop() {
	if w == nil {
		return
	}
	select {
	case <-w.stop:
	default:
		close(w.stop)
	}
	<-w.done
}
