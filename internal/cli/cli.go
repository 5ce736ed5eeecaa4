// Package cli is the shared command-line substrate of the cmd/ binaries:
// one flag-registration helper so every tool spells the common knobs the
// same way (-seed, -parallel, -no-cache, -cache-dir, -trace, -metrics,
// -report, -listen, -cpuprofile, -memprofile), plus the one run lifecycle,
// Run, that turns those flags into pprof profiles, a live run-telemetry
// handle, a worker-fleet observer, an optional live observability HTTP
// server and an end-of-run report, ledger record or crash bundle.
package cli

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"

	"repro/internal/ate"
	"repro/internal/cachestore"
	"repro/internal/frame"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/runstore"
	"repro/internal/telemetry"
	"repro/internal/telemetry/flight"
)

// Common holds the flag values shared by every binary.
type Common struct {
	Seed     int64
	Parallel int
	NoCache  bool
	CacheDir string

	TracePath   string
	MetricsPath string
	Report      bool
	Listen      string

	// CrashDir enables post-mortem crash bundles: on a task panic, fatal
	// error or stall, the run's flight-recorder tail, metrics, flags,
	// goroutine stacks and partial report land in a bundle directory here.
	CrashDir string
	// StallTimeout arms the stall watchdog (requires CrashDir): a bundle is
	// dumped — without exiting — when no progress event arrives for this
	// long. Zero disables the watchdog.
	StallTimeout time.Duration
	// InjectFault is a testing hook ("task-panic" or "error") that fails the
	// run on purpose right after telemetry starts, exercising the crash
	// bundle path end to end. Hidden from -help-worthy docs on purpose; ci.sh
	// and the cli tests are its only intended users.
	InjectFault string

	// RunDir enables the persistent run ledger: on a clean finish the run is
	// finalized into a content-addressed record (manifest + report + metrics
	// + trace) under this directory, with wall-clock/scheduling data
	// quarantined in a per-attempt sidecar. Identical runs — same seed and
	// workload flags at any -parallel — collide into one record.
	RunDir string

	CPUProfilePath string
	MemProfilePath string

	// Embedded marks a Common owned by an in-process host (the job service)
	// rather than a binary: Run then leaves the process-wide
	// fleet observer alone (it is global, last-wins state — concurrent jobs
	// would cross-pollute each other's ND stats), never starts an
	// observability server of its own and keeps stderr quiet. Trace bytes
	// are unaffected either way: the global observer only feeds nd_
	// metrics.
	Embedded bool

	// CheckCancel, when non-nil, is polled by the flow runners at phase
	// boundaries; a non-nil return aborts the flow with that error. The job
	// service uses it for cooperative cancellation of running jobs.
	CheckCancel func() error

	// OnTelemetryStart, when non-nil, receives the run's telemetry handle as
	// Run starts it — an embedding host's hook for folding the run's
	// registry into its own metrics exposition.
	OnTelemetryStart func(tel *telemetry.Telemetry)

	server          *obs.Server
	progress        *obs.Progress
	extProgress     *obs.Progress
	runName         string
	tel             *telemetry.Telemetry
	flight          *flight.Recorder
	sampStop        func()
	wd              *watchdog
	fs              *flag.FlagSet
	binary          string // the flow binary (Binary, NewFlowRun); "" for the others
	ledger          *runstore.Store
	ledgerTrace     *bytes.Buffer // the trace bytes the ledger records
	storeOpened     bool          // the run opened a -cache-dir store
	lastRunID       string
	lastFingerprint string
}

// AttachProgress hands the run an externally owned progress publisher: the
// next Run wires it as the run observer instead of creating one, so an
// embedding host (the job service) can watch and serve the run's live
// state. Call before Run.
func (c *Common) AttachProgress(p *obs.Progress) { c.extProgress = p }

// LastRun returns the ledger run ID and trace fingerprint of the last
// finished Run, empty before the first finalized run (or when -run-dir was
// not set, in which case only the fingerprint is populated).
func (c *Common) LastRun() (runID, fingerprint string) {
	return c.lastRunID, c.lastFingerprint
}

// checkCancel polls the host's cancellation hook (no-op when unset).
func (c *Common) checkCancel() error {
	if c.CheckCancel == nil {
		return nil
	}
	return c.CheckCancel()
}

// Register installs the shared flags on the flag set (flag.CommandLine when
// nil) and returns the struct their values land in. Call before
// flag.Parse.
func Register(fs *flag.FlagSet) *Common {
	if fs == nil {
		fs = flag.CommandLine
	}
	// The flag set is retained: the run-ledger manifest hashes the resolved
	// flag values (minus the scheduling/output set) as the run's identity.
	c := &Common{fs: fs}
	fs.Int64Var(&c.Seed, "seed", 1, "random seed for the whole run")
	fs.IntVar(&c.Parallel, "parallel", 0, "worker count for every parallel stage (0 = one per CPU, 1 = serial; results are identical either way)")
	fs.BoolVar(&c.NoCache, "no-cache", false, "disable the measurement memo-cache (re-measure structurally identical tests)")
	fs.StringVar(&c.CacheDir, "cache-dir", "", "persist measurement results in this directory (content-addressed; a second identical run serves them from disk)")
	fs.StringVar(&c.TracePath, "trace", "", "write a structured JSONL event trace here (bit-identical for any -parallel)")
	fs.StringVar(&c.MetricsPath, "metrics", "", "write the end-of-run metrics snapshot as JSON here")
	fs.BoolVar(&c.Report, "report", false, "print the run report (phase breakdown, cache hit rate, measurements saved) on exit")
	fs.StringVar(&c.Listen, "listen", "", "serve live observability HTTP (Prometheus /metrics, /progress SSE, /debug/flight, /debug/pprof) on this addr:port while the run lasts (:0 picks a free port)")
	fs.StringVar(&c.CrashDir, "crash-dir", "", "write post-mortem crash bundles (flight-recorder tail, metrics, flags, goroutine stacks, partial report) into this directory on panic, fatal error or stall")
	fs.StringVar(&c.RunDir, "run-dir", "", "finalize the run into a content-addressed run ledger in this directory (manifest, report, metrics, trace; identical runs collide into one record — inspect with `tracestat ledger`)")
	fs.DurationVar(&c.StallTimeout, "stall-timeout", 0, "with -crash-dir: dump a stall bundle (without exiting) when no progress event arrives for this long (0 disables the watchdog)")
	fs.StringVar(&c.InjectFault, "inject-fault", "", "testing hook: fail the run on purpose after startup (task-panic, error)")
	fs.StringVar(&c.CPUProfilePath, "cpuprofile", "", "write a pprof CPU profile of the run here")
	fs.StringVar(&c.MemProfilePath, "memprofile", "", "write a pprof heap profile (after a final GC) here on exit")
	return c
}

// Validate checks the flag combinations that otherwise surface as late,
// opaque failures mid-run: an unbindable -listen address, an unwritable
// -crash-dir, a -stall-timeout without the -crash-dir its bundles need, an
// unknown -inject-fault mode, two file flags that name one file and
// -no-cache on a binary that has no memo-cache. Each failure is a single
// clear line; the binaries call this through Main before doing any work.
func (c *Common) Validate() error {
	if err := c.checkNoCache(); err != nil {
		return err
	}
	if c.Listen != "" {
		if err := ProbeListen(c.Listen); err != nil {
			return fmt.Errorf("cannot bind -listen address %q: %w", c.Listen, err)
		}
	}
	if c.CrashDir != "" {
		if err := ProbeDir(c.CrashDir); err != nil {
			return fmt.Errorf("cannot write crash bundles to -crash-dir %q: %w", c.CrashDir, err)
		}
	}
	if c.RunDir != "" {
		if err := ProbeDir(c.RunDir); err != nil {
			return fmt.Errorf("cannot record runs to -run-dir %q: %w", c.RunDir, err)
		}
	}
	if c.StallTimeout > 0 && c.CrashDir == "" {
		return fmt.Errorf("-stall-timeout requires -crash-dir (stall bundles need somewhere to go)")
	}
	switch c.InjectFault {
	case "", "task-panic", "error":
	default:
		return fmt.Errorf("unknown -inject-fault mode %q (want task-panic or error)", c.InjectFault)
	}
	if c.fs == nil {
		return nil
	}
	named := make(map[string]string) // absolute path → file flag
	for _, name := range fileFlags {
		f := c.fs.Lookup(name)
		if f == nil || f.Value.String() == "" {
			continue
		}
		path := f.Value.String()
		abs, err := filepath.Abs(path)
		if err != nil {
			return fmt.Errorf("cannot resolve -%s %q: %w", name, path, err)
		}
		if fi, err := os.Stat(abs); err == nil && !fi.Mode().IsRegular() {
			continue // a device or FIFO takes each write in turn and has no file to replace
		}
		if prev, ok := named[abs]; ok {
			return fmt.Errorf("-%s and -%s name the same file %q", prev, name, path)
		}
		named[abs] = name
	}
	return nil
}

// fileFlags are the flags, over every binary, that name a file: the shared
// outputs, characterize's outputs, marchgen's -o, and shmoo's and lotchar's
// -db input, which an output naming the same file would replace. Validate
// rejects two of them naming one regular file.
var fileFlags = []string{"trace", "metrics", "cpuprofile", "memprofile", "weights", "db", "patterns", "cycle-trace", "o"}

// ProbeListen checks that addr can be bound by binding and releasing it,
// the only reliable way to learn the address is usable. The real server
// binds it again moments later; another process taking the port in between
// loses nothing, because the server's start reports that too.
func ProbeListen(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return ln.Close()
}

// ProbeDir creates dir when it is missing and checks that files can be
// created in it by creating and removing one empty file.
func ProbeDir(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	probe, err := os.CreateTemp(dir, ".probe-*")
	if err != nil {
		return err
	}
	probe.Close()
	return os.Remove(probe.Name())
}

// Main is the harness every binary wraps its work in: it validates the
// flags (exiting 2 with a one-line error on a bad combination), runs body
// and exits 1 via log.Fatal when body fails. body runs the binary's flow
// through Run, which has written the crash bundle by then.
func (c *Common) Main(body func() error) {
	if err := c.Validate(); err != nil {
		fmt.Fprintf(os.Stderr, "%s%v\n", log.Prefix(), err)
		os.Exit(2)
	}
	if err := body(); err != nil {
		log.Fatal(err)
	}
}

// Run is the one run lifecycle, for a binary and for a job alike. It starts
// the profiles and the telemetry the flags request for a run called name
// (the run's name in the trace, the report and the ledger), runs body, and
// finishes the run with the tester totals body returns: the trace closes,
// the -metrics snapshot is written, the -report goes to out and the
// -run-dir ledger records the run. An error or a panic from any of these
// steps first writes a crash bundle (a "fatal-error" or "panic" one; a
// no-op without -crash-dir) while the telemetry is still live, and then
// releases the run without finalizing anything. A panic — including the
// worker fleet's deterministic TaskPanic — is re-raised, so the process
// still dies loudly with the original value.
func (c *Common) Run(name string, out io.Writer, body func(*telemetry.Telemetry) (ate.Stats, error)) (err error) {
	defer func() {
		r := recover()
		switch {
		case r != nil:
			c.CaptureCrash("panic", r)
		case err != nil:
			c.CaptureCrash("fatal-error", err)
		default:
			return
		}
		c.release() //nolint:errcheck // the run already failed
		if r != nil {
			panic(r)
		}
	}()
	stopProfiles, err := c.startProfiles()
	if err != nil {
		return err
	}
	defer func() {
		if perr := stopProfiles(); perr != nil && err == nil {
			err = perr
		}
	}()
	tel, err := c.startTelemetry(name)
	if err != nil {
		return err
	}
	// Fault injection follows the start, so the bundle it produces captures
	// the live telemetry state, exactly like a real mid-run failure would.
	if err := c.injectFault(); err != nil {
		return err
	}
	total, err := body(tel)
	if err != nil {
		return err
	}
	return c.finishTelemetry(out, tel, total)
}

// OpenCacheStore opens the disk measurement store -cache-dir requests,
// under the given format scope (each record family — lot die records,
// memoized trip points — owns a scope constant, so incompatible segment
// files coexist in one directory and are skipped, not misread). Returns
// (nil, nil) when the flag is unset; callers treat a nil store as "no
// persistence".
func (c *Common) OpenCacheStore(scope uint64) (*cachestore.Store, error) {
	if c.CacheDir == "" {
		return nil, nil
	}
	s, err := cachestore.Open(c.CacheDir, scope)
	if err != nil {
		return nil, fmt.Errorf("cli: opening cache dir: %w", err)
	}
	c.storeOpened = true
	return s, nil
}

// startProfiles starts the profiling the -cpuprofile/-memprofile flags
// request and returns a stop function that must run at the end of the run
// (defer it right after a successful call): it stops the CPU profile and
// writes the heap snapshot. With neither flag set it returns a no-op stop.
func (c *Common) startProfiles() (stop func() error, err error) {
	var cpuFile *os.File
	if c.CPUProfilePath != "" {
		cpuFile, err = os.Create(c.CPUProfilePath)
		if err != nil {
			return nil, fmt.Errorf("cli: creating cpu profile: %w", err)
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, fmt.Errorf("cli: starting cpu profile: %w", err)
		}
	}
	return func() error {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				return fmt.Errorf("cli: closing cpu profile: %w", err)
			}
		}
		if c.MemProfilePath != "" {
			// Materialize final live-heap state so the snapshot reflects
			// steady-state retention, not transient garbage.
			runtime.GC()
			if err := frame.PublishWith(c.MemProfilePath, pprof.WriteHeapProfile); err != nil {
				return fmt.Errorf("cli: writing mem profile: %w", err)
			}
		}
		return nil
	}, nil
}

// TelemetryEnabled reports whether any telemetry output was requested.
// -crash-dir counts: crash bundles want the live registry and flight
// recorder even when no trace or report was asked for. -run-dir counts for
// the same reason: the ledger record is built from the run's telemetry.
func (c *Common) TelemetryEnabled() bool {
	return c.TracePath != "" || c.MetricsPath != "" || c.Report || c.Listen != "" ||
		c.CrashDir != "" || c.RunDir != ""
}

// startTelemetry opens the run telemetry the flags describe and installs
// the worker-fleet observer. With -listen set it also starts the live
// observability HTTP server and announces its address on stderr; with
// -listen or -crash-dir it attaches the flight recorder (bounded event ring
// + runtime/metrics sampler) and, when -stall-timeout is set, the stall
// watchdog. All live consumers tap the same deterministic hook points as
// the trace, so trace bytes are identical with and without them. Returns
// nil (a fully inert handle) when no telemetry output was requested. Each
// resource lands in c as it opens, so release tears down whatever a failed
// start left.
func (c *Common) startTelemetry(runName string) (*telemetry.Telemetry, error) {
	if !c.TelemetryEnabled() {
		return nil, nil
	}
	// The ledger records the full trace: the tracer writes a copy into
	// memory, besides the -trace file when there is one.
	var ledgerTrace io.Writer // a nil interface without a ledger
	if c.RunDir != "" {
		st, err := runstore.Open(c.RunDir)
		if err != nil {
			return nil, fmt.Errorf("cli: opening run ledger: %w", err)
		}
		c.ledger = st
		c.ledgerTrace = new(bytes.Buffer)
		ledgerTrace = c.ledgerTrace
	}
	var tracer *telemetry.Tracer
	if c.TracePath != "" {
		var err error
		if tracer, err = telemetry.NewFileTracer(c.TracePath, ledgerTrace); err != nil {
			return nil, fmt.Errorf("cli: opening trace: %w", err)
		}
	} else {
		tracer = telemetry.NewTracer(ledgerTrace) // nil without a ledger
	}
	tel := telemetry.New(runName, tracer)
	c.runName = runName
	c.tel = tel

	progress := c.extProgress
	var recorder *flight.Recorder
	if progress == nil && c.Listen != "" {
		progress = obs.NewProgress(runName)
	}
	c.progress = progress
	if c.Listen != "" || c.CrashDir != "" {
		recorder = flight.New(flight.DefaultCapacity)
		recorder.ExportTo(tel.Registry())
		c.flight = recorder
	}
	// Only live observers go in: a typed-nil one would still run its
	// callbacks, and the recorder's build their fields before its nil check.
	var observers []telemetry.RunObserver
	if progress != nil {
		observers = append(observers, progress)
	}
	if recorder != nil {
		observers = append(observers, recorder)
	}
	tel.SetRunObserver(observers...)
	// Every fleet stage's scheduling summary is quarantined as
	// non-deterministic: the run totals in the report's pool section and
	// the nd_fleet_* series (both excluded from determinism diffs, and the
	// series are what /progress's non_deterministic section reads), plus
	// one flight event per stage. The observer is a process-wide
	// (last-wins) global, so an Embedded run — one of several concurrent
	// jobs in a host process — must not install it.
	if !c.Embedded {
		parallel.SetFleetObserver(func(st parallel.StreamStats) {
			tel.ObserveFleet(st)
			recorder.FleetStream(st)
		})
	}
	if recorder != nil {
		c.sampStop = recorder.StartSampler(flight.DefaultSampleInterval)
	}
	if c.Listen != "" && !c.Embedded {
		srv, err := obs.Start(c.Listen, obs.Options{
			Run:      runName,
			Metrics:  tel.Registry().Snapshot,
			Progress: progress,
			Flight:   recorder,
			Ledger:   c.ledger,
			RunInfo:  c.runInfoLabels(tel),
		})
		if err != nil {
			return nil, fmt.Errorf("cli: starting observability server: %w", err)
		}
		c.server = srv
		fmt.Fprintf(os.Stderr, "obs: serving http://%s/ (metrics, progress, flight, pprof)\n", srv.Addr())
	}
	if c.CrashDir != "" && c.StallTimeout > 0 {
		c.wd = c.startWatchdog(c.StallTimeout)
	}

	if c.OnTelemetryStart != nil {
		c.OnTelemetryStart(tel)
	}
	return tel, nil
}

// injectFault triggers the -inject-fault testing hook: "task-panic" drives
// the real worker-fleet panic path (a task panics, the stage drains and
// re-panics the deterministic TaskPanic envelope), "error" returns a plain
// fatal error. Run turns either into a crash bundle.
func (c *Common) injectFault() error {
	switch c.InjectFault {
	case "task-panic":
		f := parallel.NewFleet(2)
		defer f.Close()
		//nolint:errcheck // unreachable: the fleet re-panics the TaskPanic
		parallel.ForEachOn(f, 4, func(i int) error {
			if i == 2 {
				panic(fmt.Sprintf("injected fault (task %d)", i))
			}
			return nil
		})
		return nil
	case "error":
		return fmt.Errorf("cli: injected fatal error (-inject-fault=error)")
	}
	return nil
}

// stopFlight tears down the sampler and watchdog (idempotent, nil-safe).
func (c *Common) stopFlight() {
	c.wd.Stop()
	c.wd = nil
	if c.sampStop != nil {
		c.sampStop()
		c.sampStop = nil
	}
}

// finishTelemetry closes out the run: closes the trace (so the run-end
// line is flushed and the fingerprint covers the whole file), writes the
// -metrics snapshot, prints the -report run report to w, finalizes the
// -run-dir ledger record and releases the run. Sink I/O failures (a full
// disk, a closed pipe) surface as errors so the binaries exit nonzero
// instead of silently shipping a truncated trace or report; Run releases
// the run after such a failure. total is the whole run's tester cost. Nil
// tel is a no-op.
func (c *Common) finishTelemetry(w io.Writer, tel *telemetry.Telemetry, total ate.Stats) error {
	if tel == nil {
		return nil
	}
	// Watchdog first: a completed run must never race a stall bundle.
	c.stopFlight()
	closeErr := tel.Close()
	rep := tel.Report(total.Cost())
	c.lastFingerprint = rep.Fingerprint
	c.progress.SetFingerprint(rep.Fingerprint)
	if c.MetricsPath != "" {
		if err := frame.PublishWith(c.MetricsPath, rep.Metrics.WriteJSON); err != nil {
			return fmt.Errorf("cli: writing metrics: %w", err)
		}
	}
	if c.Report {
		if _, err := fmt.Fprint(w, rep.Render()); err != nil {
			return fmt.Errorf("cli: printing report: %w", err)
		}
	}
	// The record is built only when the trace closed cleanly — a truncated
	// trace must not become ledger history.
	if closeErr != nil {
		return fmt.Errorf("cli: closing trace: %w", closeErr)
	}
	if err := c.finalizeRun(rep); err != nil {
		return fmt.Errorf("cli: recording run: %w", err)
	}
	if err := c.release(); err != nil {
		return fmt.Errorf("cli: closing observability server: %w", err)
	}
	return nil
}

// release is the one teardown of a started run, whether it finished or
// failed: the sampler and watchdog stop, the fleet observer is removed, the
// trace closes, the progress publisher is marked done so subscribers
// unblock, and the observability server (if any) shuts down after its
// /progress streams drained the done state. It writes no metrics, report
// or ledger record, and it is idempotent, tearing down only what a partial
// start opened. It returns the server's close error.
func (c *Common) release() error {
	c.stopFlight()
	if !c.Embedded {
		parallel.SetFleetObserver(nil)
	}
	c.tel.Close() //nolint:errcheck // a finished run checked it; a failed one discards the trace
	c.tel, c.flight, c.ledger, c.ledgerTrace, c.storeOpened = nil, nil, nil, nil, false
	c.progress.Done()
	err := c.server.Close()
	c.server = nil
	return err
}

// PrintCacheSummary prints the one-line measurement memo-cache summary the
// binaries share. Disabled caches (zero lookups) report as such.
func PrintCacheSummary(w io.Writer, hits, misses int64) {
	lookups := hits + misses
	if lookups == 0 {
		fmt.Fprintln(w, "measurement cache: no lookups (cache disabled or unused)")
		return
	}
	fmt.Fprintf(w, "measurement cache: %d hits / %d misses (hit rate %.1f%%)\n",
		hits, misses, 100*float64(hits)/float64(lookups))
}
