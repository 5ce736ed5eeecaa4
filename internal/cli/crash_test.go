package cli

import (
	"encoding/json"
	"flag"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/parallel"
	"repro/internal/telemetry"
	"repro/internal/telemetry/flight"
)

func TestValidateMessages(t *testing.T) {
	// Pin the one-line error messages: ops scripts grep for them.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	blockedDir := filepath.Join(t.TempDir(), "blocked")
	if err := os.WriteFile(blockedDir, []byte("a file, not a dir"), 0o644); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name    string
		c       Common
		wantErr string
	}{
		{"clean", Common{}, ""},
		{"listen ok", Common{Listen: "127.0.0.1:0"}, ""},
		{"listen unbindable", Common{Listen: ln.Addr().String()},
			`cannot bind -listen address "` + ln.Addr().String() + `"`},
		{"listen unparseable", Common{Listen: "127.0.0.1:notaport"},
			`cannot bind -listen address "127.0.0.1:notaport"`},
		{"crash dir ok", Common{CrashDir: filepath.Join(t.TempDir(), "bundles")}, ""},
		{"crash dir unwritable", Common{CrashDir: filepath.Join(blockedDir, "sub")},
			`cannot write crash bundles to -crash-dir "` + filepath.Join(blockedDir, "sub") + `"`},
		{"stall without crash dir", Common{StallTimeout: time.Second},
			"-stall-timeout requires -crash-dir"},
		{"bad inject mode", Common{InjectFault: "explode"},
			`unknown -inject-fault mode "explode" (want task-panic or error)`},
		{"inject task-panic ok", Common{InjectFault: "task-panic"}, ""},
	}
	for _, tc := range cases {
		err := tc.c.Validate()
		if tc.wantErr == "" {
			if err != nil {
				t.Errorf("%s: Validate() = %v, want nil", tc.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: Validate() = %v, want containing %q", tc.name, err, tc.wantErr)
		}
		if err != nil && strings.Contains(err.Error(), "\n") {
			t.Errorf("%s: error is not one line: %q", tc.name, err)
		}
	}
}

// startCrashTelemetry stands up a Common with -crash-dir wired the way
// startTelemetry does it, without the full binary scaffolding.
func startCrashTelemetry(t *testing.T) *Common {
	t.Helper()
	c := &Common{CrashDir: t.TempDir()}
	tel, err := c.startTelemetry("crash-test")
	if err != nil {
		t.Fatal(err)
	}
	if tel == nil {
		t.Fatal("crash-dir alone did not enable telemetry")
	}
	t.Cleanup(func() { c.stopFlight() })
	return c
}

func TestCaptureCrashWritesCompleteBundle(t *testing.T) {
	c := startCrashTelemetry(t)
	// Put some run state into the recorder + registry first.
	ph := c.tel.StartPhase("learn")
	c.tel.RecordSearch(5, 40, true)
	ph.End(telemetry.Cost{Measurements: 5, SimTimeSec: 0.1})

	dir := c.CaptureCrash("panic", parallel.TaskPanic{Task: 3, Value: "boom"})
	if dir == "" {
		t.Fatal("CaptureCrash returned empty dir")
	}
	if !strings.HasPrefix(filepath.Base(dir), "panic-") {
		t.Errorf("bundle dir = %q, want panic-<ts>", dir)
	}

	// Complete bundle: all six artifacts.
	for _, name := range []string{"meta.json", "flags.json", "stacks.txt", "flight.json", "metrics.json", "report.txt"} {
		fi, err := os.Stat(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("bundle missing %s: %v", name, err)
		}
		if fi.Size() == 0 {
			t.Errorf("bundle %s is empty", name)
		}
	}

	var meta struct {
		Reason    string   `json:"reason"`
		Cause     string   `json:"cause"`
		PanicTask int      `json:"panic_task"`
		Run       string   `json:"run"`
		Args      []string `json:"args"`
	}
	raw, err := os.ReadFile(filepath.Join(dir, "meta.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &meta); err != nil {
		t.Fatal(err)
	}
	if meta.Reason != "panic" || !strings.Contains(meta.Cause, "task 3 panicked: boom") {
		t.Errorf("meta = %+v", meta)
	}
	if meta.PanicTask != 3 {
		t.Errorf("panic_task = %d, want 3 (the deterministic lowest-index loser)", meta.PanicTask)
	}
	if meta.Run != "crash-test" || len(meta.Args) == 0 {
		t.Errorf("meta run/args = %+v", meta)
	}

	stacks, err := os.ReadFile(filepath.Join(dir, "stacks.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(stacks), "goroutine") {
		t.Error("stacks.txt has no goroutine dump")
	}

	fl, err := os.ReadFile(filepath.Join(dir, "flight.json"))
	if err != nil {
		t.Fatal(err)
	}
	var flight struct {
		ND struct {
			TotalEvents uint64           `json:"total_events"`
			Events      []map[string]any `json:"events"`
		} `json:"non_deterministic"`
	}
	if err := json.Unmarshal(fl, &flight); err != nil {
		t.Fatal(err)
	}
	if flight.ND.TotalEvents == 0 || len(flight.ND.Events) == 0 {
		t.Errorf("flight.json carries no events: %s", fl)
	}

	rep, err := os.ReadFile(filepath.Join(dir, "report.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(rep), "phase:learn") && !strings.Contains(string(rep), "learn") {
		t.Errorf("report.txt does not mention the learn phase:\n%s", rep)
	}

	// No temp droppings left next to the bundle.
	entries, err := os.ReadDir(c.CrashDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), ".bundle-") {
			t.Errorf("leftover temp bundle dir %s", e.Name())
		}
	}
}

func TestCaptureCrashDisabledAndErrorCause(t *testing.T) {
	// Without -crash-dir the capture is a silent no-op.
	c := &Common{}
	if dir := c.CaptureCrash("panic", "x"); dir != "" {
		t.Errorf("CaptureCrash without crash dir = %q", dir)
	}
	var nilC *Common
	if dir := nilC.CaptureCrash("panic", "x"); dir != "" {
		t.Error("nil Common CaptureCrash wrote a bundle")
	}

	// A plain error cause records panic_task -1 and reason fatal-error.
	c2 := startCrashTelemetry(t)
	dir := c2.CaptureCrash("fatal-error", os.ErrPermission)
	if dir == "" {
		t.Fatal("no bundle for error cause")
	}
	var meta struct {
		Reason    string `json:"reason"`
		PanicTask int    `json:"panic_task"`
	}
	raw, _ := os.ReadFile(filepath.Join(dir, "meta.json"))
	if err := json.Unmarshal(raw, &meta); err != nil {
		t.Fatal(err)
	}
	if meta.Reason != "fatal-error" || meta.PanicTask != -1 {
		t.Errorf("meta = %+v", meta)
	}
}

func TestInjectFaultTaskPanicIsRealTaskPanic(t *testing.T) {
	c := startCrashTelemetry(t)
	c.InjectFault = "task-panic"
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("inject-fault=task-panic did not panic")
		}
		tp, ok := r.(parallel.TaskPanic)
		if !ok {
			t.Fatalf("recovered %T, want parallel.TaskPanic", r)
		}
		if tp.Task != 2 {
			t.Errorf("TaskPanic task = %d, want 2", tp.Task)
		}
		// Run would now write the bundle; do it by hand here.
		dir := c.CaptureCrash("panic", r)
		if dir == "" {
			t.Fatal("no bundle from injected task panic")
		}
		raw, _ := os.ReadFile(filepath.Join(dir, "meta.json"))
		if !strings.Contains(string(raw), `"panic_task": 2`) {
			t.Errorf("meta.json missing panic_task 2:\n%s", raw)
		}
		// The original task's stack (dead by bundle time) leads stacks.txt.
		stacks, _ := os.ReadFile(filepath.Join(dir, "stacks.txt"))
		if !strings.Contains(string(stacks), "panicking task stack") ||
			!strings.Contains(string(stacks), "injectFault") {
			t.Errorf("stacks.txt missing the captured task stack:\n%.2000s", stacks)
		}
	}()
	c.injectFault() //nolint:errcheck // panics
}

func TestStallWatchdogDumpsWithoutExiting(t *testing.T) {
	c := &Common{CrashDir: t.TempDir(), StallTimeout: 80 * time.Millisecond}
	tel, err := c.startTelemetry("stall-test")
	if err != nil {
		t.Fatal(err)
	}
	defer c.stopFlight()
	_ = tel

	// Feed one progress event, then go quiet: the watchdog must dump exactly
	// one stall bundle for the quiet episode.
	c.flight.PhaseStarted("learn")
	waitForBundles(t, c.CrashDir, "stall-", 1, 5*time.Second)

	// Still quiet: no second bundle for the same episode.
	time.Sleep(250 * time.Millisecond)
	if n := countBundles(t, c.CrashDir, "stall-"); n != 1 {
		t.Fatalf("stall bundles after continued quiet = %d, want 1", n)
	}

	// Progress resumes, then stalls again: the watchdog re-arms.
	c.flight.Item("die", 1, 10)
	waitForBundles(t, c.CrashDir, "stall-", 2, 5*time.Second)

	// The watchdog never exits the process (we are still here) and Stop is
	// idempotent.
	c.stopFlight()
	c.stopFlight()
}

func waitForBundles(t *testing.T, dir, prefix string, want int, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if countBundles(t, dir, prefix) >= want {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %d %q bundles (have %d)", want, prefix, countBundles(t, dir, prefix))
}

func countBundles(t *testing.T, dir, prefix string) int {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), prefix) {
			n++
		}
	}
	return n
}

func TestStartTelemetryCrashDirAttachesFlight(t *testing.T) {
	c := startCrashTelemetry(t)
	if c.flight == nil {
		t.Fatal("no flight recorder with -crash-dir")
	}
	// The sampler is running and exporting nd_ gauges.
	snap := c.tel.Registry().Snapshot()
	if _, ok := snap.Gauges[telemetry.NonDeterministicPrefix+"flight_heap_bytes"]; !ok {
		t.Error("sampler gauges missing from registry")
	}
	// Observer events reach the recorder.
	c.tel.RecordItem("die", 1, 2)
	if c.flight.TotalEvents() == 0 {
		t.Error("telemetry events not reaching the recorder")
	}
	var _ *flight.Recorder = c.flight
}

// An embedded flow run's crash bundle records the run's own flag set, not
// the host process's: a learn FlowRun's flags.json holds its seed and
// learn-tests and none of the test binary's flags.
func TestCaptureCrashRecordsFlowRunFlags(t *testing.T) {
	fr, err := NewFlowRun(FlowSpec{Flow: "learn", Seed: 7, Args: map[string]string{"learn-tests": "20"}})
	if err != nil {
		t.Fatal(err)
	}
	c := fr.Common
	c.CrashDir = t.TempDir()
	dir := c.CaptureCrash("fatal-error", os.ErrPermission)
	if dir == "" {
		t.Fatal("no bundle written")
	}
	raw, err := os.ReadFile(filepath.Join(dir, "flags.json"))
	if err != nil {
		t.Fatal(err)
	}
	var flags map[string]string
	if err := json.Unmarshal(raw, &flags); err != nil {
		t.Fatal(err)
	}
	if flags["seed"] != "7" || flags["learn-tests"] != "20" || flags["learn-only"] != "true" {
		t.Errorf("flags.json seed/learn-tests/learn-only = %q/%q/%q, want 7/20/true", flags["seed"], flags["learn-tests"], flags["learn-only"])
	}
	for name := range flags {
		if strings.HasPrefix(name, "test.") {
			t.Errorf("flags.json records the host's flag %s", name)
		}
	}

	// A Common built without Register has no flags: the bundle says so.
	bare := &Common{CrashDir: t.TempDir()}
	raw, err = os.ReadFile(filepath.Join(bare.CaptureCrash("fatal-error", os.ErrPermission), "flags.json"))
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.TrimSpace(string(raw)); got != "{}" {
		t.Errorf("flags.json of an unregistered Common = %s, want {}", got)
	}
}

// Two file flags of a run that name one file fail Validate: the later
// write would replace the earlier file, or an output the -db input.
func TestValidateRejectsFileFlagsNamingOneFile(t *testing.T) {
	dir := t.TempDir()
	x, y := filepath.Join(dir, "x"), filepath.Join(dir, "y")
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	relX, err := filepath.Rel(wd, x) // x, relative to the working directory
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		binary  string
		args    []string
		wantErr string
	}{
		{"characterize", []string{"-trace", x, "-metrics", x}, `-trace and -metrics name the same file`},
		{"characterize", []string{"-metrics", relX, "-weights", x}, `-metrics and -weights name the same file`},
		{"characterize", []string{"-db", x, "-cycle-trace", filepath.Join(dir, "sub") + "/../x"}, `-db and -cycle-trace name the same file`},
		{"characterize", []string{"-cpuprofile", x, "-memprofile", x}, `-cpuprofile and -memprofile`},
		{"characterize", []string{"-trace", x, "-patterns", x}, `-trace and -patterns`},
		{"shmoo", []string{"-db", x, "-metrics", x}, `-metrics and -db name the same file`},
		{"lotchar", []string{"-trace", x, "-db", x}, `-trace and -db`},
		{"characterize", []string{"-trace", x, "-metrics", y, "-weights", filepath.Join(dir, "w")}, ""},
		{"characterize", []string{"-trace", os.DevNull, "-metrics", os.DevNull}, ""},
	} {
		fs := flag.NewFlagSet(tc.binary, flag.ContinueOnError)
		c := Register(fs)
		binaries[tc.binary](fs)
		if err := fs.Parse(tc.args); err != nil {
			t.Fatal(err)
		}
		err := c.Validate()
		switch {
		case tc.wantErr == "" && err != nil:
			t.Errorf("%s %v: Validate() = %v, want nil", tc.binary, tc.args, err)
		case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
			t.Errorf("%s %v: Validate() = %v, want containing %q", tc.binary, tc.args, err, tc.wantErr)
		}
	}

	// marchgen defines -o itself, on the flag set Register was given.
	fs := flag.NewFlagSet("marchgen", flag.ContinueOnError)
	c := Register(fs)
	fs.String("o", "", "output pattern file")
	if err := fs.Parse([]string{"-o", x, "-trace", x}); err != nil {
		t.Fatal(err)
	}
	if err := c.Validate(); err == nil || !strings.Contains(err.Error(), "-trace and -o name the same file") {
		t.Errorf("marchgen -o X -trace X: Validate() = %v", err)
	}
}
