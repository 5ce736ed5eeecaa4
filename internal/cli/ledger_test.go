package cli

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/ate"
	"repro/internal/parallel"
	"repro/internal/runstore"
	"repro/internal/telemetry"
	"repro/internal/telemetry/flight"
)

// TestValidateRejectsUnwritableRunDir pins the -run-dir preflight error the
// same way the -crash-dir one is pinned: one clear line before any work.
func TestValidateRejectsUnwritableRunDir(t *testing.T) {
	blocked := filepath.Join(t.TempDir(), "blocked")
	if err := os.MkdirAll(blocked, 0o500); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chmod(blocked, 0o755) })
	c := &Common{RunDir: filepath.Join(blocked, "sub")}
	err := c.Validate()
	if err == nil {
		t.Skip("running as root: directory permissions not enforced")
	}
	want := `cannot record runs to -run-dir "` + filepath.Join(blocked, "sub") + `"`
	if !strings.Contains(err.Error(), want) {
		t.Errorf("Validate error = %q, want prefix %q", err, want)
	}
}

// ledgerWorkload drives one deterministic pseudo-run through a Common built
// from real flags, returning the minted record id announced on the ledger.
func ledgerWorkload(t *testing.T, runDir string, parallel int, extraFlags ...string) {
	t.Helper()
	fs := flag.NewFlagSet("characterize", flag.ContinueOnError)
	c := Register(fs)
	args := append([]string{
		"-run-dir", runDir,
		"-parallel", strconv.Itoa(parallel),
	}, extraFlags...)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	tel, err := c.startTelemetry("ledger-run")
	if err != nil {
		t.Fatal(err)
	}
	ph := tel.StartPhase("learn")
	for i := 0; i < 5; i++ {
		tel.RecordSearch(3+i, 20, true)
		tel.RecordItem("learn-test", i+1, 5)
		ph.Span().Event("trip", telemetry.I("i", i), telemetry.F("trip", 1.0+float64(i)/10))
	}
	ph.End(ate.Stats{Measurements: 25, TestTimeSec: 1.5}.Cost())
	tel.RecordGeneration(1, 1.05)
	if err := c.finishTelemetry(io.Discard, tel, ate.Stats{Measurements: 25, TestTimeSec: 1.5}); err != nil {
		t.Fatal(err)
	}
}

// TestLedgerIdenticalRunsCollideAcrossParallelism is the tentpole identity
// contract at the CLI layer: the same workload recorded at -parallel 1, 2
// and 8 mints exactly one record with three attempts in its sidecar.
func TestLedgerIdenticalRunsCollideAcrossParallelism(t *testing.T) {
	runDir := t.TempDir()
	for _, parallel := range []int{1, 2, 8} {
		ledgerWorkload(t, runDir, parallel)
	}
	st, err := runstore.Open(runDir)
	if err != nil {
		t.Fatal(err)
	}
	sums, err := st.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(sums) != 1 {
		t.Fatalf("%d records after 3 identical runs, want 1 (ids: %v)", len(sums), sums)
	}
	sum := sums[0]
	if len(sum.Attempts) != 3 {
		t.Errorf("%d attempts recorded, want 3", len(sum.Attempts))
	}
	gotParallel := map[int]bool{}
	for _, a := range sum.Attempts {
		gotParallel[a.Parallelism] = true
		if a.Flags["parallel"] == "" {
			t.Error("attempt sidecar lost the full flag map")
		}
	}
	for _, p := range []int{1, 2, 8} {
		if !gotParallel[p] {
			t.Errorf("no attempt recorded for -parallel %d", p)
		}
	}
	if sum.Manifest.Flow != "ledger-run" || sum.Manifest.CacheWarmth != "none" {
		t.Errorf("manifest = %+v", sum.Manifest)
	}
	// Scheduling knobs must not leak into the identity flag set.
	for _, name := range []string{"parallel", "trace", "run-dir"} {
		if _, ok := sum.Manifest.Flags[name]; ok {
			t.Errorf("non-identity flag %q leaked into the manifest", name)
		}
	}
	if sum.Manifest.Flags["seed"] != "1" {
		t.Errorf("identity flags lost -seed: %v", sum.Manifest.Flags)
	}
	// No stray ledger temp trace should survive finalize.
	matches, _ := filepath.Glob(filepath.Join(os.TempDir(), "repro-run-*.jsonl"))
	for _, m := range matches {
		raw, err := os.ReadFile(m)
		if err == nil && strings.Contains(string(raw), `"ledger-run"`) {
			t.Errorf("auto-trace temp file %s not cleaned up", m)
		}
	}
}

// TestLedgerDifferentWorkloadMintsNewRecord: an identity flag change (-seed)
// yields a second record in the same ledger.
func TestLedgerDifferentWorkloadMintsNewRecord(t *testing.T) {
	runDir := t.TempDir()
	ledgerWorkload(t, runDir, 1)
	ledgerWorkload(t, runDir, 1, "-seed", "2")
	st, err := runstore.Open(runDir)
	if err != nil {
		t.Fatal(err)
	}
	sums, err := st.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(sums) != 2 {
		t.Fatalf("%d records, want 2", len(sums))
	}
}

// TestLedgerRecordMatchesTraceFile: with an explicit -trace the stored trace
// bytes equal the file on disk, and the manifest digest is the FNV-1a of
// those bytes — the report fingerprint round-trips through the ledger.
func TestLedgerRecordMatchesTraceFile(t *testing.T) {
	runDir := t.TempDir()
	tracePath := filepath.Join(t.TempDir(), "trace.jsonl")
	ledgerWorkload(t, runDir, 2, "-trace", tracePath)
	raw, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	st, err := runstore.Open(runDir)
	if err != nil {
		t.Fatal(err)
	}
	sums, err := st.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(sums) != 1 {
		t.Fatalf("%d records, want 1", len(sums))
	}
	rec, err := st.Get(sums[0].ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rec.Trace, raw) {
		t.Error("stored trace differs from the -trace file")
	}
	h := fnv.New64a()
	h.Write(raw)
	want := "fnv1a:" + strconv.FormatUint(h.Sum64(), 16)
	got := strings.Replace(rec.Manifest.TraceDigest, "fnv1a:", "", 1)
	gotN, err := strconv.ParseUint(got, 16, 64)
	if err != nil {
		t.Fatalf("digest %q unparseable: %v", rec.Manifest.TraceDigest, err)
	}
	if gotN != h.Sum64() {
		t.Errorf("manifest digest %s != trace FNV-1a %s", rec.Manifest.TraceDigest, want)
	}
	// The deterministic report artifact must carry no wall-clock residue.
	if strings.Contains(string(rec.Report), `"wall_seconds":`) &&
		!strings.Contains(string(rec.Report), `"wall_seconds": 0`) {
		t.Errorf("ledger report kept non-zero wall seconds:\n%s", rec.Report)
	}
	if bytes.Contains(rec.Metrics, []byte(`"nd_`)) {
		t.Errorf("ledger metrics kept nd_ series:\n%s", rec.Metrics)
	}
}

// TestLedgerAcceptsRecordFromEarlierBuild pins the ledger contract across
// builds: re-running the workload of a lot record written by an earlier
// build, into a ledger that already holds that record, must mint the same
// run ID. runstore.Put byte-compares a same-ID record, so this fails as
// soon as this build writes different section bytes (report, metrics, the
// empty slot) for the same workload — which TestGoldenRunIDs, comparing two
// runs of one build, cannot see.
func TestLedgerAcceptsRecordFromEarlierBuild(t *testing.T) {
	const id = "bef7231aec0cf133603a884292db8b5f"
	data, err := os.ReadFile(filepath.Join("..", "runstore", "testdata", id+".run"))
	if err != nil {
		t.Fatal(err)
	}
	runDir := t.TempDir()
	if err := os.WriteFile(filepath.Join(runDir, id+".run"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	fr, err := NewFlowRun(FlowSpec{Flow: "lot", Seed: 1,
		Args: map[string]string{"dies": "2", "wafers": "0", "guardband": "0.05"}})
	if err != nil {
		t.Fatal(err)
	}
	fr.Common.Embedded = true
	fr.Common.RunDir = runDir
	if err := fr.Run(io.Discard); err != nil {
		t.Fatalf("re-running the recorded workload: %v", err)
	}
	if got, _ := fr.Common.LastRun(); got != id {
		t.Errorf("re-run minted %s, want the recorded %s", got, id)
	}
}

// TestAttemptRecordsRunFleetTotals runs a real non-embedded flow, which
// installs the fleet observer and, with -crash-dir, a flight recorder, and
// reads the fleet fields of its attempts sidecar: the pool counts are the
// report's and the registry's, the utilization is the run's, and the
// flight tail holds fleet events and no retired pool event.
func TestAttemptRecordsRunFleetTotals(t *testing.T) {
	fr, err := NewFlowRun(FlowSpec{Flow: "shmoo", Seed: 9, Args: map[string]string{"tests": "6", "vdd-min": "1.40"}})
	if err != nil {
		t.Fatal(err)
	}
	runDir := t.TempDir()
	metricsPath := filepath.Join(t.TempDir(), "metrics.json")
	fr.Common.Parallel = 2
	fr.Common.RunDir = runDir
	fr.Common.CrashDir = t.TempDir()
	fr.Common.MetricsPath = metricsPath
	fr.Common.Report = true
	var out bytes.Buffer
	if err := fr.Run(&out); err != nil {
		t.Fatal(err)
	}

	var runs, tasks int64
	var workers int
	_, line, _ := strings.Cut(out.String(), "worker pool: ")
	if _, err := fmt.Sscanf(line, "%d runs, %d tasks, up to %d workers", &runs, &tasks, &workers); err != nil || runs == 0 {
		t.Fatalf("report has no worker pool line (%v):\n%s", err, out.String())
	}
	st, err := runstore.Open(runDir)
	if err != nil {
		t.Fatal(err)
	}
	sums, err := st.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(sums) != 1 || len(sums[0].Attempts) != 1 {
		t.Fatalf("ledger holds %d records, want 1 with one attempt", len(sums))
	}
	a := sums[0].Attempts[0]
	if a.PoolRuns != runs || a.PoolTasks != tasks || a.MaxWorkers != workers {
		t.Errorf("attempt pool = %d runs, %d tasks, %d workers; report says %d, %d, %d",
			a.PoolRuns, a.PoolTasks, a.MaxWorkers, runs, tasks, workers)
	}
	if a.FleetUtilization <= 0 || a.FleetUtilization > 1 {
		t.Errorf("attempt fleet_utilization = %v, want in (0, 1]", a.FleetUtilization)
	}

	raw, err := os.ReadFile(metricsPath)
	if err != nil {
		t.Fatal(err)
	}
	var metrics telemetry.Snapshot
	if err := json.Unmarshal(raw, &metrics); err != nil {
		t.Fatal(err)
	}
	if got := metrics.Counters["nd_fleet_stages_total"]; got != runs {
		t.Errorf("nd_fleet_stages_total = %d, want the report's %d runs", got, runs)
	}
	for _, retired := range []string{"nd_pool_runs_total", "nd_fleet_streams_total"} {
		if _, ok := metrics.Counters[retired]; ok {
			t.Errorf("retired series %s still written", retired)
		}
	}

	var tail struct {
		NonDeterministic flight.Snapshot `json:"non_deterministic"`
	}
	if err := json.Unmarshal(a.Flight, &tail); err != nil {
		t.Fatalf("attempt flight tail: %v", err)
	}
	kinds := map[string]int{}
	for _, ev := range tail.NonDeterministic.Events {
		kinds[ev.Kind]++
	}
	if kinds["fleet"] == 0 || kinds["pool"] != 0 {
		t.Errorf("flight tail kinds = %v, want fleet events and no pool event", kinds)
	}
}

// A run whose start fails leaves nothing in TMPDIR and never reaches its
// body: when the ledger cannot open because -run-dir lies under a regular
// file, and when -inject-fault=error fails the start.
func TestStartTelemetryFailureRemovesLedgerTempTrace(t *testing.T) {
	file := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		c       *Common
		wantErr string
	}{
		{"ledger-open", &Common{RunDir: filepath.Join(file, "ledger")}, "opening run ledger"},
		{"inject-fault", &Common{RunDir: t.TempDir(), InjectFault: "error"}, "injected fatal error"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tmp := t.TempDir()
			t.Setenv("TMPDIR", tmp)
			err := tc.c.Run("x", io.Discard, func(*telemetry.Telemetry) (ate.Stats, error) {
				t.Error("body ran after a failed start")
				return ate.Stats{}, nil
			})
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("Run error = %v, want one containing %q", err, tc.wantErr)
			}
			assertEmptyDir(t, tmp)
		})
	}
}

// assertEmptyDir fails the test for every entry left in dir.
func assertEmptyDir(t *testing.T, dir string) {
	t.Helper()
	left, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range left {
		t.Errorf("left %s behind in %s", e.Name(), dir)
	}
}

// assertNoRecord fails the test when the ledger in runDir holds a record.
func assertNoRecord(t *testing.T, runDir string) {
	t.Helper()
	records, err := filepath.Glob(filepath.Join(runDir, "*.run"))
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 0 {
		t.Errorf("a failed run left ledger records %v", records)
	}
}

// A flow run whose finish fails on an unwritable -metrics path returns the
// error, leaves nothing in TMPDIR, records no run and closes its -listen
// server.
func TestFailedFinishLeavesNothingBehind(t *testing.T) {
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	fr, err := NewFlowRun(FlowSpec{Flow: "shmoo", Seed: 3, Args: map[string]string{"tests": "4"}})
	if err != nil {
		t.Fatal(err)
	}
	c := fr.Common
	c.RunDir = t.TempDir()
	c.MetricsPath = filepath.Join(t.TempDir(), "missing-dir", "m.json")
	c.Listen = "127.0.0.1:0"
	var addr string
	c.OnTelemetryStart = func(*telemetry.Telemetry) { addr = c.server.Addr() }
	if err := fr.Run(io.Discard); err == nil || !strings.Contains(err.Error(), "writing metrics") {
		t.Fatalf("Run error = %v, want the metrics sink error", err)
	}
	assertEmptyDir(t, tmp)
	assertNoRecord(t, c.RunDir)
	if addr == "" {
		t.Fatal("the run started no observability server")
	}
	if resp, err := http.Get("http://" + addr + "/healthz"); err == nil {
		resp.Body.Close()
		t.Error("observability server still serving after the failed run")
	}
}

// A -metrics snapshot that cannot be encoded (a NaN gauge) fails the run
// and leaves the previous -metrics file as it was.
func TestFailedMetricsRenderKeepsPreviousFile(t *testing.T) {
	fr, err := NewFlowRun(FlowSpec{Flow: "shmoo", Seed: 3, Args: map[string]string{"tests": "4"}})
	if err != nil {
		t.Fatal(err)
	}
	c := fr.Common
	c.MetricsPath = filepath.Join(t.TempDir(), "m.json")
	if err := os.WriteFile(c.MetricsPath, []byte("previous\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	c.OnTelemetryStart = func(tel *telemetry.Telemetry) { tel.Registry().Gauge("nan").Set(math.NaN()) }
	if err := fr.Run(io.Discard); err == nil || !strings.Contains(err.Error(), "writing metrics") {
		t.Fatalf("Run error = %v, want the metrics encode error", err)
	}
	if got, err := os.ReadFile(c.MetricsPath); err != nil || string(got) != "previous\n" {
		t.Errorf("after the failed render -metrics reads %q, %v", got, err)
	}
}

// -inject-fault arms in every run, also one that requests no telemetry
// output: "error" fails it with the injected error and "task-panic"
// re-raises the fleet's TaskPanic.
func TestInjectFaultWithoutTelemetry(t *testing.T) {
	newRun := func(mode string) *FlowRun {
		fr, err := NewFlowRun(FlowSpec{Flow: "learn", Seed: 3, Args: map[string]string{"learn-tests": "12"}})
		if err != nil {
			t.Fatal(err)
		}
		fr.Common.InjectFault = mode
		if fr.Common.TelemetryEnabled() {
			t.Fatal("the run requests telemetry output")
		}
		return fr
	}
	if err := newRun("error").Run(io.Discard); err == nil || !strings.Contains(err.Error(), "injected fatal error") {
		t.Errorf("inject-fault=error: Run error = %v", err)
	}
	defer func() {
		if _, ok := recover().(parallel.TaskPanic); !ok {
			t.Error("inject-fault=task-panic: Run did not re-raise the fleet's TaskPanic")
		}
	}()
	newRun("task-panic").Run(io.Discard) //nolint:errcheck // panics
}

// A flow run whose start injects a task panic re-raises the fleet's
// TaskPanic after writing a complete crash bundle, and leaves nothing in
// TMPDIR and no ledger record.
func TestTaskPanicRunWritesBundleAndLeavesNothingBehind(t *testing.T) {
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	fr, err := NewFlowRun(FlowSpec{Flow: "learn", Seed: 3, Args: map[string]string{"learn-tests": "12"}})
	if err != nil {
		t.Fatal(err)
	}
	c := fr.Common
	c.RunDir = t.TempDir()
	c.CrashDir = t.TempDir()
	c.InjectFault = "task-panic"
	func() {
		defer func() {
			if _, ok := recover().(parallel.TaskPanic); !ok {
				t.Error("Run did not re-raise the fleet's TaskPanic")
			}
		}()
		fr.Run(io.Discard) //nolint:errcheck // panics
	}()
	bundles, err := filepath.Glob(filepath.Join(c.CrashDir, "panic-*"))
	if err != nil || len(bundles) != 1 {
		t.Fatalf("panic bundles = %v (%v), want one", bundles, err)
	}
	for _, name := range []string{"meta.json", "flags.json", "stacks.txt", "flight.json", "metrics.json", "report.txt"} {
		if fi, err := os.Stat(filepath.Join(bundles[0], name)); err != nil || fi.Size() == 0 {
			t.Errorf("bundle %s missing or empty (%v)", name, err)
		}
	}
	assertEmptyDir(t, tmp)
	assertNoRecord(t, c.RunDir)
}

// flowRunID runs spec in process into a fresh ledger, after set adjusts
// its Common, and returns the run ID it recorded.
func flowRunID(t *testing.T, spec FlowSpec, set func(c *Common)) string {
	t.Helper()
	fr, err := NewFlowRun(spec)
	if err != nil {
		t.Fatal(err)
	}
	c := fr.Common
	c.Embedded = true
	c.RunDir = t.TempDir()
	set(c)
	if err := fr.Run(io.Discard); err != nil {
		t.Fatal(err)
	}
	id, _ := c.LastRun()
	return id
}

// The ledger records the trace bytes the tracer wrote, not whatever the
// -trace file holds at the end of the run: a FlowRun, which skips Validate,
// whose -metrics write replaces its -trace file still records the run ID of
// the same run without -trace.
func TestLedgerRecordsTheTraceTheTracerWrote(t *testing.T) {
	spec := FlowSpec{Flow: "learn", Seed: 1, Args: map[string]string{"learn-tests": "12"}}
	want := flowRunID(t, spec, func(*Common) {})
	shared := filepath.Join(t.TempDir(), "out.json")
	got := flowRunID(t, spec, func(c *Common) { c.TracePath, c.MetricsPath = shared, shared })
	if got != want {
		t.Errorf("with -trace and -metrics on one file the run recorded %s, want %s", got, want)
	}
}

// A flow that opens no measurement store records the same run as without
// -cache-dir: the flag changes nothing it computes.
func TestCacheDirIgnoredByFlowKeepsRunID(t *testing.T) {
	for _, spec := range []FlowSpec{
		{Flow: "shmoo", Seed: 1, Args: map[string]string{"tests": "5"}},
		{Flow: "table1", Seed: 1, Args: map[string]string{"random-tests": "50", "learn-tests": "30"}},
	} {
		want := flowRunID(t, spec, func(*Common) {})
		cacheDir := filepath.Join(t.TempDir(), "cache")
		got := flowRunID(t, spec, func(c *Common) { c.CacheDir = cacheDir })
		if got != want {
			t.Errorf("%s with -cache-dir recorded %s, without %s", spec.Flow, got, want)
		}
		if _, err := os.Stat(cacheDir); !os.IsNotExist(err) {
			t.Errorf("%s created the -cache-dir it ignores (%v)", spec.Flow, err)
		}
	}
}
