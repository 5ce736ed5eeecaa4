package cli

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/ate"
	"repro/internal/telemetry"
)

func TestRegisterDefaults(t *testing.T) {
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	c := Register(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if c.Seed != 1 || c.Parallel != 0 || c.NoCache || c.TelemetryEnabled() {
		t.Errorf("defaults wrong: %+v", c)
	}
}

func TestRegisterParsesSharedFlags(t *testing.T) {
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	c := Register(fs)
	err := fs.Parse([]string{
		"-seed", "7", "-parallel", "2", "-no-cache",
		"-trace", "t.jsonl", "-metrics", "m.json", "-report",
		"-cpuprofile", "cpu.pb.gz", "-memprofile", "mem.pb.gz",
	})
	if err != nil {
		t.Fatal(err)
	}
	if c.Seed != 7 || c.Parallel != 2 || !c.NoCache {
		t.Errorf("base flags wrong: %+v", c)
	}
	if c.TracePath != "t.jsonl" || c.MetricsPath != "m.json" || !c.Report {
		t.Errorf("telemetry flags wrong: %+v", c)
	}
	if !c.TelemetryEnabled() {
		t.Error("telemetry not enabled")
	}
	if c.CPUProfilePath != "cpu.pb.gz" || c.MemProfilePath != "mem.pb.gz" {
		t.Errorf("profile flags wrong: %+v", c)
	}
}

func TestStartProfilesDisabledIsNoOp(t *testing.T) {
	c := &Common{}
	stop, err := c.startProfiles()
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
}

func TestStartProfilesWritesBothProfiles(t *testing.T) {
	dir := t.TempDir()
	c := &Common{
		CPUProfilePath: filepath.Join(dir, "cpu.pb.gz"),
		MemProfilePath: filepath.Join(dir, "mem.pb.gz"),
	}
	stop, err := c.startProfiles()
	if err != nil {
		t.Fatal(err)
	}
	// Burn a little CPU and heap so the profiles have something to record.
	sink := 0.0
	for i := 0; i < 1_000_000; i++ {
		sink += float64(i % 7)
	}
	_ = sink
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{c.CPUProfilePath, c.MemProfilePath} {
		fi, err := os.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() == 0 {
			t.Errorf("profile %s is empty", p)
		}
	}
}

func TestStartProfilesBadPath(t *testing.T) {
	c := &Common{CPUProfilePath: filepath.Join(t.TempDir(), "missing-dir", "cpu.pb.gz")}
	if _, err := c.startProfiles(); err == nil {
		t.Error("expected error for unwritable cpu profile path")
	}
}

func TestStartTelemetryDisabled(t *testing.T) {
	c := &Common{}
	tel, err := c.startTelemetry("unit")
	if err != nil {
		t.Fatal(err)
	}
	if tel != nil {
		t.Error("telemetry handle created with no outputs requested")
	}
	var buf bytes.Buffer
	if err := c.finishTelemetry(&buf, tel, ate.Stats{}); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Errorf("disabled telemetry produced output: %q", buf.String())
	}
}

// A run with telemetry but neither -listen nor -crash-dir, such as a
// -run-dir run, has no live observer, so the per-item and per-search hooks
// allocate nothing: a typed-nil flight recorder would still run its
// callbacks, which build their fields before its nil check.
func TestTelemetryWithoutLiveObserversDoesNotAllocate(t *testing.T) {
	c := &Common{RunDir: t.TempDir(), Embedded: true}
	tel, err := c.startTelemetry("unit")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.release() }) //nolint:errcheck // no server to close
	if allocs := testing.AllocsPerRun(100, func() {
		tel.RecordItem("die", 1, 2)
		tel.RecordSearch(4, 10, true)
	}); allocs != 0 {
		t.Errorf("an item and a search allocate %v times with no live observer", allocs)
	}
}

func TestStartFinishTelemetryEndToEnd(t *testing.T) {
	dir := t.TempDir()
	c := &Common{
		TracePath:   filepath.Join(dir, "trace.jsonl"),
		MetricsPath: filepath.Join(dir, "metrics.json"),
		Report:      true,
	}
	tel, err := c.startTelemetry("unit-run")
	if err != nil {
		t.Fatal(err)
	}
	if tel == nil {
		t.Fatal("no telemetry handle")
	}
	tel.StartPhase("work").End(ate.Stats{Measurements: 3, VectorsApplied: 30, TestTimeSec: 0.5}.Cost())
	tel.RecordSearch(4, 10, true)

	var buf bytes.Buffer
	if err := c.finishTelemetry(&buf, tel, ate.Stats{Measurements: 3, VectorsApplied: 30, TestTimeSec: 0.5}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"run report: unit-run", "work", "TOTAL"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}

	trace, err := os.ReadFile(c.TracePath)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(trace)), "\n")
	if len(lines) < 3 {
		t.Fatalf("trace too short: %q", string(trace))
	}
	for i, line := range lines {
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("trace line %d invalid: %v", i, err)
		}
	}

	metrics, err := os.ReadFile(c.MetricsPath)
	if err != nil {
		t.Fatal(err)
	}
	var snap map[string]any
	if err := json.Unmarshal(metrics, &snap); err != nil {
		t.Fatalf("metrics JSON invalid: %v\n%s", err, string(metrics))
	}
	counters, ok := snap["counters"].(map[string]any)
	if !ok || counters["search_total"] != float64(1) {
		t.Errorf("metrics snapshot wrong: %v", snap)
	}
}

func TestRegisterListenFlag(t *testing.T) {
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	c := Register(fs)
	if err := fs.Parse([]string{"-listen", "127.0.0.1:0"}); err != nil {
		t.Fatal(err)
	}
	if c.Listen != "127.0.0.1:0" {
		t.Errorf("Listen = %q", c.Listen)
	}
	if !c.TelemetryEnabled() {
		t.Error("-listen alone should enable telemetry")
	}
}

func TestStartTelemetryWithListenServesLive(t *testing.T) {
	dir := t.TempDir()
	c := &Common{
		Listen:    "127.0.0.1:0",
		TracePath: filepath.Join(dir, "trace.jsonl"),
	}
	tel, err := c.startTelemetry("live-run")
	if err != nil {
		t.Fatal(err)
	}
	if c.server == nil || c.progress == nil {
		t.Fatal("no live server started")
	}
	base := "http://" + c.server.Addr()

	tel.StartPhase("work").End(ate.Stats{Measurements: 2}.Cost())
	tel.RecordSearch(2, 10, true)

	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || !strings.Contains(string(body), `repro_search_total{run="live-run"} 1`) {
		t.Errorf("/metrics = %d\n%s", resp.StatusCode, body)
	}
	resp, err = http.Get(base + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Errorf("/readyz during run = %d", resp.StatusCode)
	}

	var buf bytes.Buffer
	if err := c.finishTelemetry(&buf, tel, ate.Stats{Measurements: 2}); err != nil {
		t.Fatal(err)
	}
	if c.server != nil {
		t.Error("server handle not cleared after finish")
	}
	if _, err := http.Get(base + "/healthz"); err == nil {
		t.Error("server still serving after finishTelemetry")
	}
}

// TestTraceBytesIdenticalWithListen pins the -listen determinism contract
// at the CLI layer: the live server and its progress observer must not
// change a single trace byte.
func TestTraceBytesIdenticalWithListen(t *testing.T) {
	dir := t.TempDir()
	record := func(listen string, path string) []byte {
		t.Helper()
		c := &Common{Listen: listen, TracePath: filepath.Join(dir, path)}
		tel, err := c.startTelemetry("pin-run")
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
		if err := c.finishTelemetry(io.Discard, tel, ate.Stats{Measurements: 25}); err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(c.TracePath)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	plain := record("", "plain.jsonl")
	listened := record("127.0.0.1:0", "listened.jsonl")
	if !bytes.Equal(plain, listened) {
		t.Error("-listen changed the trace bytes")
	}
}

func TestStartTelemetryBadListenAddr(t *testing.T) {
	c := &Common{Listen: "127.0.0.1:notaport"}
	if _, err := c.startTelemetry("x"); err == nil {
		t.Error("expected error for unparseable listen address")
	}
}

func TestFinishTelemetryMetricsSinkError(t *testing.T) {
	c := &Common{MetricsPath: filepath.Join(t.TempDir(), "missing-dir", "m.json")}
	tel, err := c.startTelemetry("sink-err")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.finishTelemetry(io.Discard, tel, ate.Stats{}); err == nil {
		t.Error("expected error for unwritable metrics path")
	}
}

type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errors.New("pipe gone") }

func TestFinishTelemetryReportSinkError(t *testing.T) {
	c := &Common{Report: true}
	tel, err := c.startTelemetry("sink-err")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.finishTelemetry(failWriter{}, tel, ate.Stats{}); err == nil {
		t.Error("expected error when the report writer fails")
	}
}

func TestPrintCacheSummary(t *testing.T) {
	var buf bytes.Buffer
	PrintCacheSummary(&buf, 6, 4)
	if got := buf.String(); !strings.Contains(got, "6 hits / 4 misses") || !strings.Contains(got, "60.0%") {
		t.Errorf("summary = %q", got)
	}
	buf.Reset()
	PrintCacheSummary(&buf, 0, 0)
	if !strings.Contains(buf.String(), "no lookups") {
		t.Errorf("disabled summary = %q", buf.String())
	}
}

func TestOpenCacheStore(t *testing.T) {
	c := &Common{}
	s, err := c.OpenCacheStore(1)
	if err != nil || s != nil {
		t.Fatalf("unset -cache-dir: store=%v err=%v, want nil/nil", s, err)
	}
	c.CacheDir = t.TempDir() + "/cache"
	s, err = c.OpenCacheStore(7)
	if err != nil || s == nil {
		t.Fatalf("OpenCacheStore: store=%v err=%v", s, err)
	}
	s.Put(1, []byte("x"))
	if _, err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	// Reopening under the same scope recovers the entry; a different
	// scope skips the segment.
	same, err := c.OpenCacheStore(7)
	if err != nil || same.Stats().LoadedEntries != 1 {
		t.Fatalf("reopen: stats %+v err=%v, want 1 entry loaded", same.Stats(), err)
	}
	other, err := c.OpenCacheStore(8)
	if err != nil || other.Stats().LoadedEntries != 0 {
		t.Fatalf("foreign scope: stats %+v err=%v, want no entry loaded", other.Stats(), err)
	}
}
