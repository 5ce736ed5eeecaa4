package runstore

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func testRecord(seed int64, trace string) *Record {
	return &Record{
		Manifest: Manifest{
			Version:     FormatVersion,
			Flow:        "characterize",
			Seed:        seed,
			Flags:       map[string]string{"learn-tests": "20", "seed": "1"},
			CacheWarmth: "none",
			TraceDigest: "fnv1a:0123456789abcdef",
		},
		Report:  []byte(`{"total":{"measurements":120,"vectors":2400,"sim_time_sec":3.5}}`),
		Metrics: []byte(`{"counters":{"search_total":4}}`),
		Trace:   []byte(trace),
	}
}

func TestPutGetRoundTrip(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	rec := testRecord(1, "line1\nline2\n")
	id, created, err := st.Put(rec)
	if err != nil {
		t.Fatal(err)
	}
	if !created {
		t.Error("first Put reported created=false")
	}
	if !ValidID(id) {
		t.Errorf("Put minted invalid id %q", id)
	}

	got, err := st.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	if got.Manifest.Flow != rec.Manifest.Flow || got.Manifest.Seed != rec.Manifest.Seed ||
		got.Manifest.Flags["learn-tests"] != "20" {
		t.Errorf("manifest round-trip: got %+v want %+v", got.Manifest, rec.Manifest)
	}
	if string(got.Trace) != string(rec.Trace) || string(got.Report) != string(rec.Report) {
		t.Error("artifact bytes did not round-trip")
	}
	totals, ok := got.Totals()
	if !ok || totals.Measurements != 120 || totals.SimTimeSec != 3.5 {
		t.Errorf("Totals = %+v ok=%v", totals, ok)
	}
}

func TestPutIdenticalCollides(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	id1, created1, err := st.Put(testRecord(1, "trace\n"))
	if err != nil {
		t.Fatal(err)
	}
	id2, created2, err := st.Put(testRecord(1, "trace\n"))
	if err != nil {
		t.Fatal(err)
	}
	if id1 != id2 {
		t.Errorf("identical records got different ids %s / %s", id1, id2)
	}
	if !created1 || created2 {
		t.Errorf("created flags = %v, %v; want true, false", created1, created2)
	}
	entries, err := os.ReadDir(st.Dir())
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Errorf("%d files in ledger after double Put, want 1", len(entries))
	}
}

func TestPutDifferentSeedDifferentID(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	id1, _, err := st.Put(testRecord(1, "trace\n"))
	if err != nil {
		t.Fatal(err)
	}
	id2, _, err := st.Put(testRecord(2, "trace\n"))
	if err != nil {
		t.Fatal(err)
	}
	if id1 == id2 {
		t.Error("different seeds collided into one id")
	}
}

func TestAttemptsSidecar(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	id, _, err := st.Put(testRecord(1, "trace\n"))
	if err != nil {
		t.Fatal(err)
	}
	// No sidecar yet: zero attempts, no error.
	got, err := st.Attempts(id)
	if err != nil || got != nil {
		t.Fatalf("Attempts before any append = %v, %v", got, err)
	}
	for i, a := range []Attempt{
		{TimeUnixNano: 100, WallSeconds: 1.5, Parallelism: 1},
		{TimeUnixNano: 200, WallSeconds: 0.9, Parallelism: 8},
	} {
		if err := st.AppendAttempt(id, a); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	got, err = st.Attempts(id)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].TimeUnixNano != 100 || got[1].Parallelism != 8 {
		t.Errorf("Attempts = %+v", got)
	}

	sums, err := st.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(sums) != 1 || sums[0].FirstAttemptNano() != 100 || sums[0].LastAttemptNano() != 200 {
		t.Errorf("List = %+v", sums)
	}
}

func TestListSortsChronologically(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	idOld, _, err := st.Put(testRecord(1, "old\n"))
	if err != nil {
		t.Fatal(err)
	}
	idNew, _, err := st.Put(testRecord(2, "new\n"))
	if err != nil {
		t.Fatal(err)
	}
	if err := st.AppendAttempt(idNew, Attempt{TimeUnixNano: 50}); err != nil {
		t.Fatal(err)
	}
	if err := st.AppendAttempt(idOld, Attempt{TimeUnixNano: 500}); err != nil {
		t.Fatal(err)
	}
	sums, err := st.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(sums) != 2 || sums[0].ID != idNew || sums[1].ID != idOld {
		t.Errorf("List order wrong: %+v", sums)
	}
}

func TestListErrorsOnCorruptRecord(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	id, _, err := st.Put(testRecord(1, "trace\n"))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(st.Dir(), id+".run")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := st.List(); err == nil {
		t.Error("List silently accepted a corrupt record")
	}
	// Foreign files are skipped, not errors.
	if err := os.WriteFile(filepath.Join(st.Dir(), "notes.txt"), []byte("hi"), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestGetRejectsInvalidAndMissingIDs(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"", "short", "../../../../etc/passwd", strings.Repeat("g", 32), strings.Repeat("A", 32)} {
		if _, err := st.Get(id); err == nil {
			t.Errorf("Get(%q) accepted an invalid id", id)
		}
		if ValidID(id) {
			t.Errorf("ValidID(%q) = true", id)
		}
	}
	missing := strings.Repeat("a", 32)
	if _, err := st.Get(missing); err == nil || !strings.Contains(err.Error(), "no record") {
		t.Errorf("Get(missing) = %v", err)
	}
}

func TestDecodeRejectsFutureVersion(t *testing.T) {
	rec := testRecord(1, "trace\n")
	enc, err := rec.Encode()
	if err != nil {
		t.Fatal(err)
	}
	enc[len(recordMagic)-1] = '2' // RPRORUN1 -> RPRORUN2
	_, err = Decode(enc, "future.run")
	if err == nil || !strings.Contains(err.Error(), "unsupported record format version") {
		t.Errorf("Decode of future version = %v", err)
	}
}

// TestRecordFixtureRoundTrip pins the record format: a lotchar run record
// written by an earlier build decodes to its content address and re-encodes
// byte for byte.
func TestRecordFixtureRoundTrip(t *testing.T) {
	const id = "bef7231aec0cf133603a884292db8b5f"
	data, err := os.ReadFile(filepath.Join("testdata", id+".run"))
	if err != nil {
		t.Fatal(err)
	}
	rec, err := Decode(data, id+".run")
	if err != nil {
		t.Fatal(err)
	}
	if got, err := rec.ID(); err != nil || got != id {
		t.Errorf("decoded record ID = %s, %v; want %s", got, err, id)
	}
	enc, err := rec.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc, data) {
		t.Fatalf("re-encoded record differs from the fixture (%d vs %d bytes)", len(enc), len(data))
	}
}

func TestOpenRejectsUnwritableParent(t *testing.T) {
	blocked := filepath.Join(t.TempDir(), "blocked")
	if err := os.MkdirAll(blocked, 0o500); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chmod(blocked, 0o755) })
	if _, err := Open(filepath.Join(blocked, "sub")); err == nil {
		t.Skip("running as root: directory permissions not enforced")
	}
}

func TestPutDetectsSameIDByteMismatch(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	rec := testRecord(1, "trace\n")
	id, _, err := st.Put(rec)
	if err != nil {
		t.Fatal(err)
	}
	// Rewrite the stored file with different (still well-formed) bytes: a
	// second Put of the true record must refuse to treat it as identical.
	other := testRecord(1, "trace\n")
	other.Report = []byte(`{"total":{"measurements":999}}`)
	enc, err := other.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(st.Dir(), id+".run"), enc, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.Put(rec); err == nil || !strings.Contains(err.Error(), "differs from a same-ID encode") {
		t.Errorf("Put over mismatched bytes = %v", err)
	}
}

func TestAppendAttemptRejectsInvalidID(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := st.AppendAttempt("../escape", Attempt{}); err == nil {
		t.Error("AppendAttempt accepted an invalid id")
	}
	if _, err := st.Attempts("../escape"); err == nil {
		t.Error("Attempts accepted an invalid id")
	}
}

func TestAttemptsRejectsMalformedSidecarLine(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	id, _, err := st.Put(testRecord(1, "trace\n"))
	if err != nil {
		t.Fatal(err)
	}
	if err := st.AppendAttempt(id, Attempt{TimeUnixNano: 1}); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(filepath.Join(st.Dir(), id+".attempts.jsonl"), os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("{not json\n"); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if _, err := st.Attempts(id); err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Errorf("Attempts over a malformed line = %v", err)
	}
}

// TestAttemptsDecodeRetiredSchedulerField pins sidecar compatibility:
// attempt lines written when executions still recorded a "scheduler" field
// decode cleanly, with every surviving field intact.
func TestAttemptsDecodeRetiredSchedulerField(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	id, _, err := st.Put(testRecord(1, "trace\n"))
	if err != nil {
		t.Fatal(err)
	}
	line := `{"time_unix_nano":300,"wall_seconds":2.5,"parallelism":8,"scheduler":"batch","pool_runs":4}` + "\n"
	if err := os.WriteFile(filepath.Join(st.Dir(), id+".attempts.jsonl"), []byte(line), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := st.Attempts(id)
	if err != nil {
		t.Fatalf("Attempts over a line with the retired scheduler field: %v", err)
	}
	if len(got) != 1 || got[0].TimeUnixNano != 300 || got[0].WallSeconds != 2.5 ||
		got[0].Parallelism != 8 || got[0].PoolRuns != 4 {
		t.Errorf("Attempts = %+v", got)
	}
}

func TestTotalsMissingOrBadReport(t *testing.T) {
	rec := &Record{Manifest: Manifest{Version: FormatVersion}}
	if _, ok := rec.Totals(); ok {
		t.Error("Totals ok=true with no report")
	}
	rec.Report = []byte("not json")
	if _, ok := rec.Totals(); ok {
		t.Error("Totals ok=true with an unparseable report")
	}
}

// TestTornAttemptAppendKeepsLedgerListable: an attempt append cut short by
// a full disk or a crash leaves a partial sidecar line. The listing skips
// it instead of failing, and the next append cuts it off instead of gluing
// its own line onto it.
func TestTornAttemptAppendKeepsLedgerListable(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	id, _, err := st.Put(testRecord(1, "trace\n"))
	if err != nil {
		t.Fatal(err)
	}
	if err := st.AppendAttempt(id, Attempt{TimeUnixNano: 100}); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(filepath.Join(st.Dir(), id+".attempts.jsonl"), os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"time_unix_nano":200,"wall_sec`); err != nil {
		t.Fatal(err)
	}
	f.Close()
	sums, err := st.List()
	if err != nil {
		t.Fatalf("List over a torn sidecar line: %v", err)
	}
	if len(sums) != 1 || len(sums[0].Attempts) != 1 || sums[0].Attempts[0].TimeUnixNano != 100 {
		t.Fatalf("List over a torn sidecar line = %+v, want the one whole attempt", sums)
	}
	if err := st.AppendAttempt(id, Attempt{TimeUnixNano: 300}); err != nil {
		t.Fatal(err)
	}
	got, err := st.Attempts(id)
	if err != nil {
		t.Fatalf("Attempts after appending past a torn line: %v", err)
	}
	if len(got) != 2 || got[0].TimeUnixNano != 100 || got[1].TimeUnixNano != 300 {
		t.Errorf("Attempts after appending past a torn line = %+v, want 100 then 300", got)
	}
}
