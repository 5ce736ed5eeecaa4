package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"repro/internal/runstore"
	"repro/internal/telemetry"
)

// syntheticTrace runs a real telemetry pipeline into a buffer and returns
// the trace bytes: one "learn" phase costing the given measurements.
func syntheticTrace(t *testing.T, measurements int64) []byte {
	t.Helper()
	var buf bytes.Buffer
	tel := telemetry.New("characterize", telemetry.NewTracer(&buf))
	tel.StartPhase("learn").End(telemetry.Cost{Measurements: measurements, SimTimeSec: float64(measurements) / 10})
	if err := tel.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// seedLedger stores a record for each measurement count and returns the ids
// in insertion order (attempt times force List's chronology to match).
func seedLedger(t *testing.T, dir string, measurements ...int64) (*runstore.Store, []string) {
	t.Helper()
	st, err := runstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for i, m := range measurements {
		rec := &runstore.Record{
			Manifest: runstore.Manifest{
				Version: runstore.FormatVersion,
				Flow:    "characterize",
				Seed:    int64(i + 1),
				Flags:   map[string]string{"learn-tests": fmt.Sprint(m)},
			},
			Report: []byte(fmt.Sprintf(`{"total":{"measurements":%d,"sim_time_sec":%g}}`, m, float64(m)/10)),
			Trace:  syntheticTrace(t, m),
		}
		id, _, err := st.Put(rec)
		if err != nil {
			t.Fatal(err)
		}
		if err := st.AppendAttempt(id, runstore.Attempt{
			TimeUnixNano: int64(i+1) * 1000, Parallelism: 1 + i, WallSeconds: 0.5,
		}); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	return st, ids
}

func startLedgerServer(t *testing.T, st *runstore.Store) *Server {
	t.Helper()
	srv, err := Start("127.0.0.1:0", Options{
		Run:    "characterize",
		Ledger: st,
		RunInfo: func() map[string]string {
			return map[string]string{
				"flow": "characterize", "seed": "1",
				"run_fingerprint": "fnv1a:00000000deadbeef",
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

func TestRunsEndpointListsAndPages(t *testing.T) {
	st, ids := seedLedger(t, t.TempDir(), 100, 130, 200)
	srv := startLedgerServer(t, st)
	base := "http://" + srv.Addr()

	code, body := get(t, base+"/runs")
	if code != 200 {
		t.Fatalf("/runs = %d %s", code, body)
	}
	var listing struct {
		Total  int `json:"total"`
		Count  int `json:"count"`
		Offset int `json:"offset"`
		Runs   []struct {
			ID           string `json:"id"`
			Flow         string `json:"flow"`
			Measurements int64  `json:"measurements"`
			Attempts     int    `json:"attempts"`
		} `json:"runs"`
	}
	if err := json.Unmarshal([]byte(body), &listing); err != nil {
		t.Fatalf("bad /runs JSON: %v\n%s", err, body)
	}
	if listing.Total != 3 || listing.Count != 3 {
		t.Errorf("listing total/count = %d/%d, want 3/3", listing.Total, listing.Count)
	}
	if listing.Runs[0].ID != ids[0] || listing.Runs[0].Measurements != 100 || listing.Runs[0].Attempts != 1 {
		t.Errorf("first row = %+v, want id %s", listing.Runs[0], ids[0])
	}

	// Paging: offset 2 leaves one row; limit 1 caps the page.
	code, body = get(t, base+"/runs?offset=2&limit=1")
	if code != 200 || !strings.Contains(body, ids[2]) || strings.Contains(body, ids[0]) {
		t.Errorf("paged /runs = %d %s", code, body)
	}
	// An offset past the end, even one where offset+limit overflows,
	// is an empty page.
	code, body = get(t, base+"/runs?offset=9223372036854775807")
	var past struct {
		Total int `json:"total"`
		Count int `json:"count"`
	}
	if code != 200 || json.Unmarshal([]byte(body), &past) != nil || past.Total != 3 || past.Count != 0 {
		t.Errorf("/runs past the end = %d %s, want 200 with total 3 and count 0", code, body)
	}
	// Filters: an unmatched flow leaves nothing.
	code, body = get(t, base+"/runs?flow=nope")
	if code != 200 || !strings.Contains(body, `"total": 0`) {
		t.Errorf("filtered /runs = %d %s", code, body)
	}
	code, body = get(t, base+"/runs?seed=2")
	if code != 200 || !strings.Contains(body, ids[1]) || strings.Contains(body, ids[0]) {
		t.Errorf("seed-filtered /runs = %d %s", code, body)
	}
}

func TestRunByIDEndpoint(t *testing.T) {
	st, ids := seedLedger(t, t.TempDir(), 100)
	srv := startLedgerServer(t, st)
	base := "http://" + srv.Addr()

	code, body := get(t, base+"/runs/"+ids[0])
	if code != 200 {
		t.Fatalf("/runs/<id> = %d %s", code, body)
	}
	var rec struct {
		ID         string          `json:"id"`
		Manifest   json.RawMessage `json:"manifest"`
		Report     json.RawMessage `json:"report"`
		TraceBytes int             `json:"trace_bytes"`
		Attempts   []any           `json:"attempts"`
	}
	if err := json.Unmarshal([]byte(body), &rec); err != nil {
		t.Fatalf("bad record JSON: %v\n%s", err, body)
	}
	if rec.ID != ids[0] || rec.TraceBytes == 0 || len(rec.Attempts) != 1 {
		t.Errorf("record = %+v", rec)
	}

	if code, _ := get(t, base+"/runs/not-a-valid-id"); code != 400 {
		t.Errorf("invalid id = %d, want 400", code)
	}
	if code, _ := get(t, base+"/runs/"+strings.Repeat("a", 32)); code != 404 {
		t.Errorf("missing id = %d, want 404", code)
	}
}

func TestRunsDiffEndpoint(t *testing.T) {
	// 100 -> 130 measurements in "learn": a +30% regression.
	st, ids := seedLedger(t, t.TempDir(), 100, 130)
	srv := startLedgerServer(t, st)
	base := "http://" + srv.Addr()

	url := fmt.Sprintf("%s/runs/diff?a=%s&b=%s&fail_over=20&min_measurements=10", base, ids[0], ids[1])
	code, body := get(t, url)
	if code != 200 {
		t.Fatalf("/runs/diff = %d %s", code, body)
	}
	var diff struct {
		A    string        `json:"a"`
		B    string        `json:"b"`
		Diff TraceDiffJSON `json:"diff"`
	}
	if err := json.Unmarshal([]byte(body), &diff); err != nil {
		t.Fatalf("bad diff JSON: %v\n%s", err, body)
	}
	if diff.A != ids[0] || diff.B != ids[1] {
		t.Errorf("diff ids = %s/%s", diff.A, diff.B)
	}
	if diff.Diff.Regressions == 0 {
		t.Errorf("+30%% growth not flagged: %+v", diff.Diff)
	}
	found := false
	for _, row := range diff.Diff.Labels {
		if row.Label == "phase:learn" || strings.Contains(row.Label, "learn") {
			found = true
			if !row.Regressed {
				t.Errorf("learn row not regressed: %+v", row)
			}
		}
	}
	if !found {
		t.Errorf("no learn row in diff: %+v", diff.Diff.Labels)
	}

	// Self-diff is clean.
	code, body = get(t, fmt.Sprintf("%s/runs/diff?a=%s&b=%s&fail_over=20", base, ids[0], ids[0]))
	if code != 200 || !strings.Contains(body, `"regressions": 0`) {
		t.Errorf("self-diff = %d %s", code, body)
	}
	// Missing side is a 400.
	if code, _ := get(t, base+"/runs/diff?a="+ids[0]); code != 400 {
		t.Errorf("one-sided diff = %d, want 400", code)
	}
}

func TestRunsEndpointsWithoutLedger(t *testing.T) {
	srv, _, _ := startTestServer(t)
	base := "http://" + srv.Addr()
	for _, path := range []string{"/runs", "/runs/" + strings.Repeat("a", 32), "/runs/diff"} {
		code, body := get(t, base+path)
		if code != 404 || !strings.Contains(body, "no run ledger attached") {
			t.Errorf("%s without ledger = %d %s", path, code, body)
		}
	}
}

func TestMetricsCarriesRunInfo(t *testing.T) {
	st, _ := seedLedger(t, t.TempDir(), 100)
	srv := startLedgerServer(t, st)
	code, body := get(t, "http://"+srv.Addr()+"/metrics")
	if code != 200 {
		t.Fatalf("/metrics = %d", code)
	}
	want := `repro_run_info{flow="characterize",run_fingerprint="fnv1a:00000000deadbeef",seed="1"} 1`
	if !strings.Contains(body, want) {
		t.Errorf("/metrics missing run info gauge %q:\n%s", want, body)
	}
}
