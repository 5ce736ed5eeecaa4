package cli

// The golden run-ID corpus: every flow at three seeds, each run at two
// parallelism levels, must mint the content-addressed run ID pinned in
// testdata/golden_runs.json. The run ID hashes the canonical manifest plus
// the full trace, so this is the whole-system regression oracle for any
// refactor that claims to be behaviour-neutral. The file changes only
// through an explicit -update, so every re-pin shows up in review.

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGoldenRuns = flag.Bool("update", false, "rewrite testdata/golden_runs.json from the current code")

const goldenRunsPath = "testdata/golden_runs.json"

// goldenRun is one pinned entry: a flow spec and the run ID it mints.
type goldenRun struct {
	Flow  string            `json:"flow"`
	Seed  int64             `json:"seed"`
	Args  map[string]string `json:"args"`
	RunID string            `json:"run_id"`
}

// goldenWorkloads are the small per-flow workloads the corpus pins.
var goldenWorkloads = []struct {
	flow string
	args map[string]string
}{
	{"learn", map[string]string{"learn-tests": "60"}},
	{"optimize", map[string]string{"learn-tests": "60"}},
	{"table1", map[string]string{"random-tests": "100"}},
	{"shmoo", map[string]string{"tests": "200"}},
	{"lot", map[string]string{"wafers": "2", "dies": "200"}},
}

func TestGoldenRunIDs(t *testing.T) {
	if testing.Short() {
		t.Skip("golden run corpus runs every flow six times")
	}
	runDir := t.TempDir()
	var got []goldenRun
	for _, w := range goldenWorkloads {
		for _, seed := range []int64{1, 2, 3} {
			spec := FlowSpec{Flow: w.flow, Seed: seed, Args: w.args}
			var id string
			for _, par := range []int{1, 2} {
				fr, err := NewFlowRun(spec)
				if err != nil {
					t.Fatalf("NewFlowRun(%s seed %d): %v", w.flow, seed, err)
				}
				fr.Common.Embedded = true
				fr.Common.Parallel = par
				fr.Common.RunDir = runDir
				if err := fr.Run(&bytes.Buffer{}); err != nil {
					t.Fatalf("%s seed %d parallel %d: %v", w.flow, seed, par, err)
				}
				runID, _ := fr.Common.LastRun()
				if id == "" {
					id = runID
				} else if runID != id {
					t.Errorf("%s seed %d: parallel %d minted %s, parallel 1 minted %s", w.flow, seed, par, runID, id)
				}
			}
			got = append(got, goldenRun{Flow: w.flow, Seed: seed, Args: w.args, RunID: id})
		}
	}
	data, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	data = append(data, '\n')
	if *updateGoldenRuns {
		if err := os.MkdirAll(filepath.Dir(goldenRunsPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenRunsPath, data, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d runs)", goldenRunsPath, len(got))
		return
	}
	want, err := os.ReadFile(goldenRunsPath)
	if err != nil {
		t.Fatalf("reading golden corpus (regenerate with -update): %v", err)
	}
	var pinned []goldenRun
	if err := json.Unmarshal(want, &pinned); err != nil {
		t.Fatalf("decoding %s: %v", goldenRunsPath, err)
	}
	if len(pinned) != len(got) {
		t.Fatalf("%s pins %d runs, the corpus produced %d", goldenRunsPath, len(pinned), len(got))
	}
	for i, p := range pinned {
		g := got[i]
		if p.Flow != g.Flow || p.Seed != g.Seed {
			t.Fatalf("entry %d is %s seed %d, want %s seed %d", i, g.Flow, g.Seed, p.Flow, p.Seed)
		}
		if p.RunID != g.RunID {
			t.Errorf("%s seed %d %v: run ID %s, pinned %s", g.Flow, g.Seed, g.Args, g.RunID, p.RunID)
		}
	}
}
