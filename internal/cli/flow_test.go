package cli

// Flow-spec construction and execution: NewFlowRun must build the owning
// binary's exact flag set, reject off-allowlist args with pinned one-line
// errors, and run every flow body to a finalized ledger record — the
// contract the charserved job service (internal/jobs) is built on.

import (
	"bytes"
	"flag"
	"io"
	"os"
	"strings"
	"testing"
)

func TestFlowNamesAndArgs(t *testing.T) {
	names := FlowNames()
	want := []string{"learn", "lot", "optimize", "shmoo", "table1"}
	if len(names) != len(want) {
		t.Fatalf("FlowNames() = %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("FlowNames() = %v, want %v", names, want)
		}
	}
	args := FlowArgs("shmoo")
	if len(args) != 5 || args[0] != "tdq-max" {
		t.Fatalf("FlowArgs(shmoo) = %v", args)
	}
	if FlowArgs("nope") != nil {
		t.Fatal("FlowArgs of unknown flow should be nil")
	}
}

func TestNewFlowRunValidation(t *testing.T) {
	cases := []struct {
		spec FlowSpec
		want string
	}{
		{FlowSpec{Flow: "frobnicate"}, `unknown flow "frobnicate"`},
		{FlowSpec{Flow: "shmoo", Args: map[string]string{"dies": "3"}}, `flow "shmoo" does not accept arg "dies"`},
		{FlowSpec{Flow: "learn", Args: map[string]string{"learn-tests": "many"}}, `arg learn-tests="many"`},
		{FlowSpec{Flow: "learn", Args: map[string]string{"weights": "w.json"}}, `does not accept arg "weights"`},
		{FlowSpec{Flow: "learn", Args: map[string]string{"param": "bogus"}}, `unknown parameter "bogus"`},
		// Display names are not flag values: one run, one spelling, one run ID.
		{FlowSpec{Flow: "learn", Args: map[string]string{"param": "T_DQ"}}, `unknown parameter "T_DQ"`},
		{FlowSpec{Flow: "learn", Args: map[string]string{"corner": "xx"}}, `unknown corner "xx"`},
		{FlowSpec{Flow: "lot", Args: map[string]string{"dies": "0"}}, `arg dies="0": must be at least 1, got 0`},
		{FlowSpec{Flow: "lot", Args: map[string]string{"wafers": "-1"}}, `arg wafers="-1": must be at least 0`},
		// Only the characterize flows have a memo-cache to disable.
		{FlowSpec{Flow: "shmoo", NoCache: true}, `flow "shmoo": -no-cache has no effect here`},
		{FlowSpec{Flow: "lot", NoCache: true}, `flow "lot": -no-cache has no effect here`},
	}
	for _, tc := range cases {
		_, err := NewFlowRun(tc.spec)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("NewFlowRun(%+v): err %v, want substring %q", tc.spec, err, tc.want)
		}
	}
}

// TestNoCacheOnlyOnCharacterize: every binary registers -no-cache, but only
// characterize's flows read it. Every other binary refuses it in Validate,
// which Main runs before any work (NewFlowRun's refusal, which POST /jobs
// runs, is in TestNewFlowRunValidation); the characterize flows accept it.
func TestNoCacheOnlyOnCharacterize(t *testing.T) {
	for _, name := range []string{"characterize", "shmoo", "lotchar", "tripsearch", "marchgen"} {
		fs := flag.NewFlagSet(name, flag.ContinueOnError)
		var c *Common
		if _, ok := binaries[name]; ok {
			c, _ = newBinary(name, fs)
		} else {
			c = Register(fs) // tripsearch and marchgen register the shared flags alone
		}
		if err := fs.Parse([]string{"-no-cache"}); err != nil {
			t.Fatal(err)
		}
		err := c.Validate()
		if name == "characterize" {
			if err != nil {
				t.Errorf("characterize -no-cache: Validate() = %v, want nil", err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), "-no-cache has no effect here") {
			t.Errorf("%s -no-cache: Validate() = %v, want the no-effect error", name, err)
		}
	}
	for _, flow := range []string{"learn", "optimize", "table1"} {
		if fr, err := NewFlowRun(FlowSpec{Flow: flow, Seed: 1, NoCache: true}); err != nil || !fr.Common.NoCache {
			t.Errorf("flow %s with no-cache: %v, want it accepted", flow, err)
		}
	}
}

// The flags parsed at flag time render their value as flag.StringVar and
// flag.IntVar did, so a run's identity flag map is unchanged.
func TestParsedFlagsRenderAsBefore(t *testing.T) {
	for _, tc := range []struct {
		spec FlowSpec
		want map[string]string
	}{
		{FlowSpec{Flow: "learn"}, map[string]string{"param": "tdq", "corner": "tt"}},
		{FlowSpec{Flow: "learn", Args: map[string]string{"param": "vddmin", "corner": "ss"}},
			map[string]string{"param": "vddmin", "corner": "ss"}},
		{FlowSpec{Flow: "lot"}, map[string]string{"dies": "20", "wafers": "0"}},
		{FlowSpec{Flow: "lot", Args: map[string]string{"dies": "0x14", "wafers": "+3"}},
			map[string]string{"dies": "20", "wafers": "3"}},
	} {
		fr, err := NewFlowRun(tc.spec)
		if err != nil {
			t.Fatal(err)
		}
		got := fr.Common.identityFlags()
		for name, want := range tc.want {
			if got[name] != want {
				t.Errorf("%s %v: -%s renders %q, want %q", tc.spec.Flow, tc.spec.Args, name, got[name], want)
			}
		}
	}
}

// TestFlowRunsFinalize runs every flow end to end at small sizes into a
// run ledger and checks each finalizes with a run ID and fingerprint, and
// that the same spec re-run (even at another parallelism) collides into
// the same record.
func TestFlowRunsFinalize(t *testing.T) {
	specs := []FlowSpec{
		{Flow: "learn", Seed: 7, Args: map[string]string{"learn-tests": "12"}},
		{Flow: "optimize", Seed: 3, Args: map[string]string{"learn-tests": "10"}},
		{Flow: "table1", Seed: 5, Args: map[string]string{"learn-tests": "10", "random-tests": "30"}},
		{Flow: "shmoo", Seed: 9, Args: map[string]string{"tests": "6", "vdd-min": "1.40"}},
		{Flow: "lot", Seed: 11, Args: map[string]string{"dies": "4", "wafers": "2", "guardband": "0.05"}},
	}
	runDir := t.TempDir()
	seen := map[string]string{}
	for _, spec := range specs {
		var firstID, firstFP string
		for _, par := range []int{1, 3} {
			fr, err := NewFlowRun(spec)
			if err != nil {
				t.Fatalf("NewFlowRun(%s): %v", spec.Flow, err)
			}
			fr.Common.Embedded = true
			fr.Common.Parallel = par
			fr.Common.RunDir = runDir
			var out bytes.Buffer
			if err := fr.Run(&out); err != nil {
				t.Fatalf("%s run (parallel %d): %v", spec.Flow, par, err)
			}
			id, fp := fr.Common.LastRun()
			if id == "" || fp == "" {
				t.Fatalf("%s: no ledger record (id %q, fp %q)", spec.Flow, id, fp)
			}
			if firstID == "" {
				firstID, firstFP = id, fp
			} else if id != firstID || fp != firstFP {
				t.Fatalf("%s: parallel %d minted %s/%s, want %s/%s", spec.Flow, par, id, fp, firstID, firstFP)
			}
		}
		seen[spec.Flow] = firstID
	}
	// Different flows must not collide.
	ids := map[string]bool{}
	for flow, id := range seen {
		if ids[id] {
			t.Fatalf("flow %s collided with another flow on run ID %s", flow, id)
		}
		ids[id] = true
	}
}

// TestEmbeddedRunKeepsStderrQuiet pins that a run owned by an in-process
// host (the job service) writes nothing to the process's stderr, even when
// it finalizes into a run ledger: the host reports the run ID itself.
func TestEmbeddedRunKeepsStderrQuiet(t *testing.T) {
	fr, err := NewFlowRun(FlowSpec{Flow: "learn", Seed: 4, Args: map[string]string{"learn-tests": "12"}})
	if err != nil {
		t.Fatal(err)
	}
	fr.Common.Embedded = true
	fr.Common.RunDir = t.TempDir()

	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	saved := os.Stderr
	os.Stderr = w
	runErr := fr.Run(&bytes.Buffer{})
	os.Stderr = saved
	w.Close()
	captured, err := io.ReadAll(r)
	r.Close()
	if err != nil {
		t.Fatal(err)
	}
	if runErr != nil {
		t.Fatal(runErr)
	}
	if id, _ := fr.Common.LastRun(); id == "" {
		t.Fatal("embedded run recorded no ledger entry")
	}
	if len(captured) != 0 {
		t.Errorf("embedded run wrote to stderr: %q", captured)
	}
}

// TestLearnOnlyStopsBeforeOptimize pins the learn preset: the learn flow
// must not run the GA (its output reports the ensemble and stops).
func TestLearnOnlyStopsBeforeOptimize(t *testing.T) {
	fr, err := NewFlowRun(FlowSpec{Flow: "learn", Seed: 2, Args: map[string]string{"learn-tests": "10"}})
	if err != nil {
		t.Fatal(err)
	}
	fr.Common.Embedded = true
	var out bytes.Buffer
	if err := fr.Run(&out); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	if strings.Contains(text, "worst case") && strings.Contains(text, "generation") {
		t.Fatalf("learn flow appears to have run the optimization scheme:\n%s", text)
	}
	if !strings.Contains(text, "Tester totals") {
		t.Fatalf("learn flow did not print tester totals:\n%s", text)
	}
}

// TestFlowCancellation pins the cooperative-cancel contract: a CheckCancel
// that trips immediately aborts the flow with that error before any phase
// runs.
func TestFlowCancellation(t *testing.T) {
	for _, flow := range []string{"optimize", "shmoo", "lot"} {
		spec := FlowSpec{Flow: flow, Seed: 1}
		fr, err := NewFlowRun(spec)
		if err != nil {
			t.Fatal(err)
		}
		fr.Common.Embedded = true
		sentinel := errTest("stop right there")
		fr.Common.CheckCancel = func() error { return sentinel }
		var out bytes.Buffer
		if err := fr.Run(&out); err != sentinel { //nolint:errorlint // identity is the contract
			t.Fatalf("%s with tripped CheckCancel: err %v, want the sentinel", flow, err)
		}
	}
}

type errTest string

func (e errTest) Error() string { return string(e) }
