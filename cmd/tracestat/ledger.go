package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"text/tabwriter"
	"time"

	"repro/internal/obs"
	"repro/internal/runstore"
)

// renderTraceDiff prints a trace diff in the chosen format; the JSON form is
// the shared TraceDiffJSON schema (`/runs/diff` serves the same bytes).
func renderTraceDiff(d *obs.TraceDiff, asJSON bool) error {
	if asJSON {
		return d.WriteJSON(os.Stdout)
	}
	return d.Render(os.Stdout)
}

// runLedger implements `tracestat ledger [-flow NAME] [-id RUNID] [-json]
// rundir`: a table of the ledger's records (or one record's full manifest
// and attempt history with -id). Exit codes: 0 ok, 1 error, 2 usage.
func runLedger(args []string) int {
	fs := flag.NewFlagSet("tracestat ledger", flag.ExitOnError)
	flow := fs.String("flow", "", "only list records of this flow")
	id := fs.String("id", "", "inspect one record: manifest, report totals and attempt history")
	jsonOut := fs.Bool("json", false, "print machine-readable JSON instead of the table")
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: tracestat ledger [flags] rundir\n")
		fs.PrintDefaults()
	}
	fs.Parse(args) //nolint:errcheck // ExitOnError
	if fs.NArg() != 1 {
		fs.Usage()
		return 2
	}
	st, err := runstore.Open(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "tracestat ledger:", err)
		return 1
	}

	if *id != "" {
		return inspectRecord(st, *id, *jsonOut)
	}

	sums, err := st.List()
	if err != nil {
		fmt.Fprintln(os.Stderr, "tracestat ledger:", err)
		return 1
	}
	if *flow != "" {
		kept := sums[:0]
		for _, sum := range sums {
			if sum.Manifest.Flow == *flow {
				kept = append(kept, sum)
			}
		}
		sums = kept
	}

	if *jsonOut {
		type row struct {
			ID       string                `json:"id"`
			Manifest runstore.Manifest     `json:"manifest"`
			Totals   runstore.ReportTotals `json:"totals"`
			Attempts []runstore.Attempt    `json:"attempts,omitempty"`
		}
		rows := make([]row, 0, len(sums))
		for _, sum := range sums {
			rows = append(rows, row{ID: sum.ID, Manifest: sum.Manifest, Totals: sum.Totals, Attempts: sum.Attempts})
		}
		if err := writeJSONStdout(map[string]any{"records": rows}); err != nil {
			fmt.Fprintln(os.Stderr, "tracestat ledger:", err)
			return 1
		}
		return 0
	}

	if len(sums) == 0 {
		fmt.Println("run ledger is empty")
		return 0
	}
	w := tabwriter.NewWriter(os.Stdout, 2, 8, 2, ' ', 0)
	fmt.Fprintln(w, "ID\tFLOW\tSEED\tWARMTH\tATTEMPTS\tMEAS\tSIM(s)\tLAST RECORDED")
	for _, sum := range sums {
		last := "-"
		if n := sum.LastAttemptNano(); n > 0 {
			last = time.Unix(0, n).UTC().Format(time.RFC3339)
		}
		fmt.Fprintf(w, "%s\t%s\t%d\t%s\t%d\t%d\t%.3f\t%s\n",
			sum.ID, sum.Manifest.Flow, sum.Manifest.Seed, sum.Manifest.CacheWarmth,
			len(sum.Attempts), sum.Totals.Measurements, sum.Totals.SimTimeSec, last)
	}
	w.Flush()
	return 0
}

// inspectRecord prints one record's manifest, artifact sizes and attempts.
func inspectRecord(st *runstore.Store, id string, asJSON bool) int {
	rec, err := st.Get(id)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tracestat ledger:", err)
		return 1
	}
	attempts, err := st.Attempts(id)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tracestat ledger:", err)
		return 1
	}
	if asJSON {
		out := map[string]any{
			"id":          id,
			"manifest":    rec.Manifest,
			"trace_bytes": len(rec.Trace),
			"attempts":    attempts,
		}
		if len(rec.Report) > 0 {
			out["report"] = json.RawMessage(rec.Report)
		}
		if err := writeJSONStdout(out); err != nil {
			fmt.Fprintln(os.Stderr, "tracestat ledger:", err)
			return 1
		}
		return 0
	}
	fmt.Printf("record %s\n", id)
	fmt.Printf("  flow: %s  seed: %d  warmth: %s\n", rec.Manifest.Flow, rec.Manifest.Seed, rec.Manifest.CacheWarmth)
	fmt.Printf("  trace digest: %s  (%d trace bytes stored)\n", rec.Manifest.TraceDigest, len(rec.Trace))
	if totals, ok := rec.Totals(); ok {
		fmt.Printf("  totals: %d measurements, %d vectors, %.3f sim seconds\n",
			totals.Measurements, totals.Vectors, totals.SimTimeSec)
	}
	for name, val := range rec.Manifest.Flags {
		fmt.Printf("  flag -%s=%s\n", name, val)
	}
	for i, a := range attempts {
		fmt.Printf("  attempt %d: %s  parallel=%d wall=%.3fs\n",
			i+1, time.Unix(0, a.TimeUnixNano).UTC().Format(time.RFC3339),
			a.Parallelism, a.WallSeconds)
	}
	return 0
}

// runRegress implements `tracestat regress rundir`: diff the ledger's newest
// record against a baseline with `tracestat diff` semantics. The baseline is
// -baseline ID when given, otherwise the oldest of the last -window records
// (a sliding drift window over recorded history). Exit codes: 0 clean (or
// fewer than two records), 1 regression past -fail-over or error, 2 usage.
func runRegress(args []string) int {
	fs := flag.NewFlagSet("tracestat regress", flag.ExitOnError)
	flow := fs.String("flow", "", "only consider records of this flow")
	baselineID := fs.String("baseline", "", "explicit baseline record ID (default: oldest record in the -window)")
	window := fs.Int("window", 2, "consider only the newest N records when picking the implicit baseline")
	failOver := fs.Float64("fail-over", 0, "exit nonzero when any label's measurements or sim time grew by at least this percent (0 = report only)")
	minMeas := fs.Int64("min-measurements", 50, "noise floor: labels below this measurement count on both sides never regress")
	failOnNew := fs.Bool("fail-on-new", false, "also fail on labels present only in the newest record")
	jsonOut := fs.Bool("json", false, "print the diff as JSON")
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: tracestat regress [flags] rundir\n")
		fs.PrintDefaults()
	}
	fs.Parse(args) //nolint:errcheck // ExitOnError
	if fs.NArg() != 1 {
		fs.Usage()
		return 2
	}
	st, err := runstore.Open(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "tracestat regress:", err)
		return 1
	}
	sums, err := st.List()
	if err != nil {
		fmt.Fprintln(os.Stderr, "tracestat regress:", err)
		return 1
	}
	if *flow != "" {
		kept := sums[:0]
		for _, sum := range sums {
			if sum.Manifest.Flow == *flow {
				kept = append(kept, sum)
			}
		}
		sums = kept
	}
	if len(sums) < 2 && *baselineID == "" || len(sums) == 0 {
		fmt.Printf("regress: %d record(s) in the ledger — nothing to compare yet\n", len(sums))
		return 0
	}

	latest := sums[len(sums)-1]
	var baseID string
	if *baselineID != "" {
		baseID = *baselineID
	} else {
		// The window is the newest N records; its oldest member is the
		// baseline, so drift accumulating over several runs is still caught.
		n := *window
		if n < 2 {
			n = 2
		}
		if n > len(sums) {
			n = len(sums)
		}
		baseID = sums[len(sums)-n].ID
	}
	if baseID == latest.ID {
		fmt.Printf("regress: baseline and latest are the same record %s — nothing to compare\n", baseID)
		return 0
	}

	baseTr, err := ledgerTrace(st, baseID)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tracestat regress:", err)
		return 1
	}
	newTr, err := ledgerTrace(st, latest.ID)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tracestat regress:", err)
		return 1
	}

	if !*jsonOut {
		fmt.Printf("regress: baseline %s -> latest %s\n", baseID, latest.ID)
	}
	d := obs.DiffTraces(baseTr, newTr, obs.DiffOptions{
		FailOverPct:     *failOver,
		MinMeasurements: *minMeas,
		FailOnNew:       *failOnNew,
	})
	if err := renderTraceDiff(d, *jsonOut); err != nil {
		fmt.Fprintln(os.Stderr, "tracestat regress:", err)
		return 1
	}
	if *failOver > 0 && len(d.Regressions()) > 0 {
		return 1
	}
	return 0
}

// ledgerTrace loads and parses one record's stored trace.
func ledgerTrace(st *runstore.Store, id string) (*obs.Trace, error) {
	rec, err := st.Get(id)
	if err != nil {
		return nil, err
	}
	if len(rec.Trace) == 0 {
		return nil, fmt.Errorf("record %s has no stored trace", id)
	}
	return obs.ParseTrace(bytes.NewReader(rec.Trace))
}

func writeJSONStdout(v any) error {
	raw, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	raw = append(raw, '\n')
	_, err = os.Stdout.Write(raw)
	return err
}
