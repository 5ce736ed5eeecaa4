// tracestat analyzes the JSONL trace files the pipeline binaries emit via
// -trace: per-phase cost rollups, a critical-path summary, optional Chrome
// trace-event export for chrome://tracing / Perfetto, and run-over-run
// regression comparison of traces and of run-ledger records.
//
// Usage:
//
//	tracestat run.jsonl
//	tracestat -top 5 run.jsonl
//	tracestat -chrome run.chrome.json run.jsonl
//	tracestat diff [-fail-over 20] [-min-measurements 50] [-fail-on-new] [-json] old.jsonl new.jsonl
//	tracestat ledger [-flow NAME] [-id RUNID] [-json] rundir
//	tracestat regress [-flow NAME] [-baseline RUNID] [-window 2] [-fail-over 20] [-json] rundir
//
// Traces carry no wall-clock time (the determinism contract), so the
// rollups rank by deterministic simulated tester seconds, the Chrome export
// uses sequence numbers as microsecond ticks, and `diff` compares logical
// costs exactly: two runs of the same workload diff to zero, and any
// growth past -fail-over percent exits nonzero (a CI regression gate).
//
// `ledger` lists or inspects a -run-dir run ledger (internal/runstore);
// `regress` diffs the ledger's newest record against a baseline record (an
// explicit -baseline ID, or the oldest of the last -window records) with
// the same gating semantics as `diff` — a drift gate over recorded history
// instead of two loose trace files.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/frame"
	"repro/internal/obs"
)

func main() {
	// Subcommand dispatch: each subcommand owns its flag set; the bare
	// invocation keeps the original single-trace analysis interface.
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "diff":
			os.Exit(runDiff(os.Args[2:]))
		case "ledger":
			os.Exit(runLedger(os.Args[2:]))
		case "regress":
			os.Exit(runRegress(os.Args[2:]))
		}
	}

	top := flag.Int("top", 20, "rollup rows to print (0 = all)")
	chrome := flag.String("chrome", "", "write Chrome trace-event JSON to this file")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: tracestat [flags] trace.jsonl\n")
		fmt.Fprintf(flag.CommandLine.Output(), "       tracestat diff [flags] old.jsonl new.jsonl\n")
		fmt.Fprintf(flag.CommandLine.Output(), "       tracestat ledger [flags] rundir\n")
		fmt.Fprintf(flag.CommandLine.Output(), "       tracestat regress [flags] rundir\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}

	if err := run(flag.Arg(0), *top, *chrome); err != nil {
		fmt.Fprintln(os.Stderr, "tracestat:", err)
		os.Exit(1)
	}
}

func run(path string, top int, chromePath string) error {
	tr, err := parseTraceFile(path)
	if err != nil {
		return err
	}
	fmt.Print(tr.Summary(top))

	if chromePath != "" {
		if err := frame.PublishWith(chromePath, func(w io.Writer) error {
			return obs.WriteChromeTrace(w, tr)
		}); err != nil {
			return err
		}
		fmt.Printf("\nchrome trace: %s (load at chrome://tracing or ui.perfetto.dev)\n", chromePath)
	}
	return nil
}

// runDiff implements `tracestat diff old.jsonl new.jsonl`. Exit codes: 0
// clean, 1 regression found (or I/O error), 2 usage.
func runDiff(args []string) int {
	fs := flag.NewFlagSet("tracestat diff", flag.ExitOnError)
	failOver := fs.Float64("fail-over", 0, "exit nonzero when any label's measurements or sim time grew by at least this percent (0 = report only)")
	minMeas := fs.Int64("min-measurements", 50, "noise floor: labels below this measurement count on both sides never regress")
	failOnNew := fs.Bool("fail-on-new", false, "also fail on labels present only in the new trace")
	jsonOut := fs.Bool("json", false, "print the diff as JSON (the same schema the admin server's /runs/diff serves)")
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: tracestat diff [flags] old.jsonl new.jsonl\n")
		fs.PrintDefaults()
	}
	fs.Parse(args) //nolint:errcheck // ExitOnError
	if fs.NArg() != 2 {
		fs.Usage()
		return 2
	}

	oldTr, err := parseTraceFile(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "tracestat diff:", err)
		return 1
	}
	newTr, err := parseTraceFile(fs.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, "tracestat diff:", err)
		return 1
	}

	d := obs.DiffTraces(oldTr, newTr, obs.DiffOptions{
		FailOverPct:     *failOver,
		MinMeasurements: *minMeas,
		FailOnNew:       *failOnNew,
	})
	if err := renderTraceDiff(d, *jsonOut); err != nil {
		fmt.Fprintln(os.Stderr, "tracestat diff:", err)
		return 1
	}
	if *failOver > 0 && len(d.Regressions()) > 0 {
		return 1
	}
	return 0
}

func parseTraceFile(path string) (*obs.Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return obs.ParseTrace(f)
}
