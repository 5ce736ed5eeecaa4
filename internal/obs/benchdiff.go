package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// Benchmark-over-baseline regression comparison for the repo's
// BENCH_*.json files (the arrays ci.sh distills from `go test -bench`
// output: one object per benchmark, a "benchmark" name key and numeric
// metrics, null for metrics a variant does not report).
//
// Metrics gate by direction class: counters where smaller is better
// (allocations, bytes, ATE measurements) fail when they grow past the
// threshold; rates where bigger is better (cache hit rate, throughput) fail
// when they shrink past it. Wall-clock-derived metrics (ns/op, dies/sec
// and the speedup of one worker count over another) are skipped by default
// — they are machine-dependent, and a CI gate on them flakes — but can be
// opted in for like-for-like hardware. The machine's CPU count (nproc) is
// context, never gated.

// BenchEntry is one benchmark's metric set.
type BenchEntry struct {
	Name    string
	Metrics map[string]float64 // null metrics are absent
}

// ParseBenchJSON decodes a BENCH_*.json array. Content after the closing
// bracket is an error: the file must be one valid JSON document.
func ParseBenchJSON(r io.Reader) ([]BenchEntry, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("obs: reading bench json: %w", err)
	}
	var rows []map[string]any
	if err := json.Unmarshal(data, &rows); err != nil {
		return nil, fmt.Errorf("obs: parsing bench json: %w", err)
	}
	entries := make([]BenchEntry, 0, len(rows))
	for i, row := range rows {
		name, ok := row["benchmark"].(string)
		if !ok || name == "" {
			return nil, fmt.Errorf("obs: bench json entry %d: missing \"benchmark\" name", i)
		}
		e := BenchEntry{Name: name, Metrics: make(map[string]float64)}
		for k, v := range row {
			if k == "benchmark" {
				continue
			}
			if f, ok := v.(float64); ok && !math.IsNaN(f) {
				e.Metrics[k] = f
			}
		}
		entries = append(entries, e)
	}
	return entries, nil
}

// Metric direction classes. Anything not listed gates as lower-is-better —
// new counter-style metrics get a conservative default.
var (
	higherBetterMetrics = map[string]bool{
		"cache_hit_rate":     true,
		"hit_rate":           true,
		"measurements_saved": true,
		"dies_per_sec":       true,
		"speedup":            true,
	}
	timeBasedMetrics = map[string]bool{
		"ns_per_op":    true,
		"dies_per_sec": true,
		"speedup":      true,
	}
	// contextMetrics describe the machine a file was recorded on; they are
	// shown but never gated.
	contextMetrics = map[string]bool{
		"nproc": true,
	}
)

// BenchDelta is one (benchmark, metric) comparison row.
type BenchDelta struct {
	Benchmark string
	Metric    string
	Old, New  float64
	// Pct is the relative change in the direction that matters: positive
	// means worse (more allocs, lower hit rate). NaN when the baseline is 0.
	Pct       float64
	Regressed bool
	Skipped   string // non-empty reason when the metric was not gated
}

// BenchDiffOptions tunes a benchmark comparison.
type BenchDiffOptions struct {
	// FailOverPct is the worsening threshold in percent. <= 0 disables
	// gating (report-only).
	FailOverPct float64
	// IncludeTimeBased also gates wall-clock-derived metrics (ns_per_op,
	// dies_per_sec); off by default because they track the machine, not the
	// code.
	IncludeTimeBased bool
}

// BenchDiff is the result of comparing a current bench file to a baseline.
type BenchDiff struct {
	Deltas []BenchDelta
	// MissingBenchmarks are baseline benchmarks absent from the current
	// file — a silently dropped benchmark must fail the gate, otherwise
	// deleting the benchmark "fixes" any regression.
	MissingBenchmarks []string
	Opts              BenchDiffOptions
}

// DiffBench joins baseline and current entries by benchmark name and
// compares every metric present in both.
func DiffBench(baseline, current []BenchEntry, opts BenchDiffOptions) *BenchDiff {
	curBy := make(map[string]BenchEntry, len(current))
	for _, e := range current {
		curBy[e.Name] = e
	}
	d := &BenchDiff{Opts: opts}
	for _, base := range baseline {
		cur, ok := curBy[base.Name]
		if !ok {
			d.MissingBenchmarks = append(d.MissingBenchmarks, base.Name)
			continue
		}
		metrics := make([]string, 0, len(base.Metrics))
		for m := range base.Metrics {
			metrics = append(metrics, m)
		}
		sort.Strings(metrics)
		for _, m := range metrics {
			oldV := base.Metrics[m]
			newV, ok := cur.Metrics[m]
			if !ok {
				// The metric stopped being reported (a null in the new
				// file): not comparable, surface as skipped.
				d.Deltas = append(d.Deltas, BenchDelta{
					Benchmark: base.Name, Metric: m, Old: oldV, New: math.NaN(),
					Pct: math.NaN(), Skipped: "absent in current",
				})
				continue
			}
			row := BenchDelta{Benchmark: base.Name, Metric: m, Old: oldV, New: newV}
			switch {
			case contextMetrics[m]:
				row.Skipped = "context"
				row.Pct = math.NaN()
			case timeBasedMetrics[m] && !opts.IncludeTimeBased:
				row.Skipped = "time-based"
				row.Pct = worsePct(m, oldV, newV)
			case oldV == 0:
				// Zero baselines cannot express a relative threshold (a
				// cold-cache 0% hit rate, a zero-alloc benchmark).
				row.Skipped = "zero baseline"
				row.Pct = math.NaN()
			default:
				row.Pct = worsePct(m, oldV, newV)
				if opts.FailOverPct > 0 && row.Pct >= opts.FailOverPct {
					row.Regressed = true
				}
			}
			d.Deltas = append(d.Deltas, row)
		}
	}
	sort.SliceStable(d.Deltas, func(i, j int) bool {
		a, b := d.Deltas[i], d.Deltas[j]
		if a.Regressed != b.Regressed {
			return a.Regressed
		}
		if a.Benchmark != b.Benchmark {
			return a.Benchmark < b.Benchmark
		}
		return a.Metric < b.Metric
	})
	return d
}

// worsePct converts a metric change into "percent worse": growth for
// lower-is-better metrics, shrinkage for higher-is-better ones.
func worsePct(metric string, old, new float64) float64 {
	if old == 0 {
		return math.NaN()
	}
	pct := 100 * (new - old) / old
	if higherBetterMetrics[metric] {
		return -pct
	}
	return pct
}

// Regressions returns the rows that tripped the threshold.
func (d *BenchDiff) Regressions() []BenchDelta {
	var out []BenchDelta
	for _, row := range d.Deltas {
		if row.Regressed {
			out = append(out, row)
		}
	}
	return out
}

// Failed reports whether the gate should fail: any regressed metric or any
// baseline benchmark missing from the current file.
func (d *BenchDiff) Failed() bool {
	return len(d.MissingBenchmarks) > 0 || len(d.Regressions()) > 0
}

// Render writes the human-readable comparison table.
func (d *BenchDiff) Render(w io.Writer) error {
	var b strings.Builder
	fmt.Fprintf(&b, "%-48s %-20s %14s %14s %9s  %s\n",
		"benchmark", "metric", "baseline", "current", "Δworse%", "verdict")
	for _, row := range d.Deltas {
		verdict := "ok"
		switch {
		case row.Regressed:
			verdict = "REGRESSED"
		case row.Skipped != "":
			verdict = "skipped (" + row.Skipped + ")"
		}
		fmt.Fprintf(&b, "%-48s %-20s %14s %14s %9s  %s\n",
			row.Benchmark, row.Metric, numCell(row.Old), numCell(row.New),
			pctCell(row.Pct), verdict)
	}
	for _, name := range d.MissingBenchmarks {
		fmt.Fprintf(&b, "%-48s %-20s %14s %14s %9s  MISSING from current file\n",
			name, "—", "—", "—", "—")
	}
	if d.Failed() {
		fmt.Fprintf(&b, "\n%d metric(s) regressed beyond %.1f%%, %d benchmark(s) missing\n",
			len(d.Regressions()), d.Opts.FailOverPct, len(d.MissingBenchmarks))
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func numCell(v float64) string {
	if math.IsNaN(v) {
		return "—"
	}
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%.4g", v)
}
