// Package obs is the live observability layer of the characterization
// system: an embeddable HTTP admin server (server.go) exposing Prometheus
// metrics bridged from the telemetry registry (prom.go), health/readiness
// probes, pprof, and a live run-progress feed (progress.go) published by a
// telemetry.RunObserver, plus the offline JSONL trace analyzer behind
// cmd/tracestat (analyze.go).
//
// Everything here is read-only with respect to the run: handlers consume
// registry snapshots and atomically published progress snapshots, and the
// observer callbacks write neither trace events nor metrics — so serving
// cannot perturb the determinism contract (trace bytes stay bit-identical
// with the server on or off; pinned by tests).
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"

	"repro/internal/telemetry"
)

// MetricPrefix namespaces every exposed metric, per Prometheus naming
// conventions (a single-word application prefix).
const MetricPrefix = "repro_"

// WritePrometheus renders a telemetry registry snapshot in the Prometheus
// text exposition format (version 0.0.4): counters and gauges as single
// samples, histograms as cumulative _bucket/_sum/_count series. Metric
// names are prefixed with MetricPrefix and sanitized to the Prometheus
// charset; constLabels (sorted by key, values escaped) are attached to
// every sample, with a histogram's "le" label last. Output depends only on
// the snapshot and labels, so equal snapshots render byte-identically.
func WritePrometheus(w io.Writer, s telemetry.Snapshot, constLabels map[string]string) error {
	labels := renderLabelPairs(constLabels)
	var b strings.Builder

	for _, name := range sortedKeys(s.Counters) {
		mn := MetricPrefix + sanitizeMetricName(name)
		fmt.Fprintf(&b, "# TYPE %s counter\n", mn)
		fmt.Fprintf(&b, "%s%s %d\n", mn, labelBlock(labels, ""), s.Counters[name])
	}
	for _, name := range sortedKeys(s.Gauges) {
		mn := MetricPrefix + sanitizeMetricName(name)
		fmt.Fprintf(&b, "# TYPE %s gauge\n", mn)
		fmt.Fprintf(&b, "%s%s %s\n", mn, labelBlock(labels, ""), formatPromFloat(s.Gauges[name]))
	}
	for _, name := range sortedKeys(s.Histograms) {
		hs := s.Histograms[name]
		mn := MetricPrefix + sanitizeMetricName(name)
		fmt.Fprintf(&b, "# TYPE %s histogram\n", mn)
		for _, bucket := range hs.Buckets {
			le := `le="` + formatPromFloat(bucket.LE) + `"`
			fmt.Fprintf(&b, "%s_bucket%s %d\n", mn, labelBlock(labels, le), bucket.Count)
		}
		fmt.Fprintf(&b, "%s_sum%s %s\n", mn, labelBlock(labels, ""), formatPromFloat(hs.Sum))
		fmt.Fprintf(&b, "%s_count%s %d\n", mn, labelBlock(labels, ""), hs.Count)
	}

	_, err := io.WriteString(w, b.String())
	return err
}

// WriteRunInfo renders the Prometheus "info"-pattern gauge: a constant-1
// sample whose labels carry the run's identity (flow, seed,
// run_fingerprint). Joining it onto other series in PromQL ties every
// scraped metric to the exact reproducible run that produced it:
//
//	repro_run_info{flow="characterize",seed="1",run_fingerprint="fnv1a:…"} 1
func WriteRunInfo(w io.Writer, labels map[string]string) error {
	mn := MetricPrefix + "run_info"
	var b strings.Builder
	fmt.Fprintf(&b, "# TYPE %s gauge\n", mn)
	fmt.Fprintf(&b, "%s%s 1\n", mn, labelBlock(renderLabelPairs(labels), ""))
	_, err := io.WriteString(w, b.String())
	return err
}

// sortedKeys returns the map's keys in sorted order, the stable iteration
// the byte-identical rendering relies on.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// sanitizeMetricName maps a registry name onto the Prometheus metric-name
// charset [a-zA-Z0-9_:]; anything else (phase names carry '-') becomes '_'.
func sanitizeMetricName(name string) string {
	var b strings.Builder
	for i, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_', r == ':':
			b.WriteRune(r)
		case r >= '0' && r <= '9':
			if i == 0 {
				b.WriteByte('_')
			}
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// renderLabelPairs renders constant labels as sorted key="value" pairs with
// exposition-format escaping.
func renderLabelPairs(labels map[string]string) []string {
	pairs := make([]string, 0, len(labels))
	for _, k := range sortedKeys(labels) {
		pairs = append(pairs, sanitizeMetricName(k)+`="`+escapeLabelValue(labels[k])+`"`)
	}
	return pairs
}

// labelBlock joins constant label pairs plus an optional trailing extra
// pair ("le" for histogram buckets) into a `{...}` block, or "" when empty.
func labelBlock(pairs []string, extra string) string {
	all := pairs
	if extra != "" {
		all = append(append([]string{}, pairs...), extra)
	}
	if len(all) == 0 {
		return ""
	}
	return "{" + strings.Join(all, ",") + "}"
}

// escapeLabelValue applies the exposition-format label escapes: backslash,
// double quote and newline.
func escapeLabelValue(v string) string {
	var b strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// formatPromFloat renders a float the way the exposition format expects:
// shortest round-trip decimal, with the spellings +Inf/-Inf/NaN.
func formatPromFloat(f float64) string {
	switch {
	case math.IsInf(f, 1):
		return "+Inf"
	case math.IsInf(f, -1):
		return "-Inf"
	case math.IsNaN(f):
		return "NaN"
	}
	return strconv.FormatFloat(f, 'g', -1, 64)
}
