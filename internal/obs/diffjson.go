package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
)

// Machine-readable form of TraceDiff: one JSON schema shared by
// `tracestat diff -json`, `tracestat regress -json` and the admin server's
// /runs/diff endpoint, so CI scripts and the observatory speak the same
// format. NaN percentages (absent or zero baselines) encode as null — the
// output is always strict JSON.

// TraceDiffJSON is the encodable form of a TraceDiff.
type TraceDiffJSON struct {
	FailOverPct     float64          `json:"fail_over_pct"`
	MinMeasurements int64            `json:"min_measurements"`
	FailOnNew       bool             `json:"fail_on_new"`
	Regressions     int              `json:"regressions"`
	Labels          []LabelDeltaJSON `json:"labels"`
}

// LabelDeltaJSON is one joined rollup row. Old/New are null when the label
// exists on only one side; the pct fields are null when not computable.
type LabelDeltaJSON struct {
	Label           string      `json:"label"`
	Old             *RollupJSON `json:"old"`
	New             *RollupJSON `json:"new"`
	MeasurementsPct *float64    `json:"measurements_pct"`
	SimTimePct      *float64    `json:"sim_time_pct"`
	Regressed       bool        `json:"regressed"`
	Reason          string      `json:"reason,omitempty"`
}

// RollupJSON is one side's per-label cost rollup.
type RollupJSON struct {
	Count        int64   `json:"count"`
	Measurements int64   `json:"measurements"`
	Vectors      int64   `json:"vectors"`
	SimTimeSec   float64 `json:"sim_time_sec"`
}

// JSON converts the diff into its encodable form.
func (d *TraceDiff) JSON() TraceDiffJSON {
	out := TraceDiffJSON{
		FailOverPct:     d.Opts.FailOverPct,
		MinMeasurements: d.Opts.MinMeasurements,
		FailOnNew:       d.Opts.FailOnNew,
		Regressions:     len(d.Regressions()),
		Labels:          make([]LabelDeltaJSON, 0, len(d.Deltas)),
	}
	for _, row := range d.Deltas {
		out.Labels = append(out.Labels, LabelDeltaJSON{
			Label:           row.Label,
			Old:             rollupJSON(row.Old),
			New:             rollupJSON(row.New),
			MeasurementsPct: finitePtr(row.MeasurementsPct),
			SimTimePct:      finitePtr(row.SimTimePct),
			Regressed:       row.Regressed,
			Reason:          row.Reason,
		})
	}
	return out
}

// WriteJSON writes the diff as indented JSON.
func (d *TraceDiff) WriteJSON(w io.Writer) error {
	raw, err := json.MarshalIndent(d.JSON(), "", "  ")
	if err != nil {
		return fmt.Errorf("obs: encoding trace diff: %w", err)
	}
	raw = append(raw, '\n')
	_, err = w.Write(raw)
	return err
}

func rollupJSON(r *Rollup) *RollupJSON {
	if r == nil {
		return nil
	}
	return &RollupJSON{
		Count:        int64(r.Count),
		Measurements: r.Measurements,
		Vectors:      r.Vectors,
		SimTimeSec:   r.SimTimeSec,
	}
}

// finitePtr maps NaN (and infinities, equally unencodable) to nil.
func finitePtr(f float64) *float64 {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return nil
	}
	return &f
}
