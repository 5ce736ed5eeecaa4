package ate

import (
	"fmt"

	"repro/internal/dut"
	"repro/internal/search"
	"repro/internal/wcr"
)

// Parameter identifies a characterizable AC/DC parameter. The paper
// recommends generating neural networks "individually for each parameter or
// each characterization analysis task" (§5); the same holds here — one
// Parameter per characterization run.
type Parameter uint8

const (
	// TDQ is the data output valid time of fig. 7 (ns). Spec minimum
	// 20 ns; the minimum over tests is the worst case (eq. 6).
	TDQ Parameter = iota
	// Fmax is the maximum passing clock frequency (MHz).
	Fmax
	// VddMin is the minimum passing supply voltage (V).
	VddMin

	// NumParameters sizes per-parameter accounting arrays (Stats.PerParam).
	// Measurements charged with a Parameter ≥ NumParameters (the functional
	// replays, which sweep nothing) land in Stats.Functional instead.
	NumParameters = int(VddMin) + 1
)

// parameterDef is everything the tester and the flow know about one
// parameter.
type parameterDef struct {
	name string // display name, also the database file's
	flag string // -param flag value
	unit string
	// opts is the generous characterization range, resolution and
	// orientation of a full-range trip point search (§4: "very generous
	// starting ranges should be selected"). The resolution is also the base
	// of the measurement-noise sigma.
	opts search.Options
	spec wcr.Spec
	// value is the profile's noiseless parameter value at an operating
	// point: supply, junction temperature and clock.
	value func(p *dut.Profile, vdd, tempC, clockMHz float64) float64
}

// parameters holds each parameter's one definition.
var parameters = [NumParameters]parameterDef{
	TDQ: {
		name: "T_DQ", flag: "tdq", unit: "ns",
		// Strobe sweep: pass at short strobes, fail once the strobe
		// exceeds the device's valid window (eq. 3 orientation).
		opts: search.Options{Lo: 10, Hi: 45, Resolution: 0.1, Orientation: search.PassLow},
		spec: wcr.Spec{Limit: dut.SpecTDQNS, Min: true}, // window must be at least 20 ns
		value: func(p *dut.Profile, vdd, tempC, clockMHz float64) float64 {
			return p.TDQWindowNSAtCond(vdd, tempC, clockMHz)
		},
	},
	Fmax: {
		name: "Fmax", flag: "fmax", unit: "MHz",
		opts: search.Options{Lo: 40, Hi: 150, Resolution: 0.5, Orientation: search.PassLow},
		spec: wcr.Spec{Limit: 100, Min: true}, // device must reach the 100 MHz specified clock
		value: func(p *dut.Profile, vdd, tempC, _ float64) float64 {
			return p.FmaxMHzAtCond(vdd, tempC)
		},
	},
	VddMin: {
		name: "Vddmin", flag: "vddmin", unit: "V",
		// Pass above Vddmin, fail below (eq. 4 orientation).
		opts: search.Options{Lo: 1.0, Hi: 2.2, Resolution: 0.01, Orientation: search.PassHigh},
		spec: wcr.Spec{Limit: 1.62}, // device must start at or below Vdd−10%
		value: func(p *dut.Profile, _, tempC, _ float64) float64 {
			return p.VddMinVAtCond(tempC)
		},
	},
}

// unknownParameter is what a Parameter outside the table reads.
var unknownParameter = parameterDef{
	unit:  "?",
	value: func(*dut.Profile, float64, float64, float64) float64 { return 0 },
}

// def returns the parameter's definition.
func (p Parameter) def() *parameterDef {
	if int(p) < NumParameters {
		return &parameters[p]
	}
	return &unknownParameter
}

// String names the parameter.
func (p Parameter) String() string {
	if int(p) < NumParameters {
		return parameters[p].name
	}
	return fmt.Sprintf("Parameter(%d)", uint8(p))
}

// Flag is the parameter's -param flag value.
func (p Parameter) Flag() string { return p.def().flag }

// Unit returns the parameter's engineering unit.
func (p Parameter) Unit() string { return p.def().unit }

// SearchOptions returns the generous characterization range, resolution and
// orientation for a full-range trip point search of the parameter.
func (p Parameter) SearchOptions() search.Options { return p.def().opts }

// Resolution is the parameter's default search resolution (also the base of
// the measurement-noise sigma).
func (p Parameter) Resolution() float64 { return p.def().opts.Resolution }

// Spec returns the specification limit and its direction. WCR computation
// (eqs. 5/6) selects its form from this.
func (p Parameter) Spec() wcr.Spec { return p.def().spec }

// TrueValue returns the noise-free parameter value of a profile at its test's
// own conditions — the oracle the simulator can expose but real ATE cannot.
// Tests use it to verify that searches converge to the truth, and a
// production run judges its verdicts against it; the characterization flow
// itself never calls it.
func (p Parameter) TrueValue(profile dut.Profile) float64 {
	c := profile.Test.Cond
	return p.def().value(&profile, c.VddV, c.TempC, c.ClockMHz)
}
