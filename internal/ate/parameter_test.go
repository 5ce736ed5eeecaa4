package ate

import (
	"testing"

	"repro/internal/search"
	"repro/internal/wcr"
)

func TestParameterStringsAndUnits(t *testing.T) {
	cases := []struct {
		p    Parameter
		name string
		flag string
		unit string
	}{
		{TDQ, "T_DQ", "tdq", "ns"},
		{Fmax, "Fmax", "fmax", "MHz"},
		{VddMin, "Vddmin", "vddmin", "V"},
	}
	for _, c := range cases {
		if c.p.String() != c.name {
			t.Errorf("%v name = %q, want %q", c.p, c.p.String(), c.name)
		}
		if c.p.Flag() != c.flag {
			t.Errorf("%v flag = %q, want %q", c.p, c.p.Flag(), c.flag)
		}
		if c.p.Unit() != c.unit {
			t.Errorf("%v unit = %q, want %q", c.p, c.p.Unit(), c.unit)
		}
	}
	if Parameter(9).Unit() != "?" {
		t.Error("unknown parameter unit")
	}
	if got := Parameter(9).String(); got != "Parameter(9)" {
		t.Errorf("unknown parameter name %q", got)
	}
	if got := Parameter(9).SearchOptions(); got != (search.Options{}) {
		t.Errorf("unknown parameter search options %+v", got)
	}
}

func TestSearchOptionsValid(t *testing.T) {
	for _, p := range []Parameter{TDQ, Fmax, VddMin} {
		opt := p.SearchOptions()
		if err := opt.Validate(); err != nil {
			t.Errorf("%v search options invalid: %v", p, err)
		}
	}
}

func TestSearchOrientations(t *testing.T) {
	// T_DQ strobe and Fmax pass on the low side (eq. 3); Vddmin passes on
	// the high side (eq. 4).
	if TDQ.SearchOptions().Orientation != search.PassLow {
		t.Error("T_DQ orientation")
	}
	if Fmax.SearchOptions().Orientation != search.PassLow {
		t.Error("Fmax orientation")
	}
	if VddMin.SearchOptions().Orientation != search.PassHigh {
		t.Error("Vddmin orientation")
	}
}

func TestSpecValues(t *testing.T) {
	cases := []struct {
		p    Parameter
		want wcr.Spec
	}{
		{TDQ, wcr.Spec{Limit: 20, Min: true}},   // 20 ns minimum window
		{Fmax, wcr.Spec{Limit: 100, Min: true}}, // 100 MHz minimum clock
		{VddMin, wcr.Spec{Limit: 1.62}},         // 1.62 V maximum start supply
	}
	for _, c := range cases {
		if got := c.p.Spec(); got != c.want {
			t.Errorf("%v spec = %+v, want %+v", c.p, got, c.want)
		}
	}
}

func TestSpecInsideSearchRange(t *testing.T) {
	// The spec limit must lie inside the generous search range, otherwise
	// a spec-violating trip point could never be observed.
	for _, p := range []Parameter{TDQ, Fmax, VddMin} {
		opt := p.SearchOptions()
		spec := p.Spec().Limit
		if spec <= opt.Lo || spec >= opt.Hi {
			t.Errorf("%v spec %g outside search range [%g, %g]", p, spec, opt.Lo, opt.Hi)
		}
	}
}
