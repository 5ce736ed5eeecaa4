package fuzzy

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/wcr"
)

func tdqCoder(t *testing.T, mode Coding) *TripPointCoder {
	t.Helper()
	// T_DQ: spec 20 ns minimum, eq. 6 coding.
	c, err := NewTripPointCoder(wcr.Spec{Limit: 20, Min: true}, mode)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestCoderWidths(t *testing.T) {
	if w := tdqCoder(t, CodingFuzzy).Width(); w != len(SeverityLabels()) {
		t.Errorf("fuzzy width = %d", w)
	}
	if w := tdqCoder(t, CodingNumeric).Width(); w != 1 {
		t.Errorf("numeric width = %d", w)
	}
}

func TestCoderZeroSpecRejected(t *testing.T) {
	if _, err := NewTripPointCoder(wcr.Spec{Min: true}, CodingFuzzy); err == nil {
		t.Error("zero spec accepted")
	}
}

func TestWCRMapping(t *testing.T) {
	c := tdqCoder(t, CodingFuzzy)
	if got := c.WCR(32.3); math.Abs(got-0.619) > 0.001 {
		t.Errorf("WCR(32.3) = %g, want ≈0.619 (Table 1 March row)", got)
	}
	if got := c.WCR(22.1); math.Abs(got-0.905) > 0.001 {
		t.Errorf("WCR(22.1) = %g, want ≈0.905 (Table 1 NNGA row)", got)
	}
}

func TestEncodeSeverityRoundTripFuzzy(t *testing.T) {
	c := tdqCoder(t, CodingFuzzy)
	// Severity must round-trip through the encoding within the universe.
	for _, trip := range []float64{33, 28, 24, 21, 19} {
		enc := c.Encode(trip)
		sev := c.Severity(enc)
		if math.Abs(sev-clampWCR(c.WCR(trip))) > 1e-9 {
			t.Errorf("trip %g: severity %g, want %g", trip, sev, clampWCR(c.WCR(trip)))
		}
	}
}

func TestEncodeSeverityRoundTripNumeric(t *testing.T) {
	c := tdqCoder(t, CodingNumeric)
	for _, trip := range []float64{33, 28, 24, 21, 19} {
		enc := c.Encode(trip)
		if len(enc) != 1 {
			t.Fatalf("numeric encoding length %d", len(enc))
		}
		sev := c.Severity(enc)
		if math.Abs(sev-clampWCR(c.WCR(trip))) > 1e-9 {
			t.Errorf("trip %g: severity %g", trip, sev)
		}
	}
}

func TestSeverityMonotoneInTripPoint(t *testing.T) {
	// For a minimum-spec parameter, smaller trip points must never yield
	// smaller severity.
	c := tdqCoder(t, CodingFuzzy)
	f := func(a, b float64) bool {
		x := 18 + math.Abs(math.Mod(a, 20)) // trips in [18, 38]
		y := 18 + math.Abs(math.Mod(b, 20))
		if x > y {
			x, y = y, x
		}
		// x ≤ y → severity(x) ≥ severity(y)
		return c.Severity(c.Encode(x)) >= c.Severity(c.Encode(y))-1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEncodingGradesInRange(t *testing.T) {
	c := tdqCoder(t, CodingFuzzy)
	f := func(trip float64) bool {
		for _, g := range c.Encode(math.Abs(trip)) {
			if g < 0 || g > 1 || math.IsNaN(g) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestClassification(t *testing.T) {
	c := tdqCoder(t, CodingFuzzy)
	// Table 1: March (32.3 ns) passes, NNGA (22.1 ns) is a weakness; a
	// 19 ns trip violates the spec.
	if got := wcr.Classify(c.WCR(32.3)); got != wcr.Pass {
		t.Errorf("32.3 ns classified %v", got)
	}
	if got := wcr.Classify(c.WCR(22.1)); got != wcr.Weakness {
		t.Errorf("22.1 ns classified %v", got)
	}
	if got := wcr.Classify(c.WCR(19)); got != wcr.Fail {
		t.Errorf("19 ns classified %v", got)
	}
}

func TestClassifyEncodedConsistent(t *testing.T) {
	c := tdqCoder(t, CodingFuzzy)
	for _, trip := range []float64{30, 22.1, 19} {
		direct := wcr.Classify(c.WCR(trip))
		viaEnc := wcr.Classify(c.Severity(c.Encode(trip)))
		if direct != viaEnc {
			t.Errorf("trip %g: direct class %v, encoded class %v", trip, direct, viaEnc)
		}
	}
}

func TestMaxSpecCoder(t *testing.T) {
	// A maximum-spec parameter (eq. 5): larger measured values are worse.
	c, err := NewTripPointCoder(wcr.Spec{Limit: 1.62}, CodingFuzzy)
	if err != nil {
		t.Fatal(err)
	}
	low := c.Severity(c.Encode(1.40))
	high := c.Severity(c.Encode(1.70))
	if low >= high {
		t.Errorf("max-spec severity not increasing: %g vs %g", low, high)
	}
	if wcr.Classify(c.WCR(1.70)) != wcr.Fail {
		t.Error("value above a maximum spec not classified fail")
	}
}

func TestCodingString(t *testing.T) {
	if CodingFuzzy.String() != "fuzzy" || CodingNumeric.String() != "numeric" {
		t.Error("coding names")
	}
}

func TestSeverityEmptyNumeric(t *testing.T) {
	c := tdqCoder(t, CodingNumeric)
	if got := c.Severity(nil); got != severityMin {
		t.Errorf("empty numeric severity = %g", got)
	}
}
