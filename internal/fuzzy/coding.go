package fuzzy

import (
	"fmt"

	"repro/internal/wcr"
)

// Coding selects how a trip point is encoded for the neural network: the
// paper offers "either fuzzy set data [8] or simple numerical coding" (§5,
// learning step 3) and recommends the fuzzy form.
type Coding uint8

const (
	// CodingFuzzy encodes the trip point as the grade vector of a severity
	// linguistic variable over the worst-case-ratio domain.
	CodingFuzzy Coding = iota
	// CodingNumeric encodes the trip point as a single normalized scalar.
	CodingNumeric
)

// String names the coding.
func (c Coding) String() string {
	if c == CodingNumeric {
		return "numeric"
	}
	return "fuzzy"
}

// SeverityLabels are the linguistic terms of the trip-point severity
// variable, ordered from harmless to violating. The middle terms straddle
// the fig. 6 weakness band ("D is quite close to the limit of the target
// device-spec").
func SeverityLabels() []string {
	return []string{"very-safe", "safe", "close-to-limit", "at-limit", "beyond-limit"}
}

// severity-universe bounds in WCR units: 0.5 is deep margin, 1.2 is a clear
// specification violation.
const (
	severityMin = 0.5
	severityMax = 1.2
)

// TripPointCoder converts measured trip points to the representation the
// neural networks are trained on, and back. The conversion pivots through
// the worst case ratio so the encoding is spec-relative: the same coder
// works for any parameter once spec and direction are set.
type TripPointCoder struct {
	Spec wcr.Spec
	Mode Coding

	severity *Variable
}

// NewTripPointCoder builds a coder for a parameter specification.
func NewTripPointCoder(spec wcr.Spec, mode Coding) (*TripPointCoder, error) {
	if spec.Limit == 0 {
		return nil, fmt.Errorf("fuzzy: zero specification value")
	}
	sev, err := AutoPartition("severity", severityMin, severityMax, SeverityLabels())
	if err != nil {
		return nil, err
	}
	return &TripPointCoder{Spec: spec, Mode: mode, severity: sev}, nil
}

// Width returns the encoded vector length (the NN output layer width).
func (c *TripPointCoder) Width() int {
	if c.Mode == CodingNumeric {
		return 1
	}
	return len(c.severity.Terms)
}

// WCR maps a trip point to its worst case ratio (eqs. 5/6).
func (c *TripPointCoder) WCR(tripPoint float64) float64 {
	return c.Spec.WCR(tripPoint)
}

// clampWCR clips into the severity universe so encodings stay in range.
func clampWCR(w float64) float64 {
	if w < severityMin {
		return severityMin
	}
	if w > severityMax {
		return severityMax
	}
	return w
}

// Encode converts a measured trip point to the NN target vector.
func (c *TripPointCoder) Encode(tripPoint float64) []float64 {
	w := clampWCR(c.WCR(tripPoint))
	if c.Mode == CodingNumeric {
		return []float64{(w - severityMin) / (severityMax - severityMin)}
	}
	return c.severity.Fuzzify(w)
}

// Severity decodes an encoded vector back to a crisp WCR estimate. This is
// what the NN test generator ranks candidate tests by: the highest severity
// is the most promising worst-case candidate.
func (c *TripPointCoder) Severity(encoded []float64) float64 {
	if c.Mode == CodingNumeric {
		if len(encoded) == 0 {
			return severityMin
		}
		v := encoded[0]
		if v < 0 {
			v = 0
		}
		if v > 1 {
			v = 1
		}
		return severityMin + v*(severityMax-severityMin)
	}
	return clampWCR(c.severity.Defuzzify(encoded))
}
