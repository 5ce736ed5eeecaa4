// Package fuzzy implements the fuzzy set theory the paper uses to encode
// characterization trip points (§5, citing Bezdek [8]): membership
// functions, linguistic variables, a Mamdani-style inference engine, and
// the trip-point coder that turns a measured value into the graded
// "how close to the limit of the target device-spec" representation the
// neural networks learn.
package fuzzy

// Membership grades how strongly a crisp value belongs to a fuzzy set;
// results are in [0, 1].
type Membership interface {
	Grade(x float64) float64
}

// Triangular is the classic triangle (a, b, c): zero outside [a, c], one at
// the apex b.
type Triangular struct {
	A, B, C float64
}

// Grade implements Membership.
func (t Triangular) Grade(x float64) float64 {
	switch {
	case x <= t.A || x >= t.C:
		return 0
	case x == t.B:
		return 1
	case x < t.B:
		return (x - t.A) / (t.B - t.A)
	default:
		return (t.C - x) / (t.C - t.B)
	}
}

// ShoulderLeft saturates at one for x ≤ a and falls to zero at b — "small"
// style terms.
type ShoulderLeft struct {
	A, B float64
}

// Grade implements Membership.
func (s ShoulderLeft) Grade(x float64) float64 {
	switch {
	case x <= s.A:
		return 1
	case x >= s.B:
		return 0
	default:
		return (s.B - x) / (s.B - s.A)
	}
}

// ShoulderRight is zero for x ≤ a and saturates at one for x ≥ b — "large"
// style terms.
type ShoulderRight struct {
	A, B float64
}

// Grade implements Membership.
func (s ShoulderRight) Grade(x float64) float64 {
	switch {
	case x <= s.A:
		return 0
	case x >= s.B:
		return 1
	default:
		return (x - s.A) / (s.B - s.A)
	}
}
