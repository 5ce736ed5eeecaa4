package fuzzy

import "fmt"

// Term is one named fuzzy set of a linguistic variable.
type Term struct {
	Name string
	MF   Membership
	// Center is the term's representative crisp value, used for fast
	// weighted-centroid defuzzification of grade vectors.
	Center float64
}

// Variable is a linguistic variable: a named universe of discourse covered
// by an ordered list of terms.
type Variable struct {
	Name     string
	Min, Max float64 // universe of discourse
	Terms    []Term
}

// Validate reports structural errors.
func (v *Variable) Validate() error {
	if v.Min >= v.Max {
		return fmt.Errorf("fuzzy: variable %q: empty universe [%g, %g]", v.Name, v.Min, v.Max)
	}
	if len(v.Terms) == 0 {
		return fmt.Errorf("fuzzy: variable %q has no terms", v.Name)
	}
	seen := make(map[string]bool, len(v.Terms))
	for _, t := range v.Terms {
		if t.Name == "" {
			return fmt.Errorf("fuzzy: variable %q has an unnamed term", v.Name)
		}
		if seen[t.Name] {
			return fmt.Errorf("fuzzy: variable %q: duplicate term %q", v.Name, t.Name)
		}
		seen[t.Name] = true
		if t.MF == nil {
			return fmt.Errorf("fuzzy: variable %q: term %q has no membership function", v.Name, t.Name)
		}
	}
	return nil
}

// TermIndex returns the position of the named term, or −1.
func (v *Variable) TermIndex(name string) int {
	for i, t := range v.Terms {
		if t.Name == name {
			return i
		}
	}
	return -1
}

// Fuzzify grades x against every term, returning the grade vector in term
// order.
func (v *Variable) Fuzzify(x float64) []float64 {
	out := make([]float64, len(v.Terms))
	for i, t := range v.Terms {
		out[i] = t.MF.Grade(x)
	}
	return out
}

// Defuzzify converts a grade vector back to a crisp value with the weighted
// centroid of the term centers. A zero grade vector returns the universe
// midpoint.
func (v *Variable) Defuzzify(grades []float64) float64 {
	var num, den float64
	for i, t := range v.Terms {
		if i >= len(grades) {
			break
		}
		num += grades[i] * t.Center
		den += grades[i]
	}
	if den == 0 {
		return (v.Min + v.Max) / 2
	}
	return num / den
}

// CentroidDefuzzify integrates the aggregated membership surface implied by
// clipping each term at its grade (Mamdani max aggregation, centroid
// method) over a discretized universe. Slower but shape-aware; samples
// controls the discretization (≤ 0 defaults to 200).
func (v *Variable) CentroidDefuzzify(grades []float64, samples int) float64 {
	if samples <= 0 {
		samples = 200
	}
	var num, den float64
	step := (v.Max - v.Min) / float64(samples)
	for i := 0; i <= samples; i++ {
		x := v.Min + float64(i)*step
		mu := 0.0
		for j, t := range v.Terms {
			if j >= len(grades) {
				break
			}
			g := t.MF.Grade(x)
			if g > grades[j] {
				g = grades[j] // clip at rule strength
			}
			if g > mu {
				mu = g // max aggregation
			}
		}
		num += x * mu
		den += mu
	}
	if den == 0 {
		return (v.Min + v.Max) / 2
	}
	return num / den
}

// AutoPartition builds a variable whose universe [min, max] is covered by n
// evenly spaced triangular terms with shoulders at the ends, named by the
// given labels (len(labels) must equal n, n ≥ 2). This is the conventional
// "uniform partition" construction for encoder variables.
func AutoPartition(name string, min, max float64, labels []string) (*Variable, error) {
	n := len(labels)
	if n < 2 {
		return nil, fmt.Errorf("fuzzy: AutoPartition needs at least 2 labels, got %d", n)
	}
	if min >= max {
		return nil, fmt.Errorf("fuzzy: AutoPartition: empty universe [%g, %g]", min, max)
	}
	step := (max - min) / float64(n-1)
	v := &Variable{Name: name, Min: min, Max: max}
	for i, label := range labels {
		c := min + float64(i)*step
		var mf Membership
		switch i {
		case 0:
			mf = ShoulderLeft{A: c, B: c + step}
		case n - 1:
			mf = ShoulderRight{A: c - step, B: c}
		default:
			mf = Triangular{A: c - step, B: c, C: c + step}
		}
		v.Terms = append(v.Terms, Term{Name: label, MF: mf, Center: c})
	}
	return v, v.Validate()
}
