// Package wcr implements the Worst Case Ratio of §6 (eqs. 5/6, fig. 6): a
// normalized severity measure that ranks how close a measured parameter
// value comes to its specification limit. The worst case test is the one
// with the largest WCR; WCR ≤ 0.8 classifies as pass, 0.8 < WCR ≤ 1 as
// weakness, and WCR > 1 as fail.
package wcr

import (
	"fmt"
	"math"
)

// Class is the WCR classification band of fig. 6.
type Class uint8

const (
	// Pass: WCR in [0, 0.8] — comfortable margin to the specification.
	Pass Class = iota
	// Weakness: WCR in (0.8, 1] — the test provokes the parameter close to
	// its limit; a design weakness candidate.
	Weakness
	// Fail: WCR > 1 — the parameter violates the specification.
	Fail
)

// String names the class.
func (c Class) String() string {
	switch c {
	case Pass:
		return "pass"
	case Weakness:
		return "weakness"
	case Fail:
		return "fail"
	default:
		return fmt.Sprintf("Class(%d)", uint8(c))
	}
}

// PassLimit and WeaknessLimit are the fig. 6 band edges.
const (
	PassLimit     = 0.8
	WeaknessLimit = 1.0
)

// Classify maps a WCR value onto its fig. 6 band.
func Classify(wcr float64) Class {
	switch {
	case wcr > WeaknessLimit:
		return Fail
	case wcr > PassLimit:
		return Weakness
	default:
		return Pass
	}
}

// ForMax is eq. 5: WCR of a measured value va against a specified maximum
// vmax (the parameter must stay below vmax; larger measured values are
// worse). Returns +Inf when vmax is zero and va is not.
func ForMax(va, vmax float64) float64 {
	if vmax == 0 {
		if va == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return math.Abs(va / vmax)
}

// ForMin is eq. 6: WCR of a measured value va against a specified minimum
// vmin (the parameter must stay above vmin; smaller measured values are
// worse). Returns +Inf when va is zero and vmin is not.
func ForMin(va, vmin float64) float64 {
	if va == 0 {
		if vmin == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return math.Abs(vmin / va)
}

// Spec is a parameter's specification limit and its direction: a minimum
// spec (Min) is violated below Limit, a maximum spec above it. It is the one
// place that knows which way is worse.
type Spec struct {
	Limit float64
	Min   bool
}

// WCR is the worst case ratio of the measured value va: eq. 6 for a minimum
// spec, eq. 5 for a maximum.
func (s Spec) WCR(va float64) float64 {
	if s.Min {
		return ForMin(va, s.Limit)
	}
	return ForMax(va, s.Limit)
}

// Value inverts WCR: the measured value whose worst case ratio is w, and 0
// for a zero w.
func (s Spec) Value(w float64) float64 {
	if w == 0 {
		return 0
	}
	if s.Min {
		return s.Limit / w
	}
	return w * s.Limit
}

// Worse reports whether a is strictly worse than b: smaller against a
// minimum spec, larger against a maximum.
func (s Spec) Worse(a, b float64) bool {
	if s.Min {
		return a < b
	}
	return a > b
}

// WorstStart is the start of a running worst: every finite value is worse
// than it.
func (s Spec) WorstStart() float64 {
	if s.Min {
		return math.Inf(1)
	}
	return math.Inf(-1)
}

// GuardBand moves v by the fraction frac of itself toward the pass side: a
// production limit tightened against the spec. A negative frac moves v toward
// the fail side, the margin a specification takes off a worst measurement.
func (s Spec) GuardBand(v, frac float64) float64 {
	if s.Min {
		return v * (1 + frac)
	}
	return v * (1 - frac)
}

// Kind names the direction: "min" or "max".
func (s Spec) Kind() string {
	if s.Min {
		return "min"
	}
	return "max"
}

// Entry pairs a test identifier with its measured value and WCR.
type Entry struct {
	Name  string
	Value float64
	WCR   float64
	Class Class
}

// Ranking is a WCR-sorted set of measurements, worst first.
type Ranking struct {
	Spec    Spec
	Entries []Entry
}

// NewRanking builds an empty ranking against the given spec.
func NewRanking(spec Spec) *Ranking {
	return &Ranking{Spec: spec}
}

// Add records one measurement and returns its computed entry.
func (r *Ranking) Add(name string, value float64) Entry {
	w := r.Spec.WCR(value)
	e := Entry{Name: name, Value: value, WCR: w, Class: Classify(w)}
	r.Entries = append(r.Entries, e)
	return e
}

// Worst returns the entry with the largest WCR ("the worst case tests are
// given by the largest values of WCR", §6). ok is false when the ranking is
// empty.
func (r *Ranking) Worst() (Entry, bool) {
	if len(r.Entries) == 0 {
		return Entry{}, false
	}
	best := r.Entries[0]
	for _, e := range r.Entries[1:] {
		if e.WCR > best.WCR {
			best = e
		}
	}
	return best, true
}

// CountByClass tallies entries per classification band.
func (r *Ranking) CountByClass() map[Class]int {
	out := make(map[Class]int, 3)
	for _, e := range r.Entries {
		out[e.Class]++
	}
	return out
}
