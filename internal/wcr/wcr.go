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

// For computes the WCR of va against the spec limit, choosing eq. 5 or
// eq. 6 from whether the spec is a minimum.
func For(va, spec float64, specIsMin bool) float64 {
	if specIsMin {
		return ForMin(va, spec)
	}
	return ForMax(va, spec)
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
	Spec      float64
	SpecIsMin bool
	Entries   []Entry
}

// NewRanking builds an empty ranking against the given spec.
func NewRanking(spec float64, specIsMin bool) *Ranking {
	return &Ranking{Spec: spec, SpecIsMin: specIsMin}
}

// Add records one measurement and returns its computed entry.
func (r *Ranking) Add(name string, value float64) Entry {
	w := For(value, r.Spec, r.SpecIsMin)
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
