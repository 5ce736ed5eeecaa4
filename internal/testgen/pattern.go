// Package testgen defines the representation of characterization tests —
// vector sequences plus environmental test conditions — and provides the
// generators the paper's flow consumes: a seeded random test generator
// (100–1000 vector cycles per test, §3), deterministic March pattern
// generators used as the "Deterministic" baseline of Table 1, and the
// feature extraction that encodes a test for the neural network.
package testgen

import (
	"errors"
	"fmt"
	"strings"
)

// OpKind identifies a single bus operation in a test sequence.
type OpKind uint8

const (
	// OpNop holds the bus idle for one cycle.
	OpNop OpKind = iota
	// OpWrite drives Addr and Data and stores Data at Addr.
	OpWrite
	// OpRead drives Addr and samples the data output bus.
	OpRead
)

// String returns the conventional mnemonic for the operation.
func (k OpKind) String() string {
	switch k {
	case OpNop:
		return "NOP"
	case OpWrite:
		return "W"
	case OpRead:
		return "R"
	default:
		return fmt.Sprintf("OpKind(%d)", uint8(k))
	}
}

// Vector is one bus cycle applied to the device under test.
type Vector struct {
	Op   OpKind
	Addr uint32
	Data uint32
}

// String renders the vector as "W @0004=DEADBEEF" style text.
func (v Vector) String() string {
	switch v.Op {
	case OpWrite:
		return fmt.Sprintf("W @%04X=%08X", v.Addr, v.Data)
	case OpRead:
		return fmt.Sprintf("R @%04X", v.Addr)
	default:
		return "NOP"
	}
}

// Sequence is an ordered list of bus cycles. The paper pin-points worst-case
// behaviour with short sequences of 100–1000 vectors per characterization
// measurement.
type Sequence []Vector

// MinSequenceLen and MaxSequenceLen bound the random sequences the paper
// uses per trip-point measurement ("we define small test sequences in
// between 100 to 1000 vector cycles", §3).
const (
	MinSequenceLen = 100
	MaxSequenceLen = 1000
)

// Reads returns the number of read operations in the sequence.
func (s Sequence) Reads() int {
	n := 0
	for _, v := range s {
		if v.Op == OpRead {
			n++
		}
	}
	return n
}

// Writes returns the number of write operations in the sequence.
func (s Sequence) Writes() int {
	n := 0
	for _, v := range s {
		if v.Op == OpWrite {
			n++
		}
	}
	return n
}

// Clone returns a deep copy of the sequence.
func (s Sequence) Clone() Sequence {
	out := make(Sequence, len(s))
	copy(out, s)
	return out
}

// Validate checks every vector's address against the given address space
// size and reports the first violation.
func (s Sequence) Validate(addrSpace uint32) error {
	if len(s) == 0 {
		return errors.New("testgen: empty sequence")
	}
	for i, v := range s {
		if v.Op != OpNop && v.Addr >= addrSpace {
			return fmt.Errorf("testgen: vector %d: address %#x outside address space %#x", i, v.Addr, addrSpace)
		}
		if v.Op > OpRead {
			return fmt.Errorf("testgen: vector %d: unknown op %d", i, v.Op)
		}
	}
	return nil
}

// Conditions are the environmental test conditions applied together with a
// sequence: supply voltage, junction temperature and bus clock. The paper's
// GA evolves these as a second chromosome type alongside the sequence.
type Conditions struct {
	VddV     float64 // supply voltage in volts
	TempC    float64 // junction temperature in degrees Celsius
	ClockMHz float64 // bus clock in MHz
}

// NominalConditions are the Table 1 reference conditions (Vdd 1.8 V).
func NominalConditions() Conditions {
	return Conditions{VddV: 1.8, TempC: 25, ClockMHz: 100}
}

// ConditionLimits bound the admissible test conditions; generators and GA
// mutation clamp into these limits.
type ConditionLimits struct {
	VddMin, VddMax     float64
	TempMin, TempMax   float64
	ClockMin, ClockMax float64
}

// DefaultConditionLimits returns the characterization window used throughout
// the experiments: Vdd 1.4–2.2 V (the fig. 8 shmoo Y range), −40–125 °C,
// 50–133 MHz.
func DefaultConditionLimits() ConditionLimits {
	return ConditionLimits{
		VddMin: 1.4, VddMax: 2.2,
		TempMin: -40, TempMax: 125,
		ClockMin: 50, ClockMax: 133,
	}
}

// Clamp forces c into the limits and returns the result.
func (l ConditionLimits) Clamp(c Conditions) Conditions {
	clamp := func(v, lo, hi float64) float64 {
		if v < lo {
			return lo
		}
		if v > hi {
			return hi
		}
		return v
	}
	return Conditions{
		VddV:     clamp(c.VddV, l.VddMin, l.VddMax),
		TempC:    clamp(c.TempC, l.TempMin, l.TempMax),
		ClockMHz: clamp(c.ClockMHz, l.ClockMin, l.ClockMax),
	}
}

// Test is a complete characterization test: a named vector sequence plus the
// conditions it runs under. One Test yields one trip point (eq. 1).
type Test struct {
	Name string
	Seq  Sequence
	Cond Conditions
}

// Clone returns a deep copy of the test.
func (t Test) Clone() Test {
	return Test{Name: t.Name, Seq: t.Seq.Clone(), Cond: t.Cond}
}

// String summarizes the test for logs and reports.
func (t Test) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %d vectors (%dR/%dW) @ %.2fV %.0f°C %.0fMHz",
		t.Name, len(t.Seq), t.Seq.Reads(), t.Seq.Writes(),
		t.Cond.VddV, t.Cond.TempC, t.Cond.ClockMHz)
	return b.String()
}
