package testgen

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestOpKindString(t *testing.T) {
	cases := []struct {
		op   OpKind
		want string
	}{
		{OpNop, "NOP"},
		{OpWrite, "W"},
		{OpRead, "R"},
		{OpKind(9), "OpKind(9)"},
	}
	for _, c := range cases {
		if got := c.op.String(); got != c.want {
			t.Errorf("OpKind(%d).String() = %q, want %q", c.op, got, c.want)
		}
	}
}

func TestVectorString(t *testing.T) {
	v := Vector{Op: OpWrite, Addr: 4, Data: 0xDEADBEEF}
	if got := v.String(); got != "W @0004=DEADBEEF" {
		t.Errorf("write vector string = %q", got)
	}
	r := Vector{Op: OpRead, Addr: 0x1F}
	if got := r.String(); got != "R @001F" {
		t.Errorf("read vector string = %q", got)
	}
	if got := (Vector{}).String(); got != "NOP" {
		t.Errorf("nop vector string = %q", got)
	}
}

func TestSequenceCounts(t *testing.T) {
	s := Sequence{
		{Op: OpWrite, Addr: 0},
		{Op: OpRead, Addr: 1},
		{Op: OpRead, Addr: 2},
		{Op: OpNop},
	}
	if got := s.Reads(); got != 2 {
		t.Errorf("Reads = %d, want 2", got)
	}
	if got := s.Writes(); got != 1 {
		t.Errorf("Writes = %d, want 1", got)
	}
}

func TestSequenceCloneIndependence(t *testing.T) {
	s := Sequence{{Op: OpWrite, Addr: 1, Data: 2}}
	c := s.Clone()
	c[0].Data = 99
	if s[0].Data != 2 {
		t.Error("Clone shares backing storage with the original")
	}
}

func TestSequenceValidate(t *testing.T) {
	if err := (Sequence{}).Validate(16); err == nil {
		t.Error("empty sequence should not validate")
	}
	ok := Sequence{{Op: OpRead, Addr: 15}}
	if err := ok.Validate(16); err != nil {
		t.Errorf("valid sequence rejected: %v", err)
	}
	bad := Sequence{{Op: OpRead, Addr: 16}}
	if err := bad.Validate(16); err == nil {
		t.Error("out-of-range address accepted")
	}
	badOp := Sequence{{Op: OpKind(7), Addr: 0}}
	if err := badOp.Validate(16); err == nil {
		t.Error("unknown op accepted")
	}
	// Nop addresses are not checked: the bus is idle.
	nop := Sequence{{Op: OpNop, Addr: 999}}
	if err := nop.Validate(16); err != nil {
		t.Errorf("nop with large addr rejected: %v", err)
	}
}

func TestConditionLimitsClamp(t *testing.T) {
	l := DefaultConditionLimits()
	c := l.Clamp(Conditions{VddV: 99, TempC: -300, ClockMHz: 1})
	if c.VddV != l.VddMax {
		t.Errorf("Vdd clamped to %g, want %g", c.VddV, l.VddMax)
	}
	if c.TempC != l.TempMin {
		t.Errorf("Temp clamped to %g, want %g", c.TempC, l.TempMin)
	}
	if c.ClockMHz != l.ClockMin {
		t.Errorf("Clock clamped to %g, want %g", c.ClockMHz, l.ClockMin)
	}
	nominal := NominalConditions()
	if got := l.Clamp(nominal); got != nominal {
		t.Errorf("nominal conditions altered by clamp: %+v", got)
	}
}

func TestConditionLimitsClampProperty(t *testing.T) {
	l := DefaultConditionLimits()
	f := func(v, temp, clk float64) bool {
		return within(l, l.Clamp(Conditions{VddV: v, TempC: temp, ClockMHz: clk}))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestConditionLimitsContains pins the containment check other packages'
// tests use, Clamp(c) == c: nominal conditions lie inside the default
// window, 0.5 V does not, and on a grid across every edge Clamp leaves
// exactly the conditions inside the limits unchanged.
func TestConditionLimitsContains(t *testing.T) {
	l := DefaultConditionLimits()
	if !within(l, NominalConditions()) {
		t.Error("nominal conditions outside default limits")
	}
	if within(l, Conditions{VddV: 0.5, TempC: 25, ClockMHz: 100}) {
		t.Error("0.5 V inside 1.4–2.2 V limits")
	}
	for _, v := range []float64{1.3, 1.4, 1.8, 2.2, 2.3} {
		for _, temp := range []float64{-41, -40, 25, 125, 126} {
			for _, clk := range []float64{49, 50, 100, 133, 134} {
				c := Conditions{VddV: v, TempC: temp, ClockMHz: clk}
				if fixed := l.Clamp(c) == c; fixed != within(l, c) {
					t.Errorf("%+v: Clamp fixed point %v, inside the limits %v", c, fixed, within(l, c))
				}
			}
		}
	}
}

// within reports whether c lies inside the limits.
func within(l ConditionLimits, c Conditions) bool {
	return c.VddV >= l.VddMin && c.VddV <= l.VddMax &&
		c.TempC >= l.TempMin && c.TempC <= l.TempMax &&
		c.ClockMHz >= l.ClockMin && c.ClockMHz <= l.ClockMax
}

func TestTestString(t *testing.T) {
	tt := Test{
		Name: "T1",
		Seq:  Sequence{{Op: OpRead, Addr: 0}, {Op: OpWrite, Addr: 1, Data: 5}},
		Cond: NominalConditions(),
	}
	s := tt.String()
	for _, want := range []string{"T1", "2 vectors", "1R/1W", "1.80V"} {
		if !strings.Contains(s, want) {
			t.Errorf("Test.String() = %q missing %q", s, want)
		}
	}
}

func TestTestCloneIndependence(t *testing.T) {
	orig := Test{Name: "X", Seq: Sequence{{Op: OpWrite, Addr: 3, Data: 4}}, Cond: NominalConditions()}
	c := orig.Clone()
	c.Seq[0].Addr = 77
	if orig.Seq[0].Addr != 3 {
		t.Error("Test.Clone shares sequence storage")
	}
}
