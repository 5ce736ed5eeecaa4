package testgen

import "fmt"

// March tests are the classic deterministic memory test algorithms used as
// the "Deterministic" baseline in Table 1. A March test is a sequence of
// March elements; each element walks the address range in a fixed order
// (up, down, or either) applying a fixed list of read/write operations with
// a data background and its complement.

// MarchOrder is the address order of a March element.
type MarchOrder uint8

const (
	// OrderUp walks addresses ascending.
	OrderUp MarchOrder = iota
	// OrderDown walks addresses descending.
	OrderDown
	// OrderAny walks ascending by convention (the algorithm permits either).
	OrderAny
)

// MarchOp is one operation inside a March element: read or write of the
// background (true) or its complement (false).
type MarchOp struct {
	Write      bool
	Background bool // true = background data, false = complement
}

// MarchElement is one "⇕(op, op, …)" term of a March algorithm.
type MarchElement struct {
	Order MarchOrder
	Ops   []MarchOp
}

// MarchAlgorithm is a named list of March elements.
type MarchAlgorithm struct {
	Name     string
	Elements []MarchElement
}

// Complexity returns the conventional complexity multiplier k of a k·N March
// algorithm (total operations per address).
func (a MarchAlgorithm) Complexity() int {
	k := 0
	for _, e := range a.Elements {
		k += len(e.Ops)
	}
	return k
}

// MarchCMinus returns the 10N March C- algorithm, Table 1's deterministic
// baseline, from the notation library:
//
//	⇕(w0); ⇑(r0,w1); ⇑(r1,w0); ⇓(r0,w1); ⇓(r1,w0); ⇕(r0)
func MarchCMinus() MarchAlgorithm {
	alg, err := MarchFromLibrary("March C-")
	if err != nil {
		panic(err) // the library's notation is a constant
	}
	return alg
}

// MarchTest expands a March algorithm over the address window
// [base, base+words) with the given data background into a runnable Test
// under the supplied conditions. The window keeps the expansion inside the
// paper's short-sequence regime (a full-array March would be far longer than
// 1000 vectors).
func MarchTest(a MarchAlgorithm, base, words uint32, background uint32, cond Conditions) (Test, error) {
	if words == 0 {
		return Test{}, fmt.Errorf("testgen: march window must contain at least one word")
	}
	seq := make(Sequence, 0, int(words)*a.Complexity())
	for _, e := range a.Elements {
		for i := uint32(0); i < words; i++ {
			addr := base + i
			if e.Order == OrderDown {
				addr = base + words - 1 - i
			}
			for _, op := range e.Ops {
				data := background
				if !op.Background {
					data = ^background
				}
				v := Vector{Addr: addr}
				if op.Write {
					v.Op = OpWrite
					v.Data = data
				} else {
					v.Op = OpRead
				}
				seq = append(seq, v)
			}
		}
	}
	return Test{
		Name: fmt.Sprintf("%s[%d..%d]", a.Name, base, base+words-1),
		Seq:  seq,
		Cond: cond,
	}, nil
}

// StandardBackgrounds are the data backgrounds conventionally paired with
// March algorithms: solid, checkerboard, row stripes and column stripes.
func StandardBackgrounds() []uint32 {
	return []uint32{0x00000000, 0x55555555, 0x0F0F0F0F, 0x00FF00FF}
}

// MarchSuite expands one algorithm over every standard background, producing
// the deterministic production-style suite the paper's single-trip-point
// flow would run.
func MarchSuite(a MarchAlgorithm, base, words uint32, cond Conditions) ([]Test, error) {
	bgs := StandardBackgrounds()
	out := make([]Test, 0, len(bgs))
	for _, bg := range bgs {
		t, err := MarchTest(a, base, words, bg, cond)
		if err != nil {
			return nil, err
		}
		t.Name = fmt.Sprintf("%s bg=%08X", t.Name, bg)
		out = append(out, t)
	}
	return out, nil
}
