package genetic

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/testgen"
)

func TestCrossoverSeqLengthsAndValidity(t *testing.T) {
	ops := newOps(1)
	gen := testgen.NewRandomGenerator(2, 4096, testgen.DefaultConditionLimits())
	a, b := gen.Sequence(300), gen.Sequence(700)
	for i := 0; i < 50; i++ {
		// Both parent orders, so the b-head child is checked too.
		for _, c := range []testgen.Sequence{ops.CrossoverSeq(nil, a, b), ops.CrossoverSeq(nil, b, a)} {
			if len(c) < testgen.MinSequenceLen || len(c) > testgen.MaxSequenceLen {
				t.Fatalf("offspring length %d outside bounds", len(c))
			}
			if err := c.Validate(4096); err != nil {
				t.Fatalf("offspring invalid: %v", err)
			}
		}
	}
}

func TestCrossoverSeqMixesParents(t *testing.T) {
	ops := newOps(3)
	a := make(testgen.Sequence, 200)
	b := make(testgen.Sequence, 200)
	for i := range a {
		a[i] = testgen.Vector{Op: testgen.OpRead, Addr: 1}
		b[i] = testgen.Vector{Op: testgen.OpRead, Addr: 2}
	}
	sawMix := false
	for i := 0; i < 20 && !sawMix; i++ {
		c1 := ops.CrossoverSeq(nil, a, b)
		has1, has2 := false, false
		for _, v := range c1 {
			if v.Addr == 1 {
				has1 = true
			}
			if v.Addr == 2 {
				has2 = true
			}
		}
		sawMix = has1 && has2
	}
	if !sawMix {
		t.Error("crossover never mixed material from both parents")
	}
}

func TestCrossoverSeqEmptyParents(t *testing.T) {
	ops := newOps(5)
	var empty testgen.Sequence
	if c := ops.CrossoverSeq(nil, empty, empty); len(c) != 0 {
		t.Error("empty parents produced offspring")
	}
}

func TestMutateSeqKeepsBoundsAndValidity(t *testing.T) {
	ops := newOps(7)
	gen := testgen.NewRandomGenerator(8, 4096, testgen.DefaultConditionLimits())
	s := gen.Sequence(150)
	for i := 0; i < 50; i++ {
		m := ops.MutateSeq(s)
		if len(m) < testgen.MinSequenceLen || len(m) > testgen.MaxSequenceLen {
			t.Fatalf("mutant length %d", len(m))
		}
		if err := m.Validate(4096); err != nil {
			t.Fatalf("mutant invalid: %v", err)
		}
	}
}

func TestMutateSeqChangesSomething(t *testing.T) {
	ops := newOps(9)
	ops.SeqMutationRate = 0.2
	gen := testgen.NewRandomGenerator(10, 4096, testgen.DefaultConditionLimits())
	s := gen.Sequence(300)
	m := ops.MutateSeq(s.Clone())
	diff := 0
	for i := range m {
		if i < len(s) && m[i] != s[i] {
			diff++
		}
	}
	if diff == 0 {
		t.Error("mutation changed nothing at 20% rate")
	}
}

func TestCrossoverCondWithinLimits(t *testing.T) {
	ops := newOps(11)
	limits := testgen.DefaultConditionLimits()
	a := testgen.Conditions{VddV: limits.VddMin, TempC: limits.TempMin, ClockMHz: limits.ClockMin}
	b := testgen.Conditions{VddV: limits.VddMax, TempC: limits.TempMax, ClockMHz: limits.ClockMax}
	for i := 0; i < 100; i++ {
		c := ops.CrossoverCond(a, b)
		if limits.Clamp(c) != c {
			t.Fatalf("blend escaped limits: %+v", c)
		}
	}
}

func TestMutateCondWithinLimits(t *testing.T) {
	ops := newOps(13)
	limits := testgen.DefaultConditionLimits()
	c := testgen.NominalConditions()
	changed := false
	for i := 0; i < 100; i++ {
		m := ops.MutateCond(c)
		if limits.Clamp(m) != m {
			t.Fatalf("mutant escaped limits: %+v", m)
		}
		if m != c {
			changed = true
		}
	}
	if !changed {
		t.Error("condition mutation is a no-op")
	}
}

func TestRandomIndividual(t *testing.T) {
	ops := newOps(15)
	seq, cond := ops.RandomIndividual(nil, nil)
	if len(seq) < testgen.MinSequenceLen || len(seq) > testgen.MaxSequenceLen {
		t.Errorf("random individual length %d", len(seq))
	}
	if testgen.DefaultConditionLimits().Clamp(cond) != cond {
		t.Errorf("random conditions %+v outside limits", cond)
	}
	fixed := testgen.NominalConditions()
	_, cond = ops.RandomIndividual(nil, &fixed)
	if cond != fixed {
		t.Error("fixed conditions ignored")
	}
}

func TestTournamentPicksFitter(t *testing.T) {
	ops := newOps(17)
	weak := &Individual{Fitness: 0.1, Evaluated: true}
	strong := &Individual{Fitness: 0.9, Evaluated: true}
	pop := []*Individual{weak, strong}
	strongWins := 0
	for i := 0; i < 200; i++ {
		if ops.Tournament(pop, 2) == strong {
			strongWins++
		}
	}
	// With k=2 over two individuals, the strong one wins whenever it is
	// drawn at least once: P = 3/4.
	if strongWins < 120 {
		t.Errorf("tournament selected the stronger individual only %d/200 times", strongWins)
	}
}

// refCrossoverSeq is the two-child CrossoverSeq that the one-child operator
// replaced, kept as its reference.
func refCrossoverSeq(o *Operators, a, b testgen.Sequence) (testgen.Sequence, testgen.Sequence) {
	if len(a) == 0 || len(b) == 0 {
		return a.Clone(), b.Clone()
	}
	frac := o.rng.Float64()
	ca := int(frac * float64(len(a)))
	cb := int(frac * float64(len(b)))
	child1 := make(testgen.Sequence, 0, ca+len(b)-cb)
	child1 = append(child1, a[:ca]...)
	child1 = append(child1, b[cb:]...)
	child2 := make(testgen.Sequence, 0, cb+len(a)-ca)
	child2 = append(child2, b[:cb]...)
	child2 = append(child2, a[ca:]...)
	return refClampLen(o, child1), refClampLen(o, child2)
}

// refClampLen is the reference's length clamp.
func refClampLen(o *Operators, s testgen.Sequence) testgen.Sequence {
	if len(s) > testgen.MaxSequenceLen {
		return s[:testgen.MaxSequenceLen]
	}
	for len(s) < testgen.MinSequenceLen {
		s = append(s, o.gen.Sequence(testgen.MinSequenceLen-len(s))...)
	}
	return s
}

// refMutateSeq is the cloning MutateSeq: it perturbs a copy of s (as
// PerturbSequence once did itself) and splices a separately drawn block.
func refMutateSeq(o *Operators, s testgen.Sequence) testgen.Sequence {
	out := s.Clone()
	o.gen.PerturbSequence(out, o.SeqMutationRate)
	if o.rng.Float64() < o.BlockMutationRate && len(out) > 8 {
		blockLen := 4 + o.rng.Intn(28)
		if blockLen > len(out)/2 {
			blockLen = len(out) / 2
		}
		pos := o.rng.Intn(len(out) - blockLen)
		if o.rng.Float64() < 0.5 {
			fresh := o.gen.Sequence(blockLen)
			copy(out[pos:pos+blockLen], fresh)
		} else {
			dst := pos + blockLen
			copy(out[dst:], out[pos:pos+blockLen])
		}
	}
	return refClampLen(o, out)
}

// TestBreedingMatchesReferenceProperty breeds children the way Optimizer.Run
// does — crossover then mutation, or mutation of a parent's copy — with the
// operators writing into recycled buffers of capacity MaxSequenceLen that
// still hold the previous pair's children, and with the reference, from
// identically seeded operators over random parent pairs of 1–1,200 vectors
// (both length clamps fire). Every child, the untouched parents and the
// next draws of the operator RNG and the generator must agree.
func TestBreedingMatchesReferenceProperty(t *testing.T) {
	const pairs = 2500
	rng := rand.New(rand.NewSource(2005))
	parents := testgen.NewRandomGenerator(2005, 4096, testgen.DefaultConditionLimits())
	var short, long int
	childBuf := make(testgen.Sequence, testgen.MaxSequenceLen)
	copyBuf := make(testgen.Sequence, testgen.MaxSequenceLen)
	for i := range childBuf {
		childBuf[i] = testgen.Vector{Op: testgen.OpWrite, Addr: uint32(i), Data: ^uint32(i)}
	}
	for k := 0; k < pairs; k++ {
		seed := rng.Int63()
		a := parents.Sequence(1 + rng.Intn(1200))
		b := parents.Sequence(1 + rng.Intn(1200))
		if len(a) < testgen.MinSequenceLen || len(b) < testgen.MinSequenceLen {
			short++
		}
		if len(a) > testgen.MaxSequenceLen || len(b) > testgen.MaxSequenceLen {
			long++
		}
		aWas, bWas := a.Clone(), b.Clone()
		got, want := newOps(seed), newOps(seed)
		if rng.Intn(2) == 0 {
			got.SeqMutationRate, want.SeqMutationRate = 0.2, 0.2
		}

		child := got.CrossoverSeq(childBuf, a, b)
		refChild, _ := refCrossoverSeq(want, a, b)
		if !slices.Equal(child, refChild) {
			t.Fatalf("pair %d (%d, %d vectors): crossover child differs from the reference", k, len(a), len(b))
		}
		if mutant, ref := got.MutateSeq(child), refMutateSeq(want, refChild); !slices.Equal(mutant, ref) {
			t.Fatalf("pair %d: mutated crossover child differs from the reference", k)
		}
		if mutant, ref := got.MutateSeq(append(copyBuf[:0], a...)), refMutateSeq(want, a); !slices.Equal(mutant, ref) {
			t.Fatalf("pair %d: mutated parent copy differs from the reference", k)
		}
		if !slices.Equal(a, aWas) || !slices.Equal(b, bWas) {
			t.Fatalf("pair %d: breeding modified a parent", k)
		}
		if g, w := got.rng.Int63(), want.rng.Int63(); g != w {
			t.Fatalf("pair %d: next operator draw %d, reference %d", k, g, w)
		}
		if g, w := got.gen.Next(), want.gen.Next(); !reflect.DeepEqual(g, w) {
			t.Fatalf("pair %d: next generator draw differs from the reference", k)
		}
	}
	if short < pairs/20 || long < pairs/20 {
		t.Fatalf("only %d short and %d long parent pairs; the length clamps went untested", short, long)
	}
}
