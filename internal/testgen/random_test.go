package testgen

import (
	"reflect"
	"testing"
)

func newGen(seed int64) *RandomGenerator {
	return NewRandomGenerator(seed, 4096, DefaultConditionLimits())
}

func TestRandomGeneratorDeterminism(t *testing.T) {
	g1, g2 := newGen(7), newGen(7)
	for i := 0; i < 20; i++ {
		a, b := g1.Next(), g2.Next()
		if a.Name != b.Name || !reflect.DeepEqual(a.Seq, b.Seq) || a.Cond != b.Cond {
			t.Fatalf("same-seed generators diverged at test %d", i)
		}
	}
}

func TestRandomGeneratorSeedsDiffer(t *testing.T) {
	a, b := newGen(1).Next(), newGen(2).Next()
	if reflect.DeepEqual(a.Seq, b.Seq) {
		t.Error("different seeds produced identical sequences")
	}
}

func TestRandomSequenceLengthBounds(t *testing.T) {
	g := newGen(3)
	for i := 0; i < 200; i++ {
		tt := g.Next()
		if len(tt.Seq) < MinSequenceLen || len(tt.Seq) > MaxSequenceLen {
			t.Fatalf("sequence length %d outside [%d, %d]", len(tt.Seq), MinSequenceLen, MaxSequenceLen)
		}
	}
}

func TestRandomSequencesValidate(t *testing.T) {
	g := newGen(4)
	for i := 0; i < 100; i++ {
		tt := g.Next()
		if err := tt.Seq.Validate(g.addrSpace); err != nil {
			t.Fatalf("generated sequence invalid: %v", err)
		}
	}
}

func TestRandomConditionsInLimits(t *testing.T) {
	g := newGen(5)
	l := g.Limits()
	for i := 0; i < 100; i++ {
		c := g.Conditions()
		if !within(l, c) {
			t.Fatalf("generated conditions %+v outside limits", c)
		}
	}
}

func TestFixedConditions(t *testing.T) {
	g := newGen(6)
	fixed := NominalConditions()
	g.FixedConditions = &fixed
	for i := 0; i < 20; i++ {
		if c := g.Next().Cond; c != fixed {
			t.Fatalf("fixed conditions not honored: got %+v", c)
		}
	}
}

func TestRandomTestNamesUnique(t *testing.T) {
	g := newGen(8)
	seen := make(map[string]bool)
	for i := 0; i < 500; i++ {
		name := g.Next().Name
		if seen[name] {
			t.Fatalf("duplicate test name %q", name)
		}
		seen[name] = true
	}
}

func TestRandomStylesVary(t *testing.T) {
	// The generator must produce visibly different activity across tests —
	// the premise of the multiple-trip-point concept. Verify the mean
	// address stride varies widely over a batch.
	g := newGen(9)
	limits := g.Limits()
	minATD, maxATD := 1.0, 0.0
	for i := 0; i < 100; i++ {
		f := ExtractFeatures(g.Next(), limits)
		if f[FeatATDMean] < minATD {
			minATD = f[FeatATDMean]
		}
		if f[FeatATDMean] > maxATD {
			maxATD = f[FeatATDMean]
		}
	}
	if maxATD-minATD < 0.1 {
		t.Errorf("address-transition density spread %g too small; generator styles indistinct", maxATD-minATD)
	}
}

func TestPerturbSequence(t *testing.T) {
	g := newGen(10)
	orig := g.Sequence(500)

	same := orig.Clone()
	g.PerturbSequence(same, 0)
	if !reflect.DeepEqual(same, orig) {
		t.Error("zero-rate perturbation altered the sequence")
	}

	all := orig.Clone()
	g.PerturbSequence(all, 1)
	if len(all) != len(orig) {
		t.Fatalf("perturbation changed length %d → %d", len(orig), len(all))
	}
	diff := 0
	for i := range all {
		if all[i] != orig[i] {
			diff++
		}
	}
	if diff < len(orig)/2 {
		t.Errorf("rate-1 perturbation changed only %d/%d vectors", diff, len(orig))
	}
	if err := all.Validate(g.addrSpace); err != nil {
		t.Errorf("perturbed sequence invalid: %v", err)
	}
}

func TestBatch(t *testing.T) {
	g := newGen(11)
	b := g.Batch(7)
	if len(b) != 7 {
		t.Fatalf("Batch(7) returned %d tests", len(b))
	}
}

func TestNewRandomGeneratorPanicsOnZeroAddrSpace(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero address space did not panic")
		}
	}()
	NewRandomGenerator(1, 0, DefaultConditionLimits())
}

// TestNextIntoMatchesNext draws with NextInto into reused buffers whose
// contents are stale vectors and whose capacities sit below, at and above
// the drawn length (and nil), beside a same-seed generator drawing with
// Next. Every test must equal Next's, land in the buffer exactly when it
// fits and otherwise in an exact-size allocation, and both generators must
// end at the same stream position, with and without fixed conditions.
func TestNextIntoMatchesNext(t *testing.T) {
	fixed := NominalConditions()
	for _, cond := range []*Conditions{nil, &fixed} {
		ref, got := newGen(12), newGen(12)
		ref.FixedConditions, got.FixedConditions = cond, cond
		dirty := Vector{Op: OpWrite, Addr: 0xFFF, Data: 0xDEADBEEF}
		for k := 0; k < 400; k++ {
			want := ref.Next()
			n := len(want.Seq)
			var buf Sequence
			switch k % 4 {
			case 1:
				buf = make(Sequence, n-1-k%7, n-1)
			case 2:
				buf = make(Sequence, k%5, n)
			case 3:
				buf = make(Sequence, MaxSequenceLen+1)
			}
			for i := range buf[:cap(buf)] {
				buf[:cap(buf)][i] = dirty
			}
			tt := got.NextInto(buf)
			if tt.Name != want.Name || !reflect.DeepEqual(tt.Seq, want.Seq) || tt.Cond != want.Cond {
				t.Fatalf("draw %d (cap %d, length %d): NextInto differs from Next", k, cap(buf), n)
			}
			inBuf := cap(buf) > 0 && &tt.Seq[0] == &buf[:1][0]
			if inBuf != (cap(buf) >= n) {
				t.Fatalf("draw %d: cap %d for length %d, sequence in the buffer: %v", k, cap(buf), n, inBuf)
			}
			if cap(buf) < n && cap(tt.Seq) != n {
				t.Fatalf("draw %d: allocated capacity %d for length %d", k, cap(tt.Seq), n)
			}
		}
		if ref.count != got.count || ref.rng.Float64() != got.rng.Float64() {
			t.Fatal("NextInto left the generator at another stream position than Next")
		}
	}
}
