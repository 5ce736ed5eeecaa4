package testgen

import (
	"math/rand"
	"testing"
)

func fpTest() Test {
	return Test{
		Name: "fp-sample",
		Seq: Sequence{
			{Op: OpWrite, Addr: 4, Data: 0xDEADBEEF},
			{Op: OpRead, Addr: 4},
			{Op: OpNop},
		},
		Cond: NominalConditions(),
	}
}

func TestFingerprintStable(t *testing.T) {
	a, b := fpTest(), fpTest()
	if a.Fingerprint() != b.Fingerprint() {
		t.Error("identical tests hash differently")
	}
	if a.Clone().Fingerprint() != a.Fingerprint() {
		t.Error("clone hashes differently from original")
	}
}

func TestFingerprintIgnoresName(t *testing.T) {
	a, b := fpTest(), fpTest()
	b.Name = "something-else"
	if a.Fingerprint() != b.Fingerprint() {
		t.Error("fingerprint depends on the test name")
	}
}

func TestFingerprintSensitivity(t *testing.T) {
	base := fpTest()
	mutations := map[string]func(*Test){
		"op":        func(tt *Test) { tt.Seq[0].Op = OpRead },
		"addr":      func(tt *Test) { tt.Seq[1].Addr = 5 },
		"data":      func(tt *Test) { tt.Seq[0].Data = 0xDEADBEF0 },
		"truncated": func(tt *Test) { tt.Seq = tt.Seq[:2] },
		"vdd":       func(tt *Test) { tt.Cond.VddV += 1e-9 },
		"temp":      func(tt *Test) { tt.Cond.TempC = 26 },
		"clock":     func(tt *Test) { tt.Cond.ClockMHz = 101 },
	}
	for name, mutate := range mutations {
		tt := base.Clone()
		mutate(&tt)
		if tt.Fingerprint() == base.Fingerprint() {
			t.Errorf("%s mutation did not change the fingerprint", name)
		}
	}
}

func TestFingerprintLengthFraming(t *testing.T) {
	// A NOP-padded sequence must not collide with its unpadded form even
	// though OpNop contributes the same bytes per vector.
	a := Test{Seq: Sequence{{Op: OpNop}}, Cond: NominalConditions()}
	b := Test{Seq: Sequence{{Op: OpNop}, {Op: OpNop}}, Cond: NominalConditions()}
	if a.Fingerprint() == b.Fingerprint() {
		t.Error("sequences of different length collide")
	}
}

func TestFingerprintRandomCollisionFree(t *testing.T) {
	// 500 generator tests must produce 500 distinct fingerprints — a
	// collision here would silently alias two individuals in the GA cache.
	gen := NewRandomGenerator(7, 1024, DefaultConditionLimits())
	seen := make(map[uint64]string, 500)
	for i := 0; i < 500; i++ {
		tt := gen.Next()
		fp := tt.Fingerprint()
		if prev, dup := seen[fp]; dup {
			t.Fatalf("fingerprint collision between %s and %s", prev, tt.Name)
		}
		seen[fp] = tt.Name
	}
}

// unmix inverts Mix for a known word v: undo the xorshift, multiply by the
// prime's inverse mod 2^64, then xor v back out.
func unmix(y, v uint64) uint64 {
	inv := mixPrime // Newton's iteration doubles the correct low bits: 3, 6, …, 96
	for i := 0; i < 5; i++ {
		inv *= 2 - mixPrime*inv
	}
	x := y ^ y>>29 ^ y>>58
	return x*inv ^ v
}

// Mix is a bijection of the state for each word: unmix recovers every
// state it was given, so no two states (and, through the xor, no two
// words) meet in one output.
func TestMixIsBijection(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for i := 0; i < 100000; i++ {
		h, v := rng.Uint64(), rng.Uint64()
		if i < 64 {
			h = 1 << i // every single-bit state, including the top bits the xorshift folds
		}
		if got := unmix(Mix(h, v), v); got != h {
			t.Fatalf("unmix(Mix(%#x, %#x)) = %#x", h, v, got)
		}
	}
}

// A fingerprint is a chain of bijections over the length word, two words
// per vector and the three condition words, so editing a single word of a
// generated test always changes it; so do the length-changing edits. 1,200
// generated sequences over four seeds, five edits each.
func TestFingerprintOneWordEditNeverCollides(t *testing.T) {
	edits := []struct {
		name string
		edit func(*rand.Rand, *Vector)
	}{
		{"op", func(_ *rand.Rand, v *Vector) { v.Op = (v.Op + 1) % 3 }},
		{"address bit", func(r *rand.Rand, v *Vector) { v.Addr ^= 1 << r.Intn(32) }},
		{"data bit", func(r *rand.Rand, v *Vector) { v.Data ^= 1 << r.Intn(32) }},
		{"address and op word", func(r *rand.Rand, v *Vector) {
			for old := *v; v.Addr == old.Addr && v.Op == old.Op; {
				v.Addr, v.Op = r.Uint32(), OpKind(r.Intn(3))
			}
		}},
		{"data word", func(r *rand.Rand, v *Vector) {
			for old := v.Data; v.Data == old; {
				v.Data = r.Uint32()
			}
		}},
	}
	for _, seed := range []int64{1, 7, 42, 7919} {
		gen := NewRandomGenerator(seed, 1024, DefaultConditionLimits())
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 300; i++ {
			base := gen.Next()
			fp := base.Fingerprint()
			for _, e := range edits {
				tt := base.Clone()
				e.edit(rng, &tt.Seq[rng.Intn(len(tt.Seq))])
				if tt.Fingerprint() == fp {
					t.Fatalf("seed %d, %s: a one-word edit (%s) kept fingerprint %#x", seed, base.Name, e.name, fp)
				}
			}
			longer := base.Clone()
			longer.Seq = append(longer.Seq, Vector{Op: OpNop})
			shorter := base.Clone()
			shorter.Seq = shorter.Seq[:len(shorter.Seq)-1]
			if longer.Fingerprint() == fp || shorter.Fingerprint() == fp {
				t.Fatalf("seed %d, %s: a length change kept fingerprint %#x", seed, base.Name, fp)
			}
		}
	}
}
