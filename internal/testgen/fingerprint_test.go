package testgen

import (
	"math"
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

// laneFingerprint is Fingerprint as its doc defines it: the vector words in
// stream order (address and op, then data, vector by vector), word k mixed
// into lane k mod 4, lane 0 started from the length word and lanes 1–3
// from MixOffset plus one, two and three golden ratios, the lanes folded
// in order, then the condition words.
func laneFingerprint(t Test) uint64 {
	const golden uint64 = 0x9e3779b97f4a7c15
	var lanes [4]uint64
	lanes[0] = Mix(MixOffset, uint64(len(t.Seq)))
	for k := uint64(1); k < 4; k++ {
		lanes[k] = MixOffset + k*golden
	}
	k := 0
	for _, v := range t.Seq {
		for _, w := range [2]uint64{uint64(v.Addr) | uint64(v.Op)<<32, uint64(v.Data)} {
			lanes[k%4] = Mix(lanes[k%4], w)
			k++
		}
	}
	h := lanes[0]
	for _, l := range lanes[1:] {
		h = Mix(h, l)
	}
	for _, c := range []float64{t.Cond.VddV, t.Cond.TempC, t.Cond.ClockMHz} {
		h = Mix(h, math.Float64bits(c))
	}
	return h
}

// Fingerprint equals its lane-by-lane definition on every length from 0 to
// 9, odd tails included, and on 400 generated tests of 100–1000 vectors.
func TestFingerprintMatchesLaneDefinition(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for n := 0; n <= 9; n++ {
		tt := Test{Seq: make(Sequence, n), Cond: NominalConditions()}
		for i := range tt.Seq {
			tt.Seq[i] = Vector{Op: OpKind(rng.Intn(3)), Addr: rng.Uint32(), Data: rng.Uint32()}
		}
		if got, want := tt.Fingerprint(), laneFingerprint(tt); got != want {
			t.Fatalf("%d vectors: fingerprint %#x, lane definition %#x", n, got, want)
		}
	}
	gen := NewRandomGenerator(11, 1024, DefaultConditionLimits())
	for i := 0; i < 400; i++ {
		tt := gen.Next()
		if got, want := tt.Fingerprint(), laneFingerprint(tt); got != want {
			t.Fatalf("%s (%d vectors): fingerprint %#x, lane definition %#x", tt.Name, len(tt.Seq), got, want)
		}
	}
}

// Swapping two adjacent, different vectors trades words between lanes 0–1
// and lanes 2–3, whichever pair they start; the fingerprint must change.
// Every adjacent pair of 40 generated tests.
func TestFingerprintAdjacentSwapChangesKey(t *testing.T) {
	gen := NewRandomGenerator(3, 1024, DefaultConditionLimits())
	for i := 0; i < 40; i++ {
		base := gen.Next()
		fp := base.Fingerprint()
		tt := base.Clone()
		for j := 0; j+1 < len(tt.Seq); j++ {
			if tt.Seq[j] == tt.Seq[j+1] {
				continue
			}
			tt.Seq[j], tt.Seq[j+1] = tt.Seq[j+1], tt.Seq[j]
			if tt.Fingerprint() == fp {
				t.Fatalf("%s: swapping vectors %d and %d kept fingerprint %#x", base.Name, j, j+1, fp)
			}
			tt.Seq[j], tt.Seq[j+1] = tt.Seq[j+1], tt.Seq[j]
		}
	}
}

// In an odd-length sequence the last vector is a pair's first half: its
// words go to lanes 0 and 1 with nothing after them in lanes 2 and 3. Each
// of its words still changes the key, and so does appending the vector
// that completes the pair.
func TestFingerprintOddLengthTail(t *testing.T) {
	gen := NewRandomGenerator(5, 1024, DefaultConditionLimits())
	for i := 0; i < 200; i++ {
		base := gen.Next()
		if len(base.Seq)%2 == 0 {
			base.Seq = base.Seq[:len(base.Seq)-1]
		}
		fp := base.Fingerprint()
		last := len(base.Seq) - 1
		for name, edit := range map[string]func(*Vector){
			"address": func(v *Vector) { v.Addr ^= 1 },
			"op":      func(v *Vector) { v.Op = (v.Op + 1) % 3 },
			"data":    func(v *Vector) { v.Data ^= 1 << 31 },
		} {
			tt := base.Clone()
			edit(&tt.Seq[last])
			if tt.Fingerprint() == fp {
				t.Fatalf("%s (%d vectors): a tail %s edit kept fingerprint %#x", base.Name, len(base.Seq), name, fp)
			}
		}
		longer := base.Clone()
		longer.Seq = append(longer.Seq, Vector{Op: OpNop})
		if longer.Fingerprint() == fp {
			t.Fatalf("%s (%d vectors): completing the tail pair kept fingerprint %#x", base.Name, len(base.Seq), fp)
		}
	}
}
