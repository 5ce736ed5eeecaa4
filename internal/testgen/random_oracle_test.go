package testgen

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// mathRandGenerator is RandomGenerator as it was before it drew through
// randstream: the same algorithm over a *rand.Rand, kept as the oracle
// RandomGenerator must reproduce value for value.
type mathRandGenerator struct {
	rng             *rand.Rand
	addrSpace       uint32
	limits          ConditionLimits
	count           int
	FixedConditions *Conditions
	UniformOnly     bool
}

// newMathRandGenerator returns a seeded generator for the given address space.
func newMathRandGenerator(seed int64, addrSpace uint32, limits ConditionLimits) *mathRandGenerator {
	if addrSpace == 0 {
		panic("testgen: zero address space")
	}
	return &mathRandGenerator{
		rng:       rand.New(rand.NewSource(seed)),
		addrSpace: addrSpace,
		limits:    limits,
	}
}

// Next generates the next random test. Sequence length is uniform in
// [MinSequenceLen, MaxSequenceLen].
func (g *mathRandGenerator) Next() Test {
	g.count++
	n := MinSequenceLen + g.rng.Intn(MaxSequenceLen-MinSequenceLen+1)
	seq := g.Sequence(n)
	cond := g.Conditions()
	return Test{
		Name: fmt.Sprintf("RND-%04d", g.count),
		Seq:  seq,
		Cond: cond,
	}
}

// Conditions draws random test conditions inside the limits, or the fixed
// conditions if configured.
func (g *mathRandGenerator) Conditions() Conditions {
	if g.FixedConditions != nil {
		return *g.FixedConditions
	}
	uni := func(lo, hi float64) float64 { return lo + g.rng.Float64()*(hi-lo) }
	return Conditions{
		VddV:     uni(g.limits.VddMin, g.limits.VddMax),
		TempC:    uni(g.limits.TempMin, g.limits.TempMax),
		ClockMHz: uni(g.limits.ClockMin, g.limits.ClockMax),
	}
}

// Sequence generates a random sequence of exactly n vectors.
func (g *mathRandGenerator) Sequence(n int) Sequence {
	return g.AppendSequence(make(Sequence, 0, n), n)
}

// AppendSequence appends exactly n random vectors to seq and returns the
// extended slice, drawing what Sequence(n) draws. With the capacity for
// them, the vectors land in seq's backing array and nothing is allocated.
func (g *mathRandGenerator) AppendSequence(seq Sequence, n int) Sequence {
	if g.UniformOnly {
		return g.styledSequence(seq, n, dataUniform, addrUniform, 0.3+0.5*g.rng.Float64())
	}
	ds := dataStyle(g.rng.Intn(5))
	as := addrStyle(g.rng.Intn(5))
	readBias := 0.3 + 0.5*g.rng.Float64() // fraction of reads
	return g.styledSequence(seq, n, ds, as, readBias)
}

func (g *mathRandGenerator) styledSequence(seq Sequence, n int, ds dataStyle, as addrStyle, readBias float64) Sequence {
	addr := uint32(g.rng.Intn(int(g.addrSpace)))
	stride := uint32(1 + g.rng.Intn(64))
	burstLen := 2 + g.rng.Intn(14)
	inBurst := 0
	pingA := addr
	pingB := uint32(g.rng.Intn(int(g.addrSpace)))
	invert := false

	for i := 0; i < n; i++ {
		// Address walk.
		switch as {
		case addrUniform:
			addr = uint32(g.rng.Intn(int(g.addrSpace)))
		case addrStride:
			addr = (addr + stride) % g.addrSpace
		case addrPingPong:
			if i%2 == 0 {
				addr = pingA
			} else {
				addr = pingB
			}
		case addrBurst:
			if inBurst == 0 {
				addr = uint32(g.rng.Intn(int(g.addrSpace)))
				inBurst = burstLen
			} else {
				addr = (addr + 1) % g.addrSpace
				inBurst--
			}
		case addrRowSweep:
			addr = (addr + 1) % g.addrSpace
		}

		// Data word.
		var data uint32
		switch ds {
		case dataUniform:
			data = g.rng.Uint32()
		case dataCheckerboard:
			if (addr^uint32(i))&1 == 0 {
				data = 0x55555555
			} else {
				data = 0xAAAAAAAA
			}
		case dataStripes:
			if i&1 == 0 {
				data = 0x0F0F0F0F
			} else {
				data = 0xF0F0F0F0
			}
		case dataInverting:
			if invert {
				data = 0xFFFFFFFF
			} else {
				data = 0x00000000
			}
			invert = !invert
		case dataSparse:
			data = 1 << uint(g.rng.Intn(32))
		}

		// The read/write draw is a coin flip the CPU cannot predict, so the
		// op and the stored data are selected arithmetically (OpWrite is
		// OpRead-1): a read keeps no data.
		var write uint32
		if g.rng.Float64() > readBias {
			write = 1
		}
		seq = append(seq, Vector{Op: OpRead - OpKind(write), Addr: addr, Data: data & -write})
	}
	return seq
}

// Batch generates n tests.
func (g *mathRandGenerator) Batch(n int) []Test {
	out := make([]Test, n)
	for i := range out {
		out[i] = g.Next()
	}
	return out
}

// PerturbSequence re-draws roughly rate·len(seq) vectors of seq in place;
// the caller owns seq. The GA mutation operator delegates here so mutated
// sequences stay inside the generator's address space.
func (g *mathRandGenerator) PerturbSequence(seq Sequence, rate float64) {
	for i := range seq {
		if g.rng.Float64() < rate {
			op := OpRead
			if g.rng.Float64() < 0.5 {
				op = OpWrite
			}
			v := Vector{Op: op, Addr: uint32(g.rng.Intn(int(g.addrSpace)))}
			if op == OpWrite {
				v.Data = g.rng.Uint32()
			}
			seq[i] = v
		}
	}
}

// oracleSeeds returns the edge seeds of math/rand's seed normalisation
// (zero, its 89482311 stand-in, ± multiples of 2^31−1 and their
// neighbours, the int64 extremes) and n ordinary seeds: consecutive small
// ones and a spread over all of int64.
func oracleSeeds(n int) []int64 {
	const pm = 1<<31 - 1
	seeds := []int64{0, 89482311, -89482311, math.MinInt64, math.MaxInt64, math.MinInt64 + 1}
	for _, k := range []int64{1, 2, 1 << 31, math.MaxInt64 / pm} {
		for _, d := range []int64{-1, 0, 1} {
			seeds = append(seeds, k*pm+d, -k*pm+d)
		}
	}
	r := rand.New(rand.NewSource(99))
	for i := range n {
		if i%2 == 0 {
			seeds = append(seeds, int64(i/2))
		} else {
			seeds = append(seeds, int64(r.Uint64()))
		}
	}
	return seeds
}

// TestRandomGeneratorMatchesMathRand runs RandomGenerator and the math/rand
// generator it replaces through the same calls, with uniform and styled
// generation, random and fixed conditions, a power-of-two address space,
// one whose walk takes % and whose draws reject, and one above 2^31−1,
// whose draws go through Int63n: every test, sequence and condition must
// be identical.
func TestRandomGeneratorMatchesMathRand(t *testing.T) {
	fixed := NominalConditions()
	same := func(t *testing.T, what string, got, want Test) {
		t.Helper()
		if got.Name != want.Name || got.Cond != want.Cond || !slices.Equal(got.Seq, want.Seq) {
			t.Fatalf("%s: %s (%d vectors, %+v), math/rand generator %s (%d vectors, %+v)",
				what, got.Name, len(got.Seq), got.Cond, want.Name, len(want.Seq), want.Cond)
		}
	}
	for _, space := range []uint32{4096, 1000, 1<<31 + 11} {
		for _, uniform := range []bool{false, true} {
			for _, fix := range []bool{false, true} {
				t.Run(fmt.Sprintf("space=%d/uniform=%v/fixed=%v", space, uniform, fix), func(t *testing.T) {
					for _, seed := range oracleSeeds(200) {
						g := NewRandomGenerator(seed, space, DefaultConditionLimits())
						o := newMathRandGenerator(seed, space, DefaultConditionLimits())
						g.UniformOnly, o.UniformOnly = uniform, uniform
						if fix {
							g.FixedConditions, o.FixedConditions = &fixed, &fixed
						}
						what := fmt.Sprintf("seed %d", seed)
						same(t, what+" Next", g.Next(), o.Next())
						gb, ob := g.Batch(2), o.Batch(2)
						for i := range gb {
							same(t, what+" Batch", gb[i], ob[i])
						}
						same(t, what+" Sequence", Test{Seq: g.Sequence(150)}, Test{Seq: o.Sequence(150)})
						prefix := Sequence{{Op: OpWrite, Addr: 1, Data: 2}, {Op: OpRead, Addr: 3}}
						spare := func() Sequence { return append(make(Sequence, 0, 200), prefix...) }
						same(t, what+" AppendSequence with spare capacity",
							Test{Seq: g.AppendSequence(spare(), 120)}, Test{Seq: o.AppendSequence(spare(), 120)})
						same(t, what+" AppendSequence without spare capacity",
							Test{Seq: g.AppendSequence(slices.Clip(prefix), 120)}, Test{Seq: o.AppendSequence(slices.Clip(prefix), 120)})
						same(t, what+" Conditions", Test{Cond: g.Conditions()}, Test{Cond: o.Conditions()})
						base := g.Sequence(300)
						o.Sequence(300)
						for _, rate := range []float64{0, 0.02, 1} {
							gs, os := base.Clone(), base.Clone()
							g.PerturbSequence(gs, rate)
							o.PerturbSequence(os, rate)
							same(t, fmt.Sprintf("%s PerturbSequence at %g", what, rate), Test{Seq: gs}, Test{Seq: os})
						}
						same(t, what+" Next after the rest", g.Next(), o.Next())
					}
				})
			}
		}
	}
}

// BenchmarkRandomBatch is fig. 8's serial draw: 1000 tests at fixed
// conditions, on the generator and on the math/rand oracle it replaces.
func BenchmarkRandomBatch(b *testing.B) {
	cond := NominalConditions()
	b.Run("gen=randstream", func(b *testing.B) {
		for i := range b.N {
			g := NewRandomGenerator(int64(i), 4096, DefaultConditionLimits())
			g.FixedConditions = &cond
			g.Batch(1000)
		}
	})
	b.Run("gen=math-rand", func(b *testing.B) {
		for i := range b.N {
			g := newMathRandGenerator(int64(i), 4096, DefaultConditionLimits())
			g.FixedConditions = &cond
			g.Batch(1000)
		}
	})
}
