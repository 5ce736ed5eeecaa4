package testgen

import (
	"fmt"

	"repro/internal/randstream"
)

// RandomGenerator produces non-deterministic random tests in the sense of §3
// of the paper: random sequences of reads and writes with structured data
// backgrounds and address strides, plus randomized test conditions. All
// randomness flows from the seed handed to NewRandomGenerator so runs are
// reproducible.
//
// The generator deliberately mixes several pattern "styles" (uniform random,
// strided sweeps, burst traffic, ping-pong addressing) because a pure
// uniform generator would produce statistically indistinguishable activity
// from test to test and the paper's whole premise is that different tests
// provoke different trip points.
type RandomGenerator struct {
	rng       randstream.Cursor
	addrSpace uint32
	limits    ConditionLimits
	count     int

	// FixedConditions, when non-nil, pins every generated test to the given
	// conditions instead of randomizing them. Table 1 fixes Vdd at 1.8 V.
	FixedConditions *Conditions

	// UniformOnly restricts generation to uniform addressing and uniform
	// data — the naive random generator the styled one is ablated against.
	// Styled generation exists because uniform tests are statistically
	// indistinguishable from each other: their trip points cluster tightly
	// and the NN sees almost no severity spread to learn from.
	UniformOnly bool
}

// NewRandomGenerator returns a seeded generator for the given address space.
func NewRandomGenerator(seed int64, addrSpace uint32, limits ConditionLimits) *RandomGenerator {
	if addrSpace == 0 {
		panic("testgen: zero address space")
	}
	return &RandomGenerator{
		rng:       randstream.New(seed).Cursor(),
		addrSpace: addrSpace,
		limits:    limits,
	}
}

// dataStyle selects how the data word of a vector is drawn.
type dataStyle int

const (
	dataUniform dataStyle = iota
	dataCheckerboard
	dataStripes
	dataInverting
	dataSparse
)

// addrStyle selects how addresses walk through the array.
type addrStyle int

const (
	addrUniform addrStyle = iota
	addrStride
	addrPingPong
	addrBurst
	addrRowSweep
)

// Next generates the next random test. Sequence length is uniform in
// [MinSequenceLen, MaxSequenceLen].
func (g *RandomGenerator) Next() Test { return g.NextInto(nil) }

// NextInto draws what Next draws, with the sequence written over buf's
// backing array: it allocates only when cap(buf) is below the drawn length,
// and then exactly that length, as Next does. The caller owns buf; the
// returned test's sequence aliases it.
func (g *RandomGenerator) NextInto(buf Sequence) Test {
	g.count++
	n := MinSequenceLen + g.rng.Intn(MaxSequenceLen-MinSequenceLen+1)
	if cap(buf) < n {
		buf = make(Sequence, 0, n)
	}
	seq := g.AppendSequence(buf[:0], n)
	cond := g.Conditions()
	return Test{
		Name: fmt.Sprintf("RND-%04d", g.count),
		Seq:  seq,
		Cond: cond,
	}
}

// Conditions draws random test conditions inside the limits, or the fixed
// conditions if configured.
func (g *RandomGenerator) Conditions() Conditions {
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
func (g *RandomGenerator) Sequence(n int) Sequence {
	return g.AppendSequence(make(Sequence, 0, n), n)
}

// AppendSequence appends exactly n random vectors to seq and returns the
// extended slice, drawing what Sequence(n) draws. With the capacity for
// them, the vectors land in seq's backing array and nothing is allocated.
func (g *RandomGenerator) AppendSequence(seq Sequence, n int) Sequence {
	if g.UniformOnly {
		return g.styledSequence(seq, n, dataUniform, addrUniform, 0.3+0.5*g.rng.Float64())
	}
	ds := dataStyle(g.rng.Intn(5))
	as := addrStyle(g.rng.Intn(5))
	readBias := 0.3 + 0.5*g.rng.Float64() // fraction of reads
	return g.styledSequence(seq, n, ds, as, readBias)
}

func (g *RandomGenerator) styledSequence(seq Sequence, n int, ds dataStyle, as addrStyle, readBias float64) Sequence {
	addr := uint32(g.rng.Intn(int(g.addrSpace)))
	stride := uint32(1 + g.rng.Intn(64))
	burstLen := 2 + g.rng.Intn(14)
	inBurst := 0
	pingA := addr
	pingB := uint32(g.rng.Intn(int(g.addrSpace)))
	invert := false

	// walk steps an address by d through the space: a mask for a power of
	// two, % otherwise.
	space := g.addrSpace
	mask, pow2 := space-1, space&(space-1) == 0
	walk := func(addr, d uint32) uint32 {
		if pow2 {
			return (addr + d) & mask
		}
		return (addr + d) % space
	}
	// The loop draws through a local copy of the cursor, which keeps the
	// stream's position in locals, and stores it back once per sequence.
	c := g.rng
	for i := 0; i < n; i++ {
		// Address walk.
		switch as {
		case addrUniform:
			addr = uint32(c.Intn(int(space)))
		case addrStride:
			addr = walk(addr, stride)
		case addrPingPong:
			if i%2 == 0 {
				addr = pingA
			} else {
				addr = pingB
			}
		case addrBurst:
			if inBurst == 0 {
				addr = uint32(c.Intn(int(space)))
				inBurst = burstLen
			} else {
				addr = walk(addr, 1)
				inBurst--
			}
		case addrRowSweep:
			addr = walk(addr, 1)
		}

		// Data word.
		var data uint32
		switch ds {
		case dataUniform:
			data = c.Uint32()
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
			data = 1 << uint(c.Intn(32))
		}

		// The read/write draw is a coin flip the CPU cannot predict, so the
		// op and the stored data are selected arithmetically (OpWrite is
		// OpRead-1): a read keeps no data.
		var write uint32
		if c.Float64() > readBias {
			write = 1
		}
		seq = append(seq, Vector{Op: OpRead - OpKind(write), Addr: addr, Data: data & -write})
	}
	g.rng = c
	return seq
}

// Batch generates n tests.
func (g *RandomGenerator) Batch(n int) []Test {
	out := make([]Test, n)
	for i := range out {
		out[i] = g.Next()
	}
	return out
}

// PerturbSequence re-draws roughly rate·len(seq) vectors of seq in place;
// the caller owns seq. The GA mutation operator delegates here so mutated
// sequences stay inside the generator's address space.
func (g *RandomGenerator) PerturbSequence(seq Sequence, rate float64) {
	c := g.rng
	for i := range seq {
		if c.Float64() < rate {
			op := OpRead
			if c.Float64() < 0.5 {
				op = OpWrite
			}
			v := Vector{Op: op, Addr: uint32(c.Intn(int(g.addrSpace)))}
			if op == OpWrite {
				v.Data = c.Uint32()
			}
			seq[i] = v
		}
	}
	g.rng = c
}

// Limits returns the condition limits the generator draws from.
func (g *RandomGenerator) Limits() ConditionLimits { return g.limits }
