package randstream

import (
	"math"
	"math/rand"
	"testing"
)

// testSeeds returns the edge seeds of math/rand's seed normalisation
// (zero, its 89482311 stand-in, ± multiples of 2^31−1 and their
// neighbours, the int64 extremes) followed by n ordinary seeds: a run of
// consecutive small ones, like baseSeed+dieID, and a spread over all of
// int64.
func testSeeds(n int) []int64 {
	seeds := []int64{0, 1, -1, 89482311, -89482311, math.MinInt64, math.MaxInt64, math.MinInt64 + 1}
	for _, k := range []int64{1, 2, 3, 1000, 1 << 31, math.MaxInt64 / pmMod} {
		for _, d := range []int64{-1, 0, 1} {
			seeds = append(seeds, k*pmMod+d, -k*pmMod+d)
		}
	}
	r := rand.New(rand.NewSource(42))
	for i := range n {
		if i%2 == 0 {
			seeds = append(seeds, int64(i/2))
		} else {
			seeds = append(seeds, int64(r.Uint64()))
		}
	}
	return seeds
}

// intnBounds are the Intn arguments the draw cycle takes: powers of two
// (the mask), small odd bounds, 2^30+1, whose rejection loop discards about
// half its draws, and two above 2^31−1, which go through Int63n; 2^62+1
// discards about half of them there.
var intnBounds = []int{1, 5, 14, 64, 901, 4096, 1<<30 + 1, 1<<31 + 5, 1<<62 + 1}

// cycle is the number of draw kinds the draw functions take in turn.
var cycle = 5 + len(intnBounds)

// drawMathRand takes the k-th of a cycle of mixed draws from r: every
// distribution a Source serves, through rand.New, and a Cursor reproduces.
// NormFloat64 and the rejection loops consume a variable number of stream
// values, so the cycle walks the register at an uneven pace.
func drawMathRand(r *rand.Rand, k int) uint64 {
	switch k %= cycle; k {
	case 0:
		return math.Float64bits(r.NormFloat64())
	case 1:
		return math.Float64bits(r.Float64())
	case 2:
		return uint64(r.Int63())
	case 3:
		return r.Uint64()
	case 4:
		return uint64(r.Uint32())
	default:
		return uint64(r.Intn(intnBounds[k-5]))
	}
}

// drawCursor takes the k-th draw of the same cycle from c, with the
// cursor's Float64 in place of Int63 and Uint64, which it does not serve.
func drawCursor(c *Cursor, k int) uint64 {
	switch k %= cycle; k {
	case 0:
		return math.Float64bits(c.NormFloat64())
	case 1, 2, 3:
		return math.Float64bits(c.Float64())
	case 4:
		return uint64(c.Uint32())
	default:
		return uint64(c.Intn(intnBounds[k-5]))
	}
}

// drawCursorMathRand is drawCursor's cycle from r.
func drawCursorMathRand(r *rand.Rand, k int) uint64 {
	switch k %= cycle; k {
	case 2, 3:
		return math.Float64bits(r.Float64())
	default:
		return drawMathRand(r, k)
	}
}

// TestSourceMatchesMathRand draws each seed's stream through a Source
// served by rand.New for a seed-dependent number of draws, on either side
// of draw 273, draw 334 and the register's 607-word wrap, then through a
// Cursor taken there, 1,500 draws in all, against rand.NewSource(seed).
// reused is re-seeded in place after the previous seed's draws.
func TestSourceMatchesMathRand(t *testing.T) {
	const draws = 1500
	reused := New(7)
	for _, seed := range testSeeds(5000) {
		lazy := int(uint64(seed) % 700)
		want := rand.New(rand.NewSource(seed))
		fresh := New(seed)
		reused.Seed(seed)
		srcs := []*Source{fresh, reused}
		rands := []*rand.Rand{rand.New(fresh), rand.New(reused)}
		var curs [2]Cursor
		for k := range draws {
			if k == lazy {
				for i, s := range srcs {
					curs[i] = s.Cursor()
				}
			}
			var w uint64
			if k < lazy {
				w = drawMathRand(want, k)
			} else {
				w = drawCursorMathRand(want, k)
			}
			for i, name := range []string{"fresh", "re-seeded"} {
				var got uint64
				if k < lazy {
					got = drawMathRand(rands[i], k)
				} else {
					got = drawCursor(&curs[i], k)
				}
				if got != w {
					t.Fatalf("seed %d draw %d (cursor from draw %d): %s source %#x, math/rand %#x", seed, k, lazy, name, got, w)
				}
			}
		}
	}
}

func TestFloat64RedrawsOne(t *testing.T) {
	s := New(1)
	for range rngLen {
		s.Uint64()
	}
	// Make the next stream value 2^63−1, whose Float64 rounds up to 1.
	tap, feed := (s.tap+rngLen-1)%rngLen, (s.feed+rngLen-1)%rngLen
	s.vec[feed] = math.MaxInt64 - s.vec[tap]
	probe := *s
	if f := float64(probe.Int63()) / (1 << 63); f != 1 {
		t.Fatalf("the prepared state's next value gives %v, want 1", f)
	}
	state := *s
	want := rand.New(&state)
	c := s.Cursor()
	for k := range 10 {
		if got, w := c.Float64(), want.Float64(); got != w {
			t.Fatalf("draw %d after a value rounding to 1: Float64 %v, math/rand %v", k, got, w)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	for _, n := range []int{0, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Intn(%d) did not panic", n)
				}
			}()
			c := New(1).Cursor()
			c.Intn(n)
		}()
	}
}

// BenchmarkReseedNoise is one die's noise bill: a reseed and the couple of
// dozen gaussian draws a die screen takes.
func BenchmarkReseedNoise(b *testing.B) {
	for _, bc := range []struct {
		name string
		src  rand.Source
	}{
		{"source=randstream", New(1)},
		{"source=math-rand", rand.NewSource(1)},
	} {
		b.Run(bc.name, func(b *testing.B) {
			r := rand.New(bc.src)
			var sum float64
			for i := range b.N {
				r.Seed(int64(i))
				for range 24 {
					sum += r.NormFloat64()
				}
			}
			if math.IsNaN(sum) {
				b.Fatal("NaN noise")
			}
		})
	}
}
