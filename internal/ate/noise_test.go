package ate

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/dut"
)

// noiseTestSeeds returns the edge seeds of math/rand's seed normalisation
// (zero, its 89482311 stand-in, ± multiples of 2^31−1 and their
// neighbours, the int64 extremes) followed by n ordinary seeds: a run of
// consecutive small ones, like baseSeed+dieID, and a spread over all of
// int64.
func noiseTestSeeds(n int) []int64 {
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

// draw takes the k-th of a cycle of mixed draws from r. NormFloat64
// consumes a variable number of source values, so the cycle walks the
// register at an uneven pace.
func draw(r *rand.Rand, k int) uint64 {
	switch k % 4 {
	case 0:
		return math.Float64bits(r.NormFloat64())
	case 1:
		return math.Float64bits(r.Float64())
	case 2:
		return uint64(r.Int63())
	}
	return r.Uint64()
}

func TestNoiseSourceMatchesMathRand(t *testing.T) {
	// 1,500 draws run past one 607-word wrap of the register. reused is
	// re-seeded in place after the previous seed's draws.
	const draws = 1500
	reused := rand.New(newNoiseSource(7))
	for _, seed := range noiseTestSeeds(5000) {
		want := rand.New(rand.NewSource(seed))
		fresh := rand.New(newNoiseSource(seed))
		reused.Seed(seed)
		for k := range draws {
			w := draw(want, k)
			if got := draw(fresh, k); got != w {
				t.Fatalf("seed %d draw %d: fresh source %#x, math/rand %#x", seed, k, got, w)
			}
			if got := draw(reused, k); got != w {
				t.Fatalf("seed %d draw %d: re-seeded source %#x, math/rand %#x", seed, k, got, w)
			}
		}
	}
}

func TestReseedDoesNotAllocate(t *testing.T) {
	dev, err := dut.NewDevice(dut.DefaultGeometry(), dut.NewDie(1, dut.CornerTypical))
	if err != nil {
		t.Fatal(err)
	}
	a := New(dev, 1)
	a.Heating = DefaultThermal()
	seed := int64(0)
	if allocs := testing.AllocsPerRun(100, func() { seed++; a.Reseed(seed) }); allocs != 0 {
		t.Errorf("Reseed allocates %v times per call", allocs)
	}
}

// BenchmarkReseedNoise is one die's noise bill: a reseed and the couple of
// dozen gaussian draws a die screen takes.
func BenchmarkReseedNoise(b *testing.B) {
	for _, bc := range []struct {
		name string
		src  rand.Source
	}{
		{"source=noise", newNoiseSource(1)},
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
