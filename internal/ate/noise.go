package ate

import "math/rand"

// noiseSource is the tester's measurement-noise source. It yields exactly
// the stream of math/rand's rand.NewSource(seed) — every golden run ID
// pins that stream — but seeds in O(1). rand.NewSource's Seed fills its
// whole 607-word register with 1,841 Park–Miller steps, while a die
// screen then draws only a couple of dozen noise values. Here Seed only
// records the Park–Miller start value, and register word i is built on its
// first touch: a table multiplier jumps straight to the three Park–Miller
// values that word uses.
type noiseSource struct {
	tap, feed int
	x0        int64                        // normalised seed: Park–Miller x_0
	built     [(noiseLen + 63) / 64]uint64 // register words built since Seed
	vec       [noiseLen]int64
}

const (
	noiseLen = 607 // register words of math/rand's lagged Fibonacci generator
	noiseTap = 273 // its feedback tap
	pmMod    = 1<<31 - 1
	pmMul    = 48271
	pmMul3   = pmMul * pmMul % pmMod * pmMul % pmMod
)

var (
	// noiseJump[i] is pmMul^(21+3i) mod pmMod: word i's first Park–Miller
	// value is x_0 · noiseJump[i] mod pmMod.
	noiseJump [noiseLen]int64
	// noiseCooked is math/rand's rngCooked table, XORed into every seeded
	// word.
	noiseCooked [noiseLen]int64
)

// init derives noiseCooked from math/rand itself. Seed 1 makes word i's
// first Park–Miller value noiseJump[i]. The first 607 draws overwrite every
// register word exactly once, so undoing their additions in reverse order
// recovers the seeded register, and XORing off the Park–Miller part leaves
// rngCooked.
func init() {
	src := rand.NewSource(1).(rand.Source64)
	var vec [noiseLen]int64
	tap, feed := 0, noiseLen-noiseTap
	for range noiseLen {
		tap, feed = (tap+noiseLen-1)%noiseLen, (feed+noiseLen-1)%noiseLen
		vec[feed] = int64(src.Uint64())
	}
	for range noiseLen {
		vec[feed] -= vec[tap]
		tap, feed = (tap+1)%noiseLen, (feed+1)%noiseLen
	}
	x := int64(1)
	for range 21 {
		x = x * pmMul % pmMod
	}
	for i := range noiseLen {
		noiseJump[i] = x
		noiseCooked[i] = vec[i] ^ parkMillerWord(x)
		x = x * pmMul3 % pmMod
	}
}

// parkMillerWord packs the three consecutive Park–Miller values starting at
// x into one register word, as math/rand's seeding does.
func parkMillerWord(x int64) int64 {
	x1 := x * pmMul % pmMod
	x2 := x1 * pmMul % pmMod
	return x<<40 ^ x1<<20 ^ x2
}

func newNoiseSource(seed int64) *noiseSource {
	s := new(noiseSource)
	s.Seed(seed)
	return s
}

// Seed restarts the stream at rand.NewSource(seed)'s first value.
func (s *noiseSource) Seed(seed int64) {
	s.tap, s.feed = 0, noiseLen-noiseTap
	seed %= pmMod
	if seed < 0 {
		seed += pmMod
	}
	if seed == 0 {
		seed = 89482311
	}
	s.x0 = seed
	s.built = [len(s.built)]uint64{}
}

// word returns register word i, building it on its first touch since Seed.
func (s *noiseSource) word(i int) int64 {
	if bit := uint64(1) << (i % 64); s.built[i/64]&bit == 0 {
		s.built[i/64] |= bit
		s.vec[i] = parkMillerWord(s.x0*noiseJump[i]%pmMod) ^ noiseCooked[i]
	}
	return s.vec[i]
}

func (s *noiseSource) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += noiseLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += noiseLen
	}
	x := s.word(s.feed) + s.word(s.tap)
	s.vec[s.feed] = x
	return uint64(x)
}

func (s *noiseSource) Int63() int64 { return int64(s.Uint64() &^ (1 << 63)) }
