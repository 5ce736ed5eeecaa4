// Package randstream holds the one copy of math/rand's generator stream
// that the random test generator and the tester's measurement noise draw
// from. Every golden run ID pins that stream, so Source reproduces
// rand.New(rand.NewSource(seed)) value for value; it differs only in cost.
package randstream

import "math/rand"

// Source yields exactly the stream of math/rand's rand.NewSource(seed),
// but seeds in O(1). rand.NewSource's Seed fills its whole 607-word
// register with 1,841 Park–Miller steps, while a die screen then draws only
// a couple of dozen noise values. Here Seed only records the Park–Miller
// start value, and each of the first draws after it builds the register
// words it is the first to read: table multipliers jump straight to the
// three Park–Miller values a word uses. Draw k builds its feed word when
// k ≤ 334 and its tap word when k ≤ 273; every later draw reads words an
// earlier one built, so past draw 334 one predictable branch is all that
// remains of the lazy seeding. Taking a Cursor builds the remaining words
// at once. Int63, Uint64 and Seed make a Source a rand.Source64 for
// rand.New (the tester's NormFloat64).
type Source struct {
	tap, feed int
	drawn     int   // draws since Seed, counted up to rngLen-rngTap
	x0        int64 // normalised seed: Park–Miller x_0
	vec       [rngLen]int64
}

const (
	rngLen = 607 // register words of math/rand's lagged Fibonacci generator
	rngTap = 273 // its feedback tap
	pmMod  = 1<<31 - 1
	pmMul  = 48271
)

var (
	// seedJump[i][k] is pmMul^(21+3i+k) mod pmMod: word i's Park–Miller
	// values are x_0 · seedJump[i][k] mod pmMod, three independent
	// products.
	seedJump [rngLen][3]int64
	// seedCooked is math/rand's rngCooked table, XORed into every seeded
	// word.
	seedCooked [rngLen]int64
)

// init derives seedCooked from math/rand itself. Seed 1 makes word i's
// Park–Miller values seedJump[i]. The first 607 draws overwrite every
// register word exactly once, so undoing their additions in reverse order
// recovers the seeded register, and XORing off the Park–Miller part leaves
// rngCooked.
func init() {
	src := rand.NewSource(1).(rand.Source64)
	var vec [rngLen]int64
	tap, feed := 0, rngLen-rngTap
	for range rngLen {
		tap, feed = (tap+rngLen-1)%rngLen, (feed+rngLen-1)%rngLen
		vec[feed] = int64(src.Uint64())
	}
	for range rngLen {
		vec[feed] -= vec[tap]
		tap, feed = (tap+1)%rngLen, (feed+1)%rngLen
	}
	x := int64(1)
	for range 21 {
		x = x * pmMul % pmMod
	}
	for i := range rngLen {
		for k := range 3 {
			seedJump[i][k] = x
			x = x * pmMul % pmMod
		}
	}
	// seedCooked is still zero here, so seeded(i) is the Park–Miller part.
	one := Source{x0: 1}
	for i := range rngLen {
		seedCooked[i] = vec[i] ^ one.seeded(i)
	}
}

// New returns a source at rand.NewSource(seed)'s first value.
func New(seed int64) *Source {
	s := new(Source)
	s.Seed(seed)
	return s
}

// Seed restarts the stream at rand.NewSource(seed)'s first value and voids
// any cursor taken before.
func (s *Source) Seed(seed int64) {
	s.tap, s.feed = 0, rngLen-rngTap
	seed %= pmMod
	if seed < 0 {
		seed += pmMod
	}
	if seed == 0 {
		seed = 89482311
	}
	s.x0 = seed
	s.drawn = 0
}

// Uint64 returns the next value of the stream, as rand.Source64 does.
func (s *Source) Uint64() uint64 {
	if s.drawn < rngLen-rngTap {
		s.build()
	}
	c := Cursor{&s.vec, s.tap, s.feed}
	x := c.next()
	s.tap, s.feed = c.tap, c.feed
	return x
}

// build seeds the register words draw k = drawn+1 is the first to read:
// its feed word 334−k and, for k ≤ 273, its tap word 607−k. No draw has
// read or written a word before the draw that builds it, so a word may be
// built ahead of its draw.
func (s *Source) build() {
	k := s.drawn + 1
	s.vec[rngLen-rngTap-k] = s.seeded(rngLen - rngTap - k)
	if k <= rngTap {
		s.vec[rngLen-k] = s.seeded(rngLen - k)
	}
	s.drawn = k
}

// seeded returns register word i as Seed leaves it in math/rand.
func (s *Source) seeded(i int) int64 {
	j := &seedJump[i]
	return pmReduce(s.x0*j[0])<<40 ^ pmReduce(s.x0*j[1])<<20 ^ pmReduce(s.x0*j[2]) ^ seedCooked[i]
}

// pmReduce returns x mod 2^31−1 for 0 ≤ x < (2^31−1)^2 by the Mersenne
// fold: 2^31 ≡ 1, so x ≡ x>>31 + x&(2^31−1), which is below 2·(2^31−1).
func pmReduce(x int64) int64 {
	x = x>>31 + x&pmMod
	if x >= pmMod {
		x -= pmMod
	}
	return x
}

// Int63 returns the next value of the stream without its sign bit, as
// rand.Source does.
func (s *Source) Int63() int64 { return int64(s.Uint64() &^ (1 << 63)) }

// Cursor returns a cursor that continues the stream where the source
// stands, building first, in one pass, every register word the lazy
// seeding has yet to build: the feed words below 334−drawn and, before
// draw 273, the tap words from 334 up to 607−drawn. The source must not
// draw again until Resume hands the cursor's position back: the cursor
// owns the register.
func (s *Source) Cursor() Cursor {
	if d := s.drawn; d < rngLen-rngTap {
		for i := range rngLen - rngTap - d {
			s.vec[i] = s.seeded(i)
		}
		for i := rngLen - rngTap; i < rngLen-d; i++ {
			s.vec[i] = s.seeded(i)
		}
		s.drawn = rngLen - rngTap
	}
	return Cursor{&s.vec, s.tap, s.feed}
}

// Resume continues the source's stream where c, a cursor taken from it
// since its last Seed, stands. c must not draw again.
func (s *Source) Resume(c Cursor) { s.tap, s.feed = c.tap, c.feed }

// A Cursor draws a Source's stream through concrete methods that
// reproduce *rand.Rand's Float64, NormFloat64, Uint32 and Intn. It is the
// register pointer and the two register indices, so a loop can copy a
// cursor into a local variable and store it back when done; the cursor's
// Float64 and Uint32 inline, so the loop then draws them without a
// function call, and the compiler need not spill the loop's other
// variables around one.
type Cursor struct {
	vec       *[rngLen]int64
	tap, feed int
}

// next returns the next value of the stream: math/rand's lagged Fibonacci
// step.
func (c *Cursor) next() uint64 {
	c.tap--
	if c.tap < 0 {
		c.tap += rngLen
	}
	c.feed--
	if c.feed < 0 {
		c.feed += rngLen
	}
	x := c.vec[c.feed] + c.vec[c.tap]
	c.vec[c.feed] = x
	return uint64(x)
}

// int63 returns the next value of the stream without its sign bit.
func (c *Cursor) int63() int64 { return int64(c.next() &^ (1 << 63)) }

// Uint32 returns what (*rand.Rand).Uint32 does.
func (c *Cursor) Uint32() uint32 { return uint32(c.int63() >> 31) }

// Float64 returns what (*rand.Rand).Float64 does: a value in [0, 1),
// drawing again when the division rounds up to 1.
func (c *Cursor) Float64() float64 {
	for {
		if f := float64(c.int63()) / (1 << 63); f != 1 {
			return f
		}
	}
}

// Intn returns what (*rand.Rand).Intn does: a value in [0, n) by
// Int31n's rejection up to 2^31−1 and by Int63n's above. It panics if
// n <= 0.
func (c *Cursor) Intn(n int) int {
	if n <= 0 {
		panic("randstream: invalid argument to Intn")
	}
	if n <= 1<<31-1 {
		return int(c.int31n(int32(n)))
	}
	return int(c.int63n(int64(n)))
}

// int31n is (*rand.Rand).Int31n for n > 0.
func (c *Cursor) int31n(n int32) int32 {
	if n&(n-1) == 0 {
		return int32(c.int63()>>32) & (n - 1)
	}
	max := int32(1<<31 - 1 - (1<<31)%uint32(n))
	v := int32(c.int63() >> 32)
	for v > max {
		v = int32(c.int63() >> 32)
	}
	return v % n
}

// int63n is (*rand.Rand).Int63n for n > 0.
func (c *Cursor) int63n(n int64) int64 {
	if n&(n-1) == 0 {
		return c.int63() & (n - 1)
	}
	max := int64(1<<63 - 1 - (1<<63)%uint64(n))
	v := c.int63()
	for v > max {
		v = c.int63()
	}
	return v % n
}
