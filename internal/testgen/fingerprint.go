package testgen

import "math"

// MixOffset is the start of every content hash built with Mix (the FNV-1a
// 64-bit offset basis).
const MixOffset uint64 = 14695981039346656037

// mixPrime is the FNV 64-bit prime. It is odd, so multiplying by it is a
// bijection mod 2^64.
const mixPrime uint64 = 1099511628211

// Mix folds one 64-bit word into a running content hash. Its three steps —
// the xor with v, the multiply by an odd prime and the xorshift — are each
// a bijection of the state, so two word streams of one length that differ
// in exactly one word always hash differently. It is the one mix of the
// program's content hashes: test and die fingerprints, the lot cache keys
// and the memo-cache scope.
func Mix(h, v uint64) uint64 {
	h = (h ^ v) * mixPrime
	return h ^ h>>29
}

// laneStart1, laneStart2 and laneStart3 start lanes 1–3 of Fingerprint's
// vector hash (lane 0 starts from the length word): the FNV offset basis
// plus one, two and three times the 64-bit golden ratio 0x9e3779b97f4a7c15,
// mod 2^64, so no two lanes begin in the same state.
const (
	laneStart1 uint64 = 0x6a2a169e036c9f3a
	laneStart2 uint64 = 0x0861905782b71b4f
	laneStart3 uint64 = 0xa6990a1102019764
)

// Fingerprint returns a 64-bit structural hash of the test: the sequence
// length, every vector as two words (address and op, then data) and the
// exact condition triple (bit-level, via math.Float64bits). The Name is
// deliberately excluded — two tests with identical vectors and conditions
// measure the same physics no matter what the generator called them —
// which is what makes the fingerprint usable as a measurement memo-cache
// key. Callers caching across dies or parameters must scope the cache (or
// mix die and parameter into the key) themselves.
//
// The vector words run in four independent Mix chains, word k of the
// stream going to lane k mod 4 (an even vector to lanes 0 and 1, an odd one
// to lanes 2 and 3), so consecutive words do not wait on each other's
// multiply. Lane 0 starts from the length word. The lanes then fold into
// one hash with Mix, in lane order, before the condition words. Every step
// is still a bijection in the one word or state a single-word edit
// changes, so such an edit always changes the fingerprint.
func (t Test) Fingerprint() uint64 {
	h0 := Mix(MixOffset, uint64(len(t.Seq)))
	h1, h2, h3 := laneStart1, laneStart2, laneStart3
	seq := t.Seq
	for ; len(seq) >= 2; seq = seq[2:] {
		h0 = Mix(h0, uint64(seq[0].Addr)|uint64(seq[0].Op)<<32)
		h1 = Mix(h1, uint64(seq[0].Data))
		h2 = Mix(h2, uint64(seq[1].Addr)|uint64(seq[1].Op)<<32)
		h3 = Mix(h3, uint64(seq[1].Data))
	}
	if len(seq) == 1 {
		h0 = Mix(h0, uint64(seq[0].Addr)|uint64(seq[0].Op)<<32)
		h1 = Mix(h1, uint64(seq[0].Data))
	}
	h := Mix(Mix(Mix(h0, h1), h2), h3)
	h = Mix(h, math.Float64bits(t.Cond.VddV))
	h = Mix(h, math.Float64bits(t.Cond.TempC))
	return Mix(h, math.Float64bits(t.Cond.ClockMHz))
}
