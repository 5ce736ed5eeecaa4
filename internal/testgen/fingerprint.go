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

// Fingerprint returns a 64-bit structural hash of the test: the sequence
// length, every vector as two words (address and op, then data) and the
// exact condition triple (bit-level, via math.Float64bits). The Name is
// deliberately excluded — two tests with identical vectors and conditions
// measure the same physics no matter what the generator called them —
// which is what makes the fingerprint usable as a measurement memo-cache
// key. Callers caching across dies or parameters must scope the cache (or
// mix die and parameter into the key) themselves.
func (t Test) Fingerprint() uint64 {
	h := Mix(MixOffset, uint64(len(t.Seq)))
	for _, v := range t.Seq {
		h = Mix(h, uint64(v.Addr)|uint64(v.Op)<<32)
		h = Mix(h, uint64(v.Data))
	}
	h = Mix(h, math.Float64bits(t.Cond.VddV))
	h = Mix(h, math.Float64bits(t.Cond.TempC))
	return Mix(h, math.Float64bits(t.Cond.ClockMHz))
}
