package testgen

import "math"

// FNVOffset is the FNV-1a 64-bit offset basis, the start of every content
// hash built with FNVMix.
const FNVOffset uint64 = 14695981039346656037

const fnvPrime uint64 = 1099511628211

func fnvByte(h uint64, b byte) uint64 {
	return (h ^ uint64(b)) * fnvPrime
}

func fnvUint32(h uint64, v uint32) uint64 {
	h = fnvByte(h, byte(v))
	h = fnvByte(h, byte(v>>8))
	h = fnvByte(h, byte(v>>16))
	return fnvByte(h, byte(v>>24))
}

// FNVMix folds one 64-bit word into a running FNV-1a 64 hash, byte-wise
// little-endian. It is the one mix of the program's content hashes: test
// and die fingerprints, the lot cache keys and the memo-cache scope.
func FNVMix(h, v uint64) uint64 {
	h = fnvUint32(h, uint32(v))
	return fnvUint32(h, uint32(v>>32))
}

// Fingerprint hashes the sequence structure with FNV-1a.
func (s Sequence) Fingerprint() uint64 {
	h := FNVMix(FNVOffset, uint64(len(s)))
	for _, v := range s {
		h = fnvByte(h, byte(v.Op))
		h = fnvUint32(h, v.Addr)
		h = fnvUint32(h, v.Data)
	}
	return h
}

// Fingerprint hashes the exact condition triple (bit-level, via
// math.Float64bits) with FNV-1a.
func (c Conditions) Fingerprint() uint64 {
	h := FNVMix(FNVOffset, math.Float64bits(c.VddV))
	h = FNVMix(h, math.Float64bits(c.TempC))
	return FNVMix(h, math.Float64bits(c.ClockMHz))
}

// Fingerprint returns a 64-bit structural hash of the test: every vector of
// the sequence plus the exact condition triple. The Name is deliberately
// excluded — two tests with identical vectors and conditions measure the
// same physics no matter what the generator called them — which is what
// makes the fingerprint usable as a measurement memo-cache key. Callers
// caching across dies or parameters must scope the cache (or mix die and
// parameter into the key) themselves.
func (t Test) Fingerprint() uint64 {
	h := t.Seq.Fingerprint()
	return h*fnvPrime ^ t.Cond.Fingerprint()
}
