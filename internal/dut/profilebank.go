package dut

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/testgen"
)

// ProfileBank shares pattern executions across the dies of a lot.
//
// The load-bearing physical fact (visible in Memory.Execute): the switching
// activity a sequence provokes — and its functional result — depend on the
// vector sequence and the array geometry only, never on the die, *unless*
// the die hosts weak cells (whose corruption is supply-dependent). Die
// variation enters later, in the parametric physics that map Activity onto
// T_DQ/Fmax/Vddmin. So when a lot screens ten thousand dies with the same
// worst-case test set, the expensive part — executing each pattern cycle by
// cycle — is identical for every weak-cell-free die and can be computed
// once per sequence instead of once per (die × sequence).
//
// Profile serves exactly that: for a clean die it stitches the banked
// Activity/FunctionalResult to the device's own die and physics; for a die
// with weak cells it falls back to a full per-die execution, preserving
// bit-exact corruption behaviour.
//
// A ProfileBank is safe for concurrent use. A clean-die hit takes one read
// lock and atomic counters, so workers sharing a bank do not serialize on
// it; concurrent misses of the same sequence may both execute it,
// idempotently. Sequences profiled through a bank must not be mutated in
// place afterwards: the bank memoizes each sequence's fingerprint by
// backing-array identity, so an in-place rewrite would alias a stale key. (Lot screening — the bank's only producer —
// holds its test set immutable for the whole lot, and generator/GA code
// always clones before mutating.)
type ProfileBank struct {
	geom Geometry
	phys Physics

	mu      sync.RWMutex
	entries map[uint64]bankEntry
	// fps memoizes Sequence.Fingerprint by slice identity. Screening a lot
	// calls Profile once per (die × test) with the same handful of test
	// slices; without the memo, re-hashing a multi-thousand-vector sequence
	// per call dominates the clean-die fast path.
	fps map[seqIdent]uint64

	hits, computed, bypassed atomic.Int64
}

// seqIdent identifies a sequence by its backing array: same first-element
// pointer and length ⇒ same (unmutated) vectors.
type seqIdent struct {
	first *testgen.Vector
	n     int
}

// bankEntry is one banked execution: everything Execute produces that is
// die-independent.
type bankEntry struct {
	act Activity
	fn  FunctionalResult
}

// NewProfileBank returns an empty bank for the given geometry and physics.
// Devices profiled through the bank must share both.
func NewProfileBank(geom Geometry, phys Physics) (*ProfileBank, error) {
	if err := geom.Validate(); err != nil {
		return nil, err
	}
	return &ProfileBank{
		geom:    geom,
		phys:    phys,
		entries: make(map[uint64]bankEntry),
		fps:     make(map[seqIdent]uint64),
	}, nil
}

// refDie is the clean reference die bank executions run against. Its
// process factors are irrelevant — Execute never reads them — but it must
// carry no weak cells.
var refDie = NewDie(-1, CornerTypical)

// Profile returns the test's profile for the device, sharing the pattern
// execution across dies when the die is weak-cell-free. The result is
// bit-identical to dev.Profile(t).
func (b *ProfileBank) Profile(dev *Device, t testgen.Test) (Profile, error) {
	if dev.Die().WeakCellCount() > 0 || dev.Geometry() != b.geom {
		// Weak cells make execution supply- and die-dependent; a foreign
		// geometry makes the banked activity wrong. Full per-die path.
		b.bypassed.Add(1)
		return dev.Profile(t)
	}
	// An empty sequence has no backing array to identify it by; the zero
	// seqIdent stands for all of them, which share one fingerprint.
	var id seqIdent
	if len(t.Seq) > 0 {
		id = seqIdent{first: &t.Seq[0], n: len(t.Seq)}
	}
	b.mu.RLock()
	key, known := b.fps[id]
	e, ok := b.entries[key]
	b.mu.RUnlock()
	if !known {
		key = t.Seq.Fingerprint()
		b.mu.Lock()
		b.fps[id] = key
		e, ok = b.entries[key]
		b.mu.Unlock()
	}
	if ok {
		// A banked entry under this key means the identical sequence already
		// validated and executed; skip both.
		b.hits.Add(1)
	} else {
		if err := t.Seq.Validate(b.geom.Words()); err != nil {
			return Profile{}, fmt.Errorf("dut: profiling %s: %w", t.Name, err)
		}
		mem, err := NewMemory(b.geom, refDie)
		if err != nil {
			return Profile{}, err
		}
		// Supply is irrelevant without weak cells; pass the test's own so a
		// future observer hook sees faithful conditions.
		act, fn := mem.Execute(t.Seq, t.Cond.VddV)
		e = bankEntry{act: act, fn: fn}
		b.mu.Lock()
		b.entries[key] = e
		b.mu.Unlock()
		b.computed.Add(1)
	}
	return Profile{Test: t, Act: e.act, Func: e.fn, die: dev.Die(), phys: dev.Physics()}, nil
}

// Len returns the number of banked sequences.
func (b *ProfileBank) Len() int {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return len(b.entries)
}

// Hits returns how many Profile calls reused a banked execution.
func (b *ProfileBank) Hits() int64 { return b.hits.Load() }

// Computed returns how many sequences were executed into the bank.
func (b *ProfileBank) Computed() int64 { return b.computed.Load() }

// Bypassed returns how many Profile calls fell back to the per-die path
// (weak cells or geometry mismatch).
func (b *ProfileBank) Bypassed() int64 { return b.bypassed.Load() }
