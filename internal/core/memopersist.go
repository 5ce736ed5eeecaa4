package core

import (
	"fmt"
	"slices"

	"repro/internal/cachestore"
	"repro/internal/testgen"
)

// Persistence for the optimization memo-cache: the GA's fitness values
// (test-fingerprint → WCR) survive the process, so a re-run of the same
// flow serves its measurements from disk. Values are only valid for the
// exact flow that produced them — parameter, geometry, die and seed all
// shift the measured trip points — so they persist under a scope derived
// from that content: a store opened for a different flow skips the
// segments entirely instead of mixing incompatible values.

// memoScopeTag versions the float64 memo-record family; bump alongside any
// change to what the values mean.
const memoScopeTag uint64 = 0x54505632 // "TPV2"

// MemoCacheScope returns the cachestore scope binding persisted memo
// entries to this flow's content: parameter, device geometry, die identity
// and seed.
func (c *Characterizer) MemoCacheScope() uint64 {
	geom := c.ate.Device().Geometry()
	h := testgen.Mix(testgen.MixOffset, memoScopeTag)
	h = testgen.Mix(h, uint64(c.cfg.Parameter))
	h = testgen.Mix(h, uint64(geom.Banks))
	h = testgen.Mix(h, uint64(geom.Rows))
	h = testgen.Mix(h, uint64(geom.Cols))
	h = testgen.Mix(h, c.ate.Device().Die().Fingerprint())
	h = testgen.Mix(h, uint64(c.cfg.Seed))
	return h
}

// PrimeMemoCache preloads every persisted fitness value from the store
// into the next Optimize run's memo-cache and returns how many entries it
// took. Because the store scope binds the flow content, a fully primed run
// reproduces the cold run's results bit for bit while measuring only what
// the cold run never saw. No-op (0) with a nil store or the cache
// disabled.
func (c *Characterizer) PrimeMemoCache(store *cachestore.Store) int {
	if store == nil || c.cfg.DisableMeasurementCache {
		return 0
	}
	if c.primed == nil {
		c.primed = map[uint64]float64{}
	}
	n := 0
	store.RangeFloat64(func(key uint64, value float64) bool {
		c.primed[key] = value
		n++
		return true
	})
	return n
}

// PersistMemoCache writes the most recent optimization's memo-cache into
// the store (8-byte float records via the cachestore float64 helpers, keys
// sorted so segment bytes are deterministic) and flushes. Returns the
// number of live cache entries. No-op with a nil store or before any
// optimization ran.
func (c *Characterizer) PersistMemoCache(store *cachestore.Store) (int, error) {
	if store == nil || c.lastEval == nil || c.lastEval.cache == nil {
		return 0, nil
	}
	keys := make([]uint64, 0, len(c.lastEval.cache))
	for k := range c.lastEval.cache {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		store.PutFloat64(k, c.lastEval.cache[k])
	}
	if _, err := store.Flush(); err != nil {
		return 0, fmt.Errorf("core: persisting memo cache: %w", err)
	}
	return len(keys), nil
}
