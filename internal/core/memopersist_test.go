package core

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/cachestore"
)

// TestMemoCachePersistRoundTrip: the memo-cache an optimization leaves
// behind, persisted and primed into a fresh Characterizer for the same
// flow, reproduces that optimization without a single GA measurement —
// every fitness lookup is a hit — and the persisted segment bytes depend
// only on the cache's content, not on map iteration order.
func TestMemoCachePersistRoundTrip(t *testing.T) {
	cfg := quickConfig(91)
	cfg.Parallelism = 2
	optimize := func(primeFrom *cachestore.Store) (*Characterizer, *OptimizationResult) {
		t.Helper()
		char, err := NewCharacterizer(cfg, newTester(t, cfg.Seed))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(char.Close)
		if primeFrom != nil {
			if n, stored := char.PrimeMemoCache(primeFrom), storeEntries(primeFrom); n != stored {
				t.Fatalf("primed %d entries from a store of %d", n, stored)
			}
		}
		if _, err := char.Learn(); err != nil {
			t.Fatal(err)
		}
		opt, err := char.Optimize()
		if err != nil {
			t.Fatal(err)
		}
		return char, opt
	}
	persist := func(char *Characterizer, dir string) []byte {
		t.Helper()
		store, err := cachestore.Open(dir, char.MemoCacheScope())
		if err != nil {
			t.Fatal(err)
		}
		n, err := char.PersistMemoCache(store)
		if err != nil {
			t.Fatal(err)
		}
		if stored := storeEntries(store); n == 0 || n != stored {
			t.Fatalf("persisted %d entries into a store of %d", n, stored)
		}
		segs, err := filepath.Glob(filepath.Join(dir, "seg-*"))
		if err != nil || len(segs) != 1 {
			t.Fatalf("persist wrote segments %v (%v), want one", segs, err)
		}
		data, err := os.ReadFile(segs[0])
		if err != nil {
			t.Fatal(err)
		}
		return data
	}

	cold, coldOpt := optimize(nil)
	dir := t.TempDir()
	seg := persist(cold, dir)
	if again := persist(cold, t.TempDir()); !bytes.Equal(seg, again) {
		t.Error("persisting the same memo-cache twice wrote different segment bytes")
	}

	store, err := cachestore.Open(dir, cold.MemoCacheScope())
	if err != nil {
		t.Fatal(err)
	}
	_, warmOpt := optimize(store)

	coldWorst, ok := coldOpt.Database.Worst()
	if !ok {
		t.Fatal("cold optimization banked no worst-case test")
	}
	warmWorst, ok := warmOpt.Database.Worst()
	if !ok {
		t.Fatal("primed optimization banked no worst-case test")
	}
	if warmWorst.Test.Fingerprint() != coldWorst.Test.Fingerprint() || warmWorst.WCR != coldWorst.WCR {
		t.Errorf("primed worst test %s (WCR %g), cold %s (WCR %g)",
			warmWorst.Test.Name, warmWorst.WCR, coldWorst.Test.Name, coldWorst.WCR)
	}
	if !reflect.DeepEqual(warmOpt.GA.BestHistory, coldOpt.GA.BestHistory) {
		t.Errorf("primed GA best history %v, cold %v", warmOpt.GA.BestHistory, coldOpt.GA.BestHistory)
	}
	if warmOpt.Measurements != 0 {
		t.Errorf("primed optimization spent %d GA measurements, want 0", warmOpt.Measurements)
	}
	lookups := coldOpt.CacheHits + coldOpt.CacheMisses
	if warmOpt.CacheMisses != 0 || warmOpt.CacheHits != lookups {
		t.Errorf("primed lookups: %d hits / %d misses, want all %d hits",
			warmOpt.CacheHits, warmOpt.CacheMisses, lookups)
	}
}

// A memo store written under this flow's TPV1 scope, whose fingerprints
// hashed a test's vectors in one Mix chain, primes nothing: its fitness
// values are keyed by fingerprints no lookup computes any more, so the run
// measures as cold.
func TestMemoStoreUnderEarlierScopePrimesNothing(t *testing.T) {
	const tpv1Scope uint64 = 0xb2bdc0437064480d // MemoCacheScope of quickConfig(91) under TPV1
	cfg := quickConfig(91)
	char, err := NewCharacterizer(cfg, newTester(t, cfg.Seed))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(char.Close)
	if _, err := char.Learn(); err != nil {
		t.Fatal(err)
	}
	if _, err := char.Optimize(); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	old, err := cachestore.Open(dir, tpv1Scope)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := char.PersistMemoCache(old); err != nil || n == 0 {
		t.Fatalf("persisted %d entries under the TPV1 scope (%v), want some", n, err)
	}

	fresh, err := NewCharacterizer(cfg, newTester(t, cfg.Seed))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fresh.Close)
	store, err := cachestore.Open(dir, fresh.MemoCacheScope())
	if err != nil {
		t.Fatal(err)
	}
	if n := fresh.PrimeMemoCache(store); n != 0 {
		t.Errorf("primed %d entries from a store under the TPV1 scope, want 0", n)
	}
	if st := store.Stats(); st.SkippedSegments != 1 {
		t.Errorf("store stats %+v, want the TPV1 segment skipped", st)
	}
}

// storeEntries counts the store's float64 entries.
func storeEntries(store *cachestore.Store) int {
	n := 0
	store.RangeFloat64(func(uint64, float64) bool {
		n++
		return true
	})
	return n
}
