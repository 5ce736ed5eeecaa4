// Package cachestore persists measurement memo-caches across process
// lifetimes: a content-addressed key/value store whose on-disk form is a
// directory of immutable, CRC-checked, append-only segment files. A fab
// floor re-running a lot (or a characterization flow re-run with the same
// seed) opens the same cache directory and serves the bulk of its
// measurements from disk instead of burning ATE time again.
//
// On-disk format. A segment file is
//
//	header : magic "RPROCST1" (8 bytes) + scope (8 bytes, little-endian)
//	records: key (8 LE) + value length (4 LE) + value bytes + CRC-32 (4 LE)
//
// where the CRC (IEEE) covers the record's key, length and value bytes.
// Records only ever get appended; a segment is written once to a temporary
// file and published with an atomic rename, so readers never observe a
// half-written segment under POSIX rename semantics. Flush writes only the
// entries added since Open (one new segment per flush, numbered after the
// existing ones); loading replays segments in filename order, later
// segments overriding earlier keys.
//
// The scope tags which logical cache a segment belongs to (parameter,
// geometry, seed, flow — whatever the caller folds into the 64-bit value).
// Open skips segments of other scopes, so several flows can share one
// -cache-dir without poisoning each other's keys.
//
// Corruption policy: a segment whose magic, record framing or CRC does not
// check out fails Open with an error naming the file and the byte offset
// of the first bad record. Callers that prefer running cold to failing
// (the CLIs) log the error and proceed without a store.
//
// Memory: Open reads each segment into one buffer and the loaded values
// share it — no per-record copy. A segment's buffer stays alive while any
// value loaded from it is still in the store (or held by a caller of Get
// or Range). Stored values are never modified in place; Put installs a
// fresh copy, so a slice a caller already holds never changes.
package cachestore

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// magic identifies (and versions) the segment format.
const magic = "RPROCST1"

// headerSize is the fixed segment prefix: magic + scope.
const headerSize = 16

// recordOverhead is the fixed per-record framing cost: key + length + CRC.
const recordOverhead = 16

// maxValueLen bounds a single record's value so a corrupt length field
// cannot trigger a multi-gigabyte allocation during load.
const maxValueLen = 1 << 20

// segPattern matches the segment files a store owns.
const segSuffix = ".seg"

// Stats are the store's lifetime counters since Open.
type Stats struct {
	// LoadedEntries is the number of distinct keys loaded from disk
	// (after later-segment overrides).
	LoadedEntries int64
	// LoadedSegments and SkippedSegments count segment files read and
	// segment files ignored because their scope differs.
	LoadedSegments  int64
	SkippedSegments int64
	// Hits and Misses count Get outcomes.
	Hits   int64
	Misses int64
	// FlushedEntries is the number of records written by Flush calls.
	FlushedEntries int64
	// BytesOnDisk is the total size of this scope's segment files, updated
	// at Open and after every Flush.
	BytesOnDisk int64
}

// Store is one open cache directory scoped to a single logical cache. It
// is safe for concurrent use: lookups share a read lock, so Get on many
// goroutines does not serialize behind itself, only behind Put and Flush.
// Hit and miss counts stay deterministic as long as no key is looked up
// concurrently with its own insertion; segment bytes as long as Puts come
// in a deterministic order.
type Store struct {
	dir   string
	scope uint64

	mu    sync.RWMutex
	m     map[uint64][]byte
	dirty []uint64 // keys added/changed since the last Flush, insertion order
	isDir map[uint64]bool
	stats Stats // Hits and Misses live in the atomics below
	seq   int   // next segment sequence number

	hits, misses atomic.Int64
}

// Open loads every matching-scope segment in dir (creating dir when
// missing) and returns the store. A corrupt segment aborts the open with
// an error naming the file and byte offset; the returned store is nil.
func Open(dir string, scope uint64) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("cachestore: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("cachestore: creating %s: %w", dir, err)
	}
	s := &Store{dir: dir, scope: scope}
	names, err := segmentNames(dir)
	if err != nil {
		return nil, err
	}
	var (
		segs    [][]byte // validated segments of this scope, in load order
		records int
	)
	for _, name := range names {
		if seq, ok := segmentSeq(name); ok && seq >= s.seq {
			s.seq = seq + 1
		}
		raw, n, err := readSegment(filepath.Join(dir, name), scope)
		if err != nil {
			return nil, err
		}
		if raw == nil {
			s.stats.SkippedSegments++
			continue
		}
		segs = append(segs, raw)
		records += n
		s.stats.LoadedSegments++
		s.stats.BytesOnDisk += int64(len(raw))
	}
	// Later segments override earlier keys, so the record count bounds the
	// distinct keys: the maps never grow during the load.
	s.m = make(map[uint64][]byte, records)
	s.isDir = make(map[uint64]bool, records)
	for _, raw := range segs {
		s.index(raw)
	}
	s.stats.LoadedEntries = int64(len(s.m))
	return s, nil
}

// segmentNames lists the store's segment files in lexical (= load) order.
func segmentNames(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("cachestore: reading %s: %w", dir, err)
	}
	var names []string
	for _, e := range entries {
		if e.Type().IsRegular() && strings.HasSuffix(e.Name(), segSuffix) {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names, nil
}

// segmentSeq parses the sequence number out of a "seg-%08d-%016x.seg"
// filename; foreign names report !ok and are only loaded, never counted
// toward the next sequence number.
func segmentSeq(name string) (int, bool) {
	var seq int
	var scope uint64
	n, err := fmt.Sscanf(name, "seg-%08d-%016x"+segSuffix, &seq, &scope)
	return seq, err == nil && n == 2
}

// readSegment reads one segment file and validates every record's framing
// and checksum, returning the buffer and its record count. A segment of a
// different scope returns a nil buffer and is otherwise ignored. Any
// framing or checksum violation returns an error naming the file and the
// byte offset of the offending record.
func readSegment(path string, scope uint64) (raw []byte, records int, err error) {
	raw, err = os.ReadFile(path)
	if err != nil {
		return nil, 0, fmt.Errorf("cachestore: reading segment: %w", err)
	}
	if len(raw) < headerSize || string(raw[:8]) != magic {
		return nil, 0, fmt.Errorf("cachestore: %s: corrupt segment at offset 0: bad magic", path)
	}
	if binary.LittleEndian.Uint64(raw[8:16]) != scope {
		return nil, 0, nil
	}
	off := headerSize
	for off < len(raw) {
		if len(raw)-off < recordOverhead {
			return nil, 0, fmt.Errorf("cachestore: %s: corrupt segment at offset %d: truncated record header", path, off)
		}
		vlen := int(binary.LittleEndian.Uint32(raw[off+8 : off+12]))
		if vlen > maxValueLen {
			return nil, 0, fmt.Errorf("cachestore: %s: corrupt segment at offset %d: value length %d exceeds limit", path, off, vlen)
		}
		if len(raw)-off-recordOverhead < vlen {
			return nil, 0, fmt.Errorf("cachestore: %s: corrupt segment at offset %d: truncated value", path, off)
		}
		want := binary.LittleEndian.Uint32(raw[off+12+vlen : off+16+vlen])
		if got := crc32.ChecksumIEEE(raw[off : off+12+vlen]); got != want {
			return nil, 0, fmt.Errorf("cachestore: %s: corrupt segment at offset %d: CRC mismatch (%08x != %08x)", path, off, got, want)
		}
		records++
		off += recordOverhead + vlen
	}
	return raw, records, nil
}

// index loads a segment readSegment validated into the maps. Each value
// aliases raw, capacity-clipped so an append to it can never write into
// the next record.
func (s *Store) index(raw []byte) {
	for off := headerSize; off < len(raw); {
		key := binary.LittleEndian.Uint64(raw[off : off+8])
		end := off + 12 + int(binary.LittleEndian.Uint32(raw[off+8:off+12]))
		s.m[key] = raw[off+12 : end : end]
		s.isDir[key] = true
		off = end + 4
	}
}

// Dir returns the store's directory.
func (s *Store) Dir() string { return s.dir }

// Scope returns the store's cache scope.
func (s *Store) Scope() uint64 { return s.scope }

// Len returns the number of entries (loaded plus added).
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.m)
}

// Stats returns a copy of the lifetime counters.
func (s *Store) Stats() Stats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	st := s.stats
	st.Hits, st.Misses = s.hits.Load(), s.misses.Load()
	return st
}

// BytesOnDisk returns the total size of this scope's segments.
func (s *Store) BytesOnDisk() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.stats.BytesOnDisk
}

// Get returns the stored value for key, counting a hit or a miss. The
// returned slice is shared: callers must not modify it.
func (s *Store) Get(key uint64) ([]byte, bool) {
	s.mu.RLock()
	v, ok := s.m[key]
	s.mu.RUnlock()
	if ok {
		s.hits.Add(1)
	} else {
		s.misses.Add(1)
	}
	return v, ok
}

// Put stores value under key. New and changed entries are queued (in Put
// order) for the next Flush; writing a key back with its current on-disk
// value is a no-op. The value is copied.
func (s *Store) Put(key uint64, value []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	old, present := s.m[key]
	if present && string(old) == string(value) {
		return
	}
	s.m[key] = append([]byte(nil), value...)
	if s.isDir[key] || !present {
		// Either overriding a persisted entry or inserting a new key: both
		// need a record in the next segment. An overwrite of an entry that
		// is already pending keeps its original queue position.
		if s.isDir[key] {
			delete(s.isDir, key)
		}
		s.dirty = append(s.dirty, key)
	}
}

// Range calls fn for every entry until fn returns false, in unspecified
// order. The value slices are shared: do not modify them.
func (s *Store) Range(fn func(key uint64, value []byte) bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for k, v := range s.m {
		if !fn(k, v) {
			return
		}
	}
}

// Flush writes the entries added or changed since the last Flush (in their
// insertion order, so the segment bytes are deterministic for a
// deterministic caller) into one new segment, published with an atomic
// rename. With nothing dirty it writes nothing. Returns the number of
// records written.
func (s *Store) Flush() (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.dirty) == 0 {
		return 0, nil
	}
	buf := make([]byte, 0, headerSize+len(s.dirty)*(recordOverhead+16))
	buf = append(buf, magic...)
	buf = binary.LittleEndian.AppendUint64(buf, s.scope)
	for _, key := range s.dirty {
		val := s.m[key]
		start := len(buf)
		buf = binary.LittleEndian.AppendUint64(buf, key)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(val)))
		buf = append(buf, val...)
		buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf[start:]))
	}

	final := filepath.Join(s.dir, fmt.Sprintf("seg-%08d-%016x%s", s.seq, s.scope, segSuffix))
	tmp, err := os.CreateTemp(s.dir, ".tmp-seg-*")
	if err != nil {
		return 0, fmt.Errorf("cachestore: creating segment: %w", err)
	}
	if _, err := tmp.Write(buf); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return 0, fmt.Errorf("cachestore: writing segment: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return 0, fmt.Errorf("cachestore: syncing segment: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return 0, fmt.Errorf("cachestore: closing segment: %w", err)
	}
	if err := os.Rename(tmp.Name(), final); err != nil {
		os.Remove(tmp.Name())
		return 0, fmt.Errorf("cachestore: publishing segment: %w", err)
	}

	n := len(s.dirty)
	for _, key := range s.dirty {
		s.isDir[key] = true
	}
	s.dirty = s.dirty[:0]
	s.seq++
	s.stats.FlushedEntries += int64(n)
	s.stats.BytesOnDisk += int64(len(buf))
	return n, nil
}

// PutFloat64 stores a scalar measurement value (8 bytes, little-endian
// IEEE-754 bits) — the encoding used to persist parallel.MemoCache
// entries.
func (s *Store) PutFloat64(key uint64, v float64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
	s.Put(key, b[:])
}

// GetFloat64 returns the scalar value for key; ok is false when the key is
// absent or not 8 bytes wide.
func (s *Store) GetFloat64(key uint64) (float64, bool) {
	raw, ok := s.Get(key)
	if !ok || len(raw) != 8 {
		return 0, false
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(raw)), true
}

// RangeFloat64 calls fn for every 8-byte entry, decoded as a float64.
func (s *Store) RangeFloat64(fn func(key uint64, v float64) bool) {
	s.Range(func(key uint64, value []byte) bool {
		if len(value) != 8 {
			return true
		}
		return fn(key, math.Float64frombits(binary.LittleEndian.Uint64(value)))
	})
}
