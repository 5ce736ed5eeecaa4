// Package cachestore persists measurement memo-caches across process
// lifetimes: a content-addressed key/value store whose on-disk form is a
// directory of immutable, CRC-checked, append-only segment files. A fab
// floor re-running a lot (or a characterization flow re-run with the same
// seed) opens the same cache directory and serves the bulk of its
// measurements from disk instead of burning ATE time again.
//
// On-disk format. A segment file is
//
//	header : magic "RPROCST2" (8 bytes) + scope (8 bytes, little-endian)
//	records: one internal/frame frame each, payload key (8 LE) + value
//
// A segment is written once and published with frame.Publish, so readers
// never observe a half-written segment under POSIX rename semantics. Flush
// writes only the entries put since the last Flush (one new segment per
// flush, numbered after the existing ones); loading replays segments in
// filename order, later segments overriding earlier keys.
//
// The scope tags which logical cache a segment belongs to (parameter,
// geometry, seed, flow — whatever the caller folds into the 64-bit value).
// Open skips segments of other scopes, so several flows can share one
// -cache-dir without poisoning each other's keys. It skips segments of
// another format version (the same magic with a different version digit,
// such as RPROCST1) the same way, so a directory written by an older build
// runs cold once and is warm again after the next Flush.
//
// Corruption policy: a segment whose magic, record framing or CRC does not
// check out fails Open with an error naming the file and the byte offset
// of the first bad record; the CLIs report it and the run fails.
//
// Memory: Open reads a segment's header first and reads no further into a
// segment it skips. It reads each segment it loads into one buffer, and the
// loaded values share it — no per-record copy. A segment's buffer stays
// alive while any value loaded from it is still in the store (or held by a
// caller of Get or Range). Stored values are never modified in place; Put
// installs a fresh copy, so a slice a caller already holds never changes.
package cachestore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/frame"
)

// magic identifies (and versions) the segment format.
const magic = "RPROCST2"

// headerSize is the fixed segment prefix: magic + scope.
const headerSize = len(magic) + 8

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
	// segment files ignored because their scope or format version differs.
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

	mu      sync.RWMutex
	m       map[uint64][]byte
	dirty   []uint64            // keys Put since the last Flush, in first-Put order
	pending map[uint64]struct{} // the keys in dirty
	stats   Stats               // Hits and Misses live in the atomics below
	seq     int                 // next segment sequence number

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
	s := &Store{dir: dir, scope: scope, pending: map[uint64]struct{}{}}
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
	// distinct keys: the map never grows during the load.
	s.m = make(map[uint64][]byte, records)
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
// and checksum, returning the buffer and its record count. It reads the
// header first: a segment of a different scope or format version returns a
// nil buffer, and the rest of it is never read. Any other damage returns an
// error naming the file and the byte offset of the offending record.
func readSegment(path string, scope uint64) (raw []byte, records int, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, fmt.Errorf("cachestore: reading segment: %w", err)
	}
	defer f.Close()
	var hdr [headerSize]byte
	n, err := io.ReadFull(f, hdr[:])
	if err != nil && err != io.ErrUnexpectedEOF && err != io.EOF {
		return nil, 0, fmt.Errorf("cachestore: reading segment: %w", err)
	}
	corrupt := func(off int, cause error) error {
		return fmt.Errorf("cachestore: %s: corrupt segment at offset %d: %w", path, off, cause)
	}
	switch err := frame.CheckMagic(hdr[:n], magic); {
	case errors.Is(err, frame.ErrVersion):
		return nil, 0, nil
	case err != nil:
		return nil, 0, corrupt(0, err)
	case n < headerSize:
		return nil, 0, corrupt(0, errors.New("truncated header"))
	case binary.LittleEndian.Uint64(hdr[len(magic):]) != scope:
		return nil, 0, nil
	}
	fi, err := f.Stat()
	if err != nil {
		return nil, 0, fmt.Errorf("cachestore: reading segment: %w", err)
	}
	raw = make([]byte, max(fi.Size(), int64(headerSize)))
	copy(raw, hdr[:])
	if _, err := io.ReadFull(f, raw[headerSize:]); err != nil {
		return nil, 0, fmt.Errorf("cachestore: reading segment: %w", err)
	}
	for off := headerSize; off < len(raw); records++ {
		rec, size, err := frame.Next(raw[off:], 8+maxValueLen)
		if err == nil && len(rec) < 8 {
			err = errors.New("record shorter than its key")
		}
		if err != nil {
			return nil, 0, corrupt(off, err)
		}
		off += size
	}
	return raw, records, nil
}

// index loads a segment readSegment validated into the map. Each value
// aliases raw, capacity-clipped so an append to it can never write into
// the next record.
func (s *Store) index(raw []byte) {
	for off := headerSize; off < len(raw); {
		rec, size := frame.Split(raw[off:])
		s.m[binary.LittleEndian.Uint64(rec)] = rec[8:]
		off += size
	}
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
// order) for the next Flush; writing a key back with its current value is
// a no-op, and a key already queued keeps its queue position. The value is
// copied.
func (s *Store) Put(key uint64, value []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	old, present := s.m[key]
	if present && string(old) == string(value) {
		return
	}
	s.m[key] = append([]byte(nil), value...)
	if _, queued := s.pending[key]; !queued {
		s.pending[key] = struct{}{}
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
// deterministic caller) into one new segment, published with
// frame.Publish. With nothing dirty it writes nothing. Returns the number
// of records written.
func (s *Store) Flush() (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.dirty) == 0 {
		return 0, nil
	}
	buf := make([]byte, 0, headerSize+len(s.dirty)*(frame.Overhead+8+16))
	buf = append(buf, magic...)
	buf = binary.LittleEndian.AppendUint64(buf, s.scope)
	var rec []byte
	for _, key := range s.dirty {
		rec = append(binary.LittleEndian.AppendUint64(rec[:0], key), s.m[key]...)
		buf = frame.Append(buf, rec)
	}
	final := filepath.Join(s.dir, fmt.Sprintf("seg-%08d-%016x%s", s.seq, s.scope, segSuffix))
	if err := frame.Publish(final, buf); err != nil {
		return 0, fmt.Errorf("cachestore: publishing segment: %w", err)
	}

	n := len(s.dirty)
	clear(s.pending)
	s.dirty = s.dirty[:0]
	s.seq++
	s.stats.FlushedEntries += int64(n)
	s.stats.BytesOnDisk += int64(len(buf))
	return n, nil
}

// PutFloat64 stores a scalar measurement value (8 bytes, little-endian
// IEEE-754 bits) — the encoding core.Characterizer.PersistMemoCache uses
// for the GA fitness memo-cache.
func (s *Store) PutFloat64(key uint64, v float64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
	s.Put(key, b[:])
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
