package cachestore

import (
	"bytes"
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/frame"
	"repro/internal/proptest"
)

func TestOpenValidation(t *testing.T) {
	if _, err := Open("", 1); err == nil {
		t.Fatal("Open(\"\") succeeded, want error")
	}
}

func TestOpenCreatesDirectory(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "nested", "cache")
	s, err := Open(dir, 42)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if len(s.m) != 0 || s.Stats().LoadedSegments != 0 {
		t.Fatalf("fresh store not empty: len=%d stats=%+v", len(s.m), s.Stats())
	}
	if fi, err := os.Stat(dir); err != nil || !fi.IsDir() {
		t.Fatalf("directory not created: %v", err)
	}
}

func TestBasicRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 7)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	s.Put(1, []byte("alpha"))
	s.Put(2, []byte{})
	s.PutFloat64(3, 1.25)
	if n, err := s.Flush(); err != nil || n != 3 {
		t.Fatalf("Flush = %d, %v; want 3, nil", n, err)
	}
	// A second flush with nothing dirty writes nothing.
	if n, err := s.Flush(); err != nil || n != 0 {
		t.Fatalf("empty Flush = %d, %v; want 0, nil", n, err)
	}

	r, err := Open(dir, 7)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if got, ok := r.Get(1); !ok || string(got) != "alpha" {
		t.Errorf("Get(1) = %q, %v", got, ok)
	}
	if got, ok := r.Get(2); !ok || len(got) != 0 {
		t.Errorf("Get(2) = %q, %v; want empty, true", got, ok)
	}
	if got, ok := r.Get(3); !ok || len(got) != 8 || math.Float64frombits(binary.LittleEndian.Uint64(got)) != 1.25 {
		t.Errorf("Get(3) = %x, %v; want PutFloat64's bits of 1.25", got, ok)
	}
	if _, ok := r.Get(99); ok {
		t.Error("Get(99) hit, want miss")
	}
	st := r.Stats()
	if st.LoadedEntries != 3 || st.LoadedSegments != 1 || st.Hits != 3 || st.Misses != 1 {
		t.Errorf("stats = %+v", st)
	}
	if st.BytesOnDisk <= 0 {
		t.Errorf("BytesOnDisk = %d, want > 0", st.BytesOnDisk)
	}
}

func TestFlushAppendsSegmentsAndOverrides(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir, 7)
	s.Put(1, []byte("old"))
	s.Flush()
	s.Put(1, []byte("new"))
	s.Put(2, []byte("two"))
	s.Flush()

	segs, err := segmentNames(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 2 {
		t.Fatalf("segments = %v, want 2 files", segs)
	}

	r, err := Open(dir, 7)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if got, _ := r.Get(1); string(got) != "new" {
		t.Errorf("later segment did not override: Get(1) = %q", got)
	}
	if len(r.m) != 2 {
		t.Errorf("%d entries, want 2", len(r.m))
	}
	// Rewriting a key with its persisted value queues nothing.
	r.Put(1, []byte("new"))
	if n, err := r.Flush(); err != nil || n != 0 {
		t.Errorf("no-op Put flushed %d records (%v), want 0", n, err)
	}
}

func TestScopeIsolation(t *testing.T) {
	dir := t.TempDir()
	a, _ := Open(dir, 0xAAAA)
	a.Put(1, []byte("scope-a"))
	if _, err := a.Flush(); err != nil {
		t.Fatal(err)
	}
	b, err := Open(dir, 0xBBBB)
	if err != nil {
		t.Fatalf("Open scope B alongside scope A segment: %v", err)
	}
	if len(b.m) != 0 {
		t.Fatalf("scope B loaded %d foreign entries", len(b.m))
	}
	if st := b.Stats(); st.SkippedSegments != 1 || st.LoadedSegments != 0 {
		t.Errorf("scope B stats = %+v, want 1 skipped segment", st)
	}
	b.Put(1, []byte("scope-b"))
	if _, err := b.Flush(); err != nil {
		t.Fatal(err)
	}
	// Both scopes coexist in one directory, each seeing only its own value.
	a2, _ := Open(dir, 0xAAAA)
	b2, _ := Open(dir, 0xBBBB)
	if got, _ := a2.Get(1); string(got) != "scope-a" {
		t.Errorf("scope A sees %q", got)
	}
	if got, _ := b2.Get(1); string(got) != "scope-b" {
		t.Errorf("scope B sees %q", got)
	}
}

// Corrupting any single byte of a segment must fail Open with an error
// naming the file and a byte offset (except scope bytes, which change the
// segment's identity and make it skipped instead).
func TestCorruptSegmentRejectedWithOffset(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir, 7)
	s.Put(0xDEAD, []byte("payload"))
	s.PutFloat64(0xBEEF, 3.5)
	if _, err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	segs, _ := segmentNames(dir)
	if len(segs) != 1 {
		t.Fatalf("segments = %v", segs)
	}
	path := filepath.Join(dir, segs[0])
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	for off := 0; off < len(orig); off++ {
		mut := append([]byte(nil), orig...)
		mut[off] ^= 0xFF
		if err := os.WriteFile(path, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		r, err := Open(dir, 7)
		if off >= 8 && off < 16 {
			// Scope bytes: the segment now belongs to a different scope and
			// is skipped, not rejected.
			if err != nil {
				t.Errorf("offset %d (scope byte): Open failed: %v", off, err)
			} else if st := r.Stats(); st.SkippedSegments != 1 {
				t.Errorf("offset %d (scope byte): stats = %+v, want skip", off, st)
			}
			continue
		}
		if err == nil {
			t.Errorf("offset %d: corruption accepted", off)
			continue
		}
		msg := err.Error()
		if !strings.Contains(msg, segs[0]) || !strings.Contains(msg, "offset") {
			t.Errorf("offset %d: error %q does not name file and offset", off, msg)
		}
	}
	if err := os.WriteFile(path, orig, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, 7); err != nil {
		t.Fatalf("restored segment rejected: %v", err)
	}
}

// Every single-bit flip of a segment either fails Open with an error naming
// the file and an offset, or skips the whole segment: a flip in the scope
// bytes, or one that turns the version byte into another digit. No flip
// ever loads a changed value.
func TestSegmentBitFlipsFailOrSkip(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir, 7)
	s.Put(0xDEAD, []byte("payload"))
	s.Put(0xF00D, nil)
	s.PutFloat64(0xBEEF, 3.5)
	if _, err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	segs, _ := segmentNames(dir)
	path := filepath.Join(dir, segs[0])
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for bit := 0; bit < 8*len(orig); bit++ {
		mut := bytes.Clone(orig)
		off := bit / 8
		mut[off] ^= 1 << (bit % 8)
		if err := os.WriteFile(path, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		r, err := Open(dir, 7)
		skip := (off >= len(magic) && off < headerSize) || (off == len(magic)-1 && '0' <= mut[off] && mut[off] <= '9')
		switch {
		case skip:
			if err != nil {
				t.Errorf("bit %d: Open failed, want the segment skipped: %v", bit, err)
			} else if st := r.Stats(); st.SkippedSegments != 1 || len(r.m) != 0 {
				t.Errorf("bit %d: stats %+v, len %d; want the segment skipped", bit, st, len(r.m))
			}
		case err == nil:
			t.Errorf("bit %d: corruption accepted (%d entries loaded)", bit, len(r.m))
		case !strings.Contains(err.Error(), segs[0]) || !strings.Contains(err.Error(), "offset"):
			t.Errorf("bit %d: error %q does not name file and offset", bit, err)
		}
	}
}

// A segment the previous format version (RPROCST1) wrote is skipped the way
// a foreign scope is: the directory runs cold once and is warm again after
// one Flush. The RPROCST2 segment for the same entries has the same size.
func TestOldVersionSegmentSkipped(t *testing.T) {
	const v1 = "seg-00000000-0000000000000007.seg"
	old, err := os.ReadFile(filepath.Join("testdata", v1))
	if err != nil {
		t.Fatal(err)
	}
	if string(old[:len(magic)]) != "RPROCST1" {
		t.Fatalf("fixture magic %q, want RPROCST1", old[:len(magic)])
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, v1), old, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir, 7)
	if err != nil {
		t.Fatalf("Open over an RPROCST1 segment: %v", err)
	}
	if st := s.Stats(); st.SkippedSegments != 1 || st.LoadedSegments != 0 || len(s.m) != 0 {
		t.Fatalf("stats %+v, len %d; want the old segment skipped", st, len(s.m))
	}
	s.Put(1, []byte("hello"))
	s.Put(2, []byte("world!"))
	s.PutFloat64(3, 1.25)
	if n, err := s.Flush(); err != nil || n != 3 {
		t.Fatalf("Flush = %d, %v; want 3, nil", n, err)
	}
	r, err := Open(dir, 7)
	if err != nil {
		t.Fatal(err)
	}
	st := r.Stats()
	if st.LoadedSegments != 1 || st.SkippedSegments != 1 || len(r.m) != 3 {
		t.Fatalf("after one Flush: stats %+v, len %d; want warm", st, len(r.m))
	}
	if got, _ := r.Get(2); string(got) != "world!" {
		t.Errorf("Get(2) = %q", got)
	}
	if st.BytesOnDisk != int64(len(old)) {
		t.Errorf("RPROCST2 segment is %d bytes, the RPROCST1 one %d", st.BytesOnDisk, len(old))
	}
}

// Open decides to skip a segment from its 16-byte header alone: an 8 MB
// sparse segment of another scope, or of the older RPROCST1 format, costs
// the open a few kilobytes of allocation, not the segment's size.
func TestSkippedSegmentIsNotRead(t *testing.T) {
	for _, tc := range []struct {
		name  string
		magic string
		scope uint64
	}{
		{"foreign scope", magic, 99},
		{"older format", "RPROCST1", 7},
	} {
		dir := t.TempDir()
		path := filepath.Join(dir, "seg-00000000-0000000000000063.seg")
		if err := os.WriteFile(path, binary.LittleEndian.AppendUint64([]byte(tc.magic), tc.scope), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.Truncate(path, 8<<20); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		s, err := Open(dir, 7)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if st := s.Stats(); st.SkippedSegments != 1 || st.LoadedSegments != 0 {
			t.Errorf("%s: stats %+v, want the segment skipped", tc.name, st)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > 64<<10 {
			t.Errorf("%s: Open allocated %d bytes to skip an 8 MB segment, want under 64 KiB", tc.name, got)
		}
	}
}

func TestTruncatedSegmentRejected(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir, 7)
	s.Put(1, []byte("hello"))
	if _, err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	segs, _ := segmentNames(dir)
	path := filepath.Join(dir, segs[0])
	orig, _ := os.ReadFile(path)
	for _, cut := range []int{len(orig) - 1, len(orig) - 5, headerSize + 3, headerSize, 4, 0} {
		if err := os.WriteFile(path, orig[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		r, err := Open(dir, 7)
		switch {
		case cut == headerSize:
			// A header with zero records is a legal empty segment.
			if err != nil || len(r.m) != 0 {
				t.Errorf("header-only segment: err = %v, len = %d", err, len(r.m))
			}
		case cut > headerSize:
			if err == nil || !strings.Contains(err.Error(), "offset") {
				t.Errorf("truncation to %d bytes: err = %v, want offset-naming error", cut, err)
			}
		default:
			if err == nil {
				t.Errorf("truncation to %d bytes accepted", cut)
			}
		}
	}
}

func TestForeignFilesIgnored(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "notes.txt"), []byte("not a segment"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(dir, "sub.seg"), 0o755); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir, 7)
	if err != nil {
		t.Fatalf("Open with foreign files: %v", err)
	}
	if len(s.m) != 0 {
		t.Errorf("loaded %d entries from foreign files", len(s.m))
	}
}

// Round-trip closure: any set of entries written through any interleaving
// of Puts and Flushes loads back byte-identical, with later writes
// overriding earlier ones.
func TestRoundTripClosure(t *testing.T) {
	proptest.Check(t, 40, func(pt *proptest.T) {
		dir, err := os.MkdirTemp("", "cachestore-prop-*")
		if err != nil {
			pt.Fatalf("tempdir: %v", err)
		}
		defer os.RemoveAll(dir)

		scope := pt.Uint64()
		s, err := Open(dir, scope)
		if err != nil {
			pt.Fatalf("Open: %v", err)
		}

		keys := make([]uint64, pt.IntRange(1, 12))
		for i := range keys {
			keys[i] = pt.Uint64()
		}
		want := map[uint64][]byte{}
		// queued models the keys the next Flush must write: a Put queues its
		// key unless it rewrites the key's current value, and a key counts
		// once however often it is Put between flushes.
		queued := map[uint64]bool{}
		flush := func() {
			n, err := s.Flush()
			if err != nil {
				pt.Fatalf("Flush: %v", err)
			}
			if n != len(queued) {
				pt.Fatalf("Flush wrote %d records, want the %d keys queued since the last flush", n, len(queued))
			}
			clear(queued)
		}
		nOps := pt.IntRange(1, 60)
		flushes := 0
		for i := 0; i < nOps; i++ {
			if pt.Intn(8) == 0 {
				flush()
				flushes++
				continue
			}
			k := proptest.Pick(pt, keys)
			v := pt.Bytes(24)
			if old, ok := want[k]; !ok || !bytes.Equal(old, v) {
				queued[k] = true
			}
			s.Put(k, v)
			want[k] = append([]byte(nil), v...)
		}
		flush()
		pt.Logf("%d ops, %d interleaved flushes, %d distinct keys, scope %#x",
			nOps, flushes, len(want), scope)

		r, err := Open(dir, scope)
		if err != nil {
			pt.Fatalf("reopen: %v", err)
		}
		if len(r.m) != len(want) {
			pt.Fatalf("reloaded %d entries, want %d", len(r.m), len(want))
		}
		for k, v := range want {
			got, ok := r.Get(k)
			if !ok || !bytes.Equal(got, v) {
				pt.Errorf("key %#x = %x (present %v), want %x", k, got, ok, v)
			}
		}
		if st := r.Stats(); st.LoadedEntries != int64(len(want)) {
			pt.Errorf("LoadedEntries = %d, want %d", st.LoadedEntries, len(want))
		}
	})
}

func TestRangeFloat64(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir, 7)
	s.PutFloat64(1, 0.5)
	s.PutFloat64(2, -3.25)
	s.Put(3, []byte("not-a-float"))
	got := map[uint64]float64{}
	s.RangeFloat64(func(k uint64, v float64) bool {
		got[k] = v
		return true
	})
	if len(got) != 2 || got[1] != 0.5 || got[2] != -3.25 {
		t.Errorf("RangeFloat64 = %v", got)
	}
}

// Values loaded from disk share the segment buffer; a Put must install a
// fresh copy instead of writing through it, so a slice a caller got
// earlier keeps its bytes, while a reopen sees the new value.
func TestGetSliceSurvivesPutAndFlush(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir, 7)
	s.Put(1, []byte("first"))
	s.Put(2, []byte("neighbour"))
	if _, err := s.Flush(); err != nil {
		t.Fatal(err)
	}

	r, err := Open(dir, 7)
	if err != nil {
		t.Fatal(err)
	}
	loaded, _ := r.Get(1)
	_ = append(loaded, bytes.Repeat([]byte("X"), 32)...) // must not spill into the next record
	r.Put(1, []byte("SECOND"))
	if _, err := r.Flush(); err != nil {
		t.Fatal(err)
	}
	if string(loaded) != "first" {
		t.Errorf("slice from Get before Put now reads %q, want %q", loaded, "first")
	}
	if got, _ := r.Get(2); string(got) != "neighbour" {
		t.Errorf("neighbouring record reads %q after the Put", got)
	}

	// The same holds for a value the store copied in with Put.
	fresh, _ := r.Get(1)
	r.Put(1, []byte("third"))
	if string(fresh) != "SECOND" {
		t.Errorf("slice from Get of a Put value now reads %q, want %q", fresh, "SECOND")
	}
	if _, err := r.Flush(); err != nil {
		t.Fatal(err)
	}

	again, err := Open(dir, 7)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := again.Get(1); string(got) != "third" {
		t.Errorf("reopen reads %q, want the latest Put %q", got, "third")
	}
}

func TestOpenEmptyDirectoryLoadsNothing(t *testing.T) {
	s, err := Open(t.TempDir(), 7)
	if err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st != (Stats{}) || len(s.m) != 0 {
		t.Fatalf("empty directory: len %d, stats %+v", len(s.m), st)
	}
	s.Put(1, []byte("x"))
	if got, ok := s.Get(1); !ok || string(got) != "x" {
		t.Errorf("Put into an empty-directory store: Get = %q, %v", got, ok)
	}
}

// The load path reports each kind of damage with the same message and
// record offset: the frames of a two-record segment sit at offsets 16 and
// 37, each a 4-byte length, the key and value, and a 4-byte CRC.
func TestCorruptionErrorMessages(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir, 7)
	s.Put(1, []byte("hello"))
	s.Put(2, []byte("world!"))
	if _, err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	segs, _ := segmentNames(dir)
	path := filepath.Join(dir, segs[0])
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(orig) != 59 {
		t.Fatalf("segment is %d bytes, want 59", len(orig))
	}
	damage := func(edit func([]byte) []byte) []byte { return edit(append([]byte(nil), orig...)) }
	for _, tc := range []struct {
		name string
		raw  []byte
		want string
	}{
		{"bad magic", damage(func(b []byte) []byte { b[0] = 'X'; return b }), "offset 0: bad magic"},
		{"short file", orig[:10], "offset 0: truncated header"},
		{"truncated length", orig[:39], "offset 37: truncated frame: 2 of 4 length bytes"},
		{"truncated value", orig[:58], "offset 37: truncated frame: 21 of 22 bytes"},
		{"value too long", damage(func(b []byte) []byte { b[16+1] = 0x10; return b }), "offset 16: corrupt frame: length 1048589 exceeds limit 1048584"},
		{"crc mismatch", damage(func(b []byte) []byte { b[37+4+8] ^= 1; return b }), "offset 37: corrupt frame: checksum mismatch ("},
		{"record shorter than its key", append(orig[:16:16], frame.Append(nil, []byte("key"))...), "offset 16: record shorter than its key"},
	} {
		if err := os.WriteFile(path, tc.raw, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := Open(dir, 7)
		want := "cachestore: " + path + ": corrupt segment at " + tc.want
		if err == nil || !strings.HasPrefix(err.Error(), want) {
			t.Errorf("%s: err = %v, want prefix %q", tc.name, err, want)
		}
	}
}

// Get, Put, Stats and Flush from many goroutines at once: race-clean, and
// every Get is counted exactly once as a hit or a miss.
func TestConcurrentGetPutStatsFlush(t *testing.T) {
	s, err := Open(t.TempDir(), 9)
	if err != nil {
		t.Fatal(err)
	}
	const (
		getters = 4
		gets    = 500
		keys    = 200
	)
	var wg sync.WaitGroup
	for g := 0; g < getters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < gets; i++ {
				if v, ok := s.Get(uint64((g*gets + i) % keys)); ok && len(v) != 1 {
					t.Errorf("Get returned %d bytes, want 1", len(v))
					return
				}
			}
		}(g)
	}
	wg.Add(2)
	go func() {
		defer wg.Done()
		for k := 0; k < keys; k++ {
			s.Put(uint64(k), []byte{byte(k)})
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			if st := s.Stats(); st.Hits+st.Misses > getters*gets {
				t.Errorf("Stats counts %d lookups, more than were made", st.Hits+st.Misses)
			}
			if _, err := s.Flush(); err != nil {
				t.Error(err)
			}
		}
	}()
	wg.Wait()
	if st := s.Stats(); st.Hits+st.Misses != getters*gets {
		t.Errorf("hits %d + misses %d != %d Get calls", st.Hits, st.Misses, getters*gets)
	}
	if _, err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.FlushedEntries != keys {
		t.Errorf("flushed %d entries, want %d", st.FlushedEntries, keys)
	}
}

// BenchmarkOpen loads one 10k-record segment of 117-byte values, the shape
// of a 10k-die lot's die records.
func BenchmarkOpen(b *testing.B) {
	dir := b.TempDir()
	s, err := Open(dir, 7)
	if err != nil {
		b.Fatal(err)
	}
	val := make([]byte, 117)
	for k := uint64(0); k < 10000; k++ {
		val[0], val[1] = byte(k), byte(k>>8)
		s.Put(k*0x9E3779B97F4A7C15, val)
	}
	if _, err := s.Flush(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := Open(dir, 7)
		if err != nil || len(r.m) != 10000 {
			b.Fatalf("Open: %v (len %d)", err, len(r.m))
		}
	}
}
