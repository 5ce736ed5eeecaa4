package frame

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/proptest"
)

// genFrames draws one to six payloads (any of which may be empty) and
// their concatenated frames.
func genFrames(pt *proptest.T) (payloads [][]byte, b []byte) {
	payloads = make([][]byte, pt.IntRange(1, 6))
	for i := range payloads {
		payloads[i] = pt.Bytes(40)
		b = Append(b, payloads[i])
	}
	pt.Logf("%d frames, %d bytes", len(payloads), len(b))
	return payloads, b
}

// readN reads n frames from b, the way a reader that knows its frame count
// (runstore's five sections) does. It returns the payloads read before the
// first error, and that error.
func readN(b []byte, n, max int) ([][]byte, error) {
	var got [][]byte
	off := 0
	for len(got) < n {
		p, size, err := Next(b[off:], max)
		if err != nil {
			return got, err
		}
		got = append(got, p)
		off += size
	}
	if off != len(b) {
		return got, errors.New("trailing bytes")
	}
	return got, nil
}

func samePayloads(a, b [][]byte) bool { return slices.EqualFunc(a, b, bytes.Equal) }

func TestAppendNextSplitRoundTrip(t *testing.T) {
	proptest.Check(t, 200, func(pt *proptest.T) {
		payloads, b := genFrames(pt)
		got, err := readN(b, len(payloads), 40)
		if err != nil || !samePayloads(got, payloads) {
			pt.Fatalf("readN = %q, %v; want %q", got, err, payloads)
		}
		off := 0
		for i, want := range payloads {
			p, size := Split(b[off:])
			if !bytes.Equal(p, want) || size != Overhead+len(want) || cap(p) != len(p) {
				pt.Fatalf("Split frame %d = %q (size %d, cap %d), want %q", i, p, size, cap(p), want)
			}
			off += size
		}
	})
}

// Truncating a multi-frame buffer at any point is ErrTruncated for the
// first frame the cut reaches, with every frame before it intact.
func TestTruncationAlwaysErrors(t *testing.T) {
	proptest.Check(t, 100, func(pt *proptest.T) {
		payloads, b := genFrames(pt)
		for cut := 0; cut < len(b); cut++ {
			got, err := readN(b[:cut], len(payloads), 40)
			if !errors.Is(err, ErrTruncated) {
				pt.Fatalf("cut %d of %d: err = %v, want ErrTruncated", cut, len(b), err)
			}
			if !samePayloads(got, payloads[:len(got)]) {
				pt.Fatalf("cut %d: frames before the cut changed", cut)
			}
		}
	})
}

// Flipping any single bit fails the frame holding it, with every frame
// before it intact: the checksum covers the length prefix too.
func TestBitFlipAlwaysErrors(t *testing.T) {
	proptest.Check(t, 100, func(pt *proptest.T) {
		payloads, b := genFrames(pt)
		frameAt := make([]int, len(b))
		for i, off := 0, 0; i < len(payloads); i++ {
			for j := 0; j < Overhead+len(payloads[i]); j++ {
				frameAt[off+j] = i
			}
			off += Overhead + len(payloads[i])
		}
		for bit := 0; bit < 8*len(b); bit++ {
			mut := bytes.Clone(b)
			mut[bit/8] ^= 1 << (bit % 8)
			got, err := readN(mut, len(payloads), 40)
			if err == nil {
				pt.Fatalf("bit %d: flipped buffer accepted", bit)
			}
			if !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrCorrupt) {
				pt.Fatalf("bit %d: err = %v, want ErrTruncated or ErrCorrupt", bit, err)
			}
			if k := frameAt[bit/8]; len(got) != k || !samePayloads(got, payloads[:k]) {
				pt.Fatalf("bit %d (frame %d): %d frames read before the error, want the %d intact ones", bit, k, len(got), k)
			}
		}
	})
}

// Next's errors name their kind, and size still reports the declared frame
// size whenever the length prefix could be read and is within the limit.
func TestNextErrorKinds(t *testing.T) {
	good := Append(nil, []byte("payload"))
	badCRC := bytes.Clone(good)
	badCRC[len(badCRC)-1] ^= 1
	for _, tc := range []struct {
		name     string
		b        []byte
		max      int
		want     error
		wantSize int
		msg      string
	}{
		{"empty", nil, 10, ErrTruncated, 0, "truncated frame: 0 of 4 length bytes"},
		{"short length", good[:3], 10, ErrTruncated, 0, "truncated frame: 3 of 4 length bytes"},
		{"short payload", good[:9], 10, ErrTruncated, len(good), "truncated frame: 9 of 15 bytes"},
		{"short checksum", good[:len(good)-1], 10, ErrTruncated, len(good), "truncated frame: 14 of 15 bytes"},
		{"over limit", good, 6, ErrCorrupt, 0, "corrupt frame: length 7 exceeds limit 6"},
		{"checksum", badCRC, 10, ErrCorrupt, len(good), "corrupt frame: checksum mismatch ("},
	} {
		p, size, err := Next(tc.b, tc.max)
		if !errors.Is(err, tc.want) || size != tc.wantSize || p != nil || !strings.HasPrefix(err.Error(), tc.msg) {
			t.Errorf("%s: Next = %q, %d, %v; want nil, %d, %q…", tc.name, p, size, err, tc.wantSize, tc.msg)
		}
	}
	if p, size, err := Next(good, 7); err != nil || string(p) != "payload" || size != len(good) {
		t.Errorf("Next at the exact limit = %q, %d, %v", p, size, err)
	}
}

func TestCheckMagic(t *testing.T) {
	const magic = "RPROTST3"
	for _, tc := range []struct {
		b    string
		want error
	}{
		{"RPROTST3", nil},
		{"RPROTST3 and records", nil},
		{"RPROTST1", ErrVersion},
		{"RPROTST9...", ErrVersion},
		{"RPROTSTX", ErrMagic},
		{"RPROTST", ErrMagic},
		{"", ErrMagic},
		{"RPROJOB3", ErrMagic},
		{"not a store file", ErrMagic},
	} {
		err := CheckMagic([]byte(tc.b), magic)
		if (tc.want == nil) != (err == nil) || (tc.want != nil && !errors.Is(err, tc.want)) {
			t.Errorf("CheckMagic(%q) = %v, want %v", tc.b, err, tc.want)
		}
		if errors.Is(err, ErrVersion) && errors.Is(err, ErrMagic) {
			t.Errorf("CheckMagic(%q) = %v is both kinds", tc.b, err)
		}
	}
}

func TestPublish(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "data.bin")
	for _, data := range []string{"first", "second, longer", ""} {
		if err := Publish(path, []byte(data)); err != nil {
			t.Fatalf("Publish(%q): %v", data, err)
		}
		if got, err := os.ReadFile(path); err != nil || string(got) != data {
			t.Fatalf("after Publish(%q) the file reads %q, %v", data, got, err)
		}
	}
	// A rename that cannot complete (path is a non-empty directory) fails
	// and leaves no temporary file behind.
	blocked := filepath.Join(dir, "blocked")
	if err := os.MkdirAll(filepath.Join(blocked, "child"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := Publish(blocked, []byte("x")); err == nil {
		t.Fatal("Publish over a non-empty directory succeeded")
	}
	if err := Publish(filepath.Join(dir, "missing", "data.bin"), []byte("x")); err == nil {
		t.Fatal("Publish into a missing directory succeeded")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Errorf("directory holds %d entries, want data.bin and blocked only", len(entries))
	}
}

// FuzzFrameNext: Next never panics, its errors are one of the two kinds, and
// every frame it accepts re-Appends to exactly the bytes it consumed.
func FuzzFrameNext(f *testing.F) {
	two := Append(Append(nil, []byte("first")), nil)
	f.Add(two, uint32(16))
	f.Add(two[:len(two)-2], uint32(16))
	f.Add(Append(nil, []byte("over the limit")), uint32(4))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0}, uint32(1<<20))
	f.Add([]byte("RPROJOB1"), uint32(1<<20))
	f.Fuzz(func(t *testing.T, b []byte, max uint32) {
		for off := 0; off < len(b); {
			p, size, err := Next(b[off:], int(max))
			if err != nil {
				if errors.Is(err, ErrTruncated) == errors.Is(err, ErrCorrupt) {
					t.Fatalf("offset %d: error %v is not exactly one of ErrTruncated, ErrCorrupt", off, err)
				}
				return
			}
			if len(p) > int(max) || size != Overhead+len(p) {
				t.Fatalf("offset %d: accepted a %d-byte payload as a %d-byte frame (max %d)", off, len(p), size, max)
			}
			if re := Append(nil, p); !bytes.Equal(re, b[off:off+size]) {
				t.Fatalf("offset %d: re-Append gives %x, consumed %x", off, re, b[off:off+size])
			}
			if sp, ssize := Split(b[off:]); !bytes.Equal(sp, p) || ssize != size {
				t.Fatalf("offset %d: Split disagrees with Next", off)
			}
			off += size
		}
	})
}
