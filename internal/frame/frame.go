// Package frame is the one durable record format of the on-disk stores
// (cachestore segments, runstore records, the jobs journal) and the one way
// they publish a file. A store file opens with a magic, a family name and
// an ASCII-digit version such as "RPROJOB1", and its records are frames:
//
//	[u32be length][payload][u32be CRC-32 (IEEE) of length ‖ payload]
//
// The checksum covers the length prefix, so a flipped length bit fails it
// like a flipped payload bit. This package tells the kinds of damage apart;
// what each means (an error, a torn tail to drop, a file to skip) is the
// store's policy.
package frame

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
)

// Overhead is the framing cost of one frame: length prefix plus checksum.
const Overhead = 8

var (
	// ErrTruncated reports data that ends inside a frame.
	ErrTruncated = errors.New("truncated frame")
	// ErrCorrupt reports a frame over the caller's limit or failing its checksum.
	ErrCorrupt = errors.New("corrupt frame")
	// ErrVersion reports a magic of the right family and another version.
	ErrVersion = errors.New("unsupported record format version")
	// ErrMagic reports data that does not open with the family's magic.
	ErrMagic = errors.New("bad magic")
)

// Append appends one frame carrying payload to dst.
func Append(dst, payload []byte) []byte {
	start := len(dst)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(payload)))
	dst = append(dst, payload...)
	return binary.BigEndian.AppendUint32(dst, crc32.ChecksumIEEE(dst[start:]))
}

// Next checks the frame at the start of b and returns its payload, which
// aliases b with its capacity clipped, and the frame's size in bytes. A
// payload longer than max or a checksum mismatch is ErrCorrupt; b ending
// before the frame does is ErrTruncated. On error, size is still the size
// the length prefix declares when it could be read and is within max (0
// otherwise), so a caller can tell damage in the last frame of b, which an
// interrupted append can leave, from damage further in.
func Next(b []byte, max int) (payload []byte, size int, err error) {
	if len(b) < 4 {
		return nil, 0, fmt.Errorf("%w: %d of 4 length bytes", ErrTruncated, len(b))
	}
	n := binary.BigEndian.Uint32(b)
	if uint64(n) > uint64(max) {
		return nil, 0, fmt.Errorf("%w: length %d exceeds limit %d", ErrCorrupt, n, max)
	}
	end := 4 + int(n)
	if len(b) < end+4 {
		return nil, end + 4, fmt.Errorf("%w: %d of %d bytes", ErrTruncated, len(b), end+4)
	}
	if got, want := crc32.ChecksumIEEE(b[:end]), binary.BigEndian.Uint32(b[end:]); got != want {
		return nil, end + 4, fmt.Errorf("%w: checksum mismatch (%08x != %08x)", ErrCorrupt, got, want)
	}
	return b[4:end:end], end + 4, nil
}

// Split is Next without the checks, for bytes Next has already accepted.
func Split(b []byte) (payload []byte, size int) {
	end := 4 + int(binary.BigEndian.Uint32(b))
	return b[4:end:end], end + 4
}

// CheckMagic reports whether b opens with magic, whose last byte is an
// ASCII-digit version: nil on a match, ErrVersion when b opens with the
// same family and another digit, ErrMagic otherwise.
func CheckMagic(b []byte, magic string) error {
	got, v := b[:min(len(b), len(magic))], len(magic)-1
	switch {
	case string(got) == magic:
		return nil
	case len(got) == len(magic) && string(got[:v]) == magic[:v] && '0' <= got[v] && got[v] <= '9':
		return fmt.Errorf("%w %q (want %q)", ErrVersion, got, magic)
	}
	return fmt.Errorf("%w %q (want %q)", ErrMagic, got, magic)
}

// Publish atomically replaces path with data: it writes a temporary file in
// path's directory, fsyncs and closes it, renames it over path and fsyncs
// the directory. A crash leaves the old file or the whole new one, and once
// Publish returns nil the new file survives power loss. A failure before
// the rename removes the temporary file.
func Publish(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	_, err = tmp.Write(data)
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
		return err
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close() // opened only to fsync; Sync reports what matters
	return d.Sync()
}
