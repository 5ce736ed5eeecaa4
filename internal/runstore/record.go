// Package runstore is the persistent run ledger: every instrumented run
// finalizes into a content-addressed record — a deterministic manifest
// (flow, seed, identity-bearing flags, cache warmth, trace digest) plus the
// run's deterministic artifacts (report JSON, metrics snapshot, full JSONL
// trace) — stored as CRC-checked internal/frame frames in a file published
// by frame.Publish. The run ID is the hash of the manifest and trace bytes,
// so two identical runs (same seed and workload flags, at any -parallel
// worker count) collide into one record, and anything non-deterministic
// (wall time, worker count, fleet occupancy, flight tail) is quarantined in
// a per-attempt sidecar next to the record.
//
// The package depends only on the standard library so every layer above it
// (telemetry, cli, obs, cmd/tracestat) can import it freely.
package runstore

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"repro/internal/frame"
)

// FormatVersion is the manifest schema version recorded (and hashed) in
// every record. The on-disk framing carries its own version byte in the
// magic string.
const FormatVersion = 1

// recordMagic opens every record file; the trailing digit is the framing
// version, so a future format bump is rejected by name, not by a CRC
// mismatch deep inside the file.
const recordMagic = "RPRORUN1"

// maxSectionLen bounds one section's payload (manifest, report, metrics,
// trace). Real traces are a few hundred KB; the 1 GiB guard turns a
// corrupt length prefix into a clean error instead of an absurd allocation.
const maxSectionLen = 1 << 30

// sectionCount is the fixed number of length-prefixed sections in a record:
// manifest, report, metrics, an empty slot, trace — in that order. The slot
// once held harness counters; it is written empty and skipped on read, so
// the record bytes, and with them the stored records, stay as they were.
const sectionCount = 5

// Manifest is the deterministic identity of one run. Every field is
// derived from the run's inputs or its deterministic outputs — nothing
// here may depend on wall clock, scheduling or worker count — because the
// manifest bytes are half of the content address.
type Manifest struct {
	Version int    `json:"version"`
	Flow    string `json:"flow"`
	Seed    int64  `json:"seed"`
	// Flags is the resolved identity-bearing flag set: every flag the
	// binary defines except the shared scheduling and output flags
	// (-parallel, -trace, -metrics, -run-dir, …), which change how or
	// where, never what. A binary's own file flags (characterize's
	// -weights, -db, -patterns and -cycle-trace) are identity flags.
	Flags map[string]string `json:"flags,omitempty"`
	// CacheWarmth is the tier of persistent-cache reuse the run saw:
	// "none" (it opened no store: no -cache-dir, or a flow that ignores
	// it), "cold" (store opened, nothing loaded) or "warm" (prior entries
	// recovered). Warm and cold runs of the same workload produce different
	// disk-cache artifacts, so warmth is part of the identity.
	CacheWarmth string `json:"cache_warmth,omitempty"`
	// TraceDigest is the streaming FNV-1a 64 fingerprint of the trace bytes
	// ("fnv1a:%016x"), the cheap cross-check against the stored trace.
	TraceDigest string `json:"trace_digest,omitempty"`
}

// canonical returns the manifest's canonical bytes: encoding/json with its
// sorted map keys, which is deterministic for a given manifest value.
func (m Manifest) canonical() ([]byte, error) {
	b, err := json.Marshal(m)
	if err != nil {
		return nil, fmt.Errorf("runstore: encoding manifest: %w", err)
	}
	return b, nil
}

// Record is one run's full stored state. Report, Metrics and Trace hold
// the artifact bytes verbatim (JSON documents / the JSONL trace); empty
// slices mean the artifact was not produced.
type Record struct {
	Manifest Manifest
	Report   []byte // run report JSON (nd sections zeroed by the recorder)
	Metrics  []byte // metrics snapshot JSON (nd_ metrics stripped)
	Trace    []byte // the full JSONL trace
}

// RunID is the content address of a (manifest, trace) pair: the first 16
// bytes of SHA-256 over the canonical manifest bytes, a NUL separator and
// the trace bytes, hex-encoded. Identical runs — same flow, seed, identity
// flags, warmth and trace — get identical IDs at any worker count.
func RunID(m Manifest, trace []byte) (string, error) {
	cb, err := m.canonical()
	if err != nil {
		return "", err
	}
	h := sha256.New()
	h.Write(cb)
	h.Write([]byte{0})
	h.Write(trace)
	return hex.EncodeToString(h.Sum(nil)[:16]), nil
}

// ID returns the record's content address.
func (r *Record) ID() (string, error) {
	return RunID(r.Manifest, r.Trace)
}

// ReportTotals is the deterministic whole-run cost parsed back out of the
// stored report artifact, for listings that should not re-decode the full
// report schema.
type ReportTotals struct {
	Measurements int64   `json:"measurements"`
	Vectors      int64   `json:"vectors"`
	SimTimeSec   float64 `json:"sim_time_sec"`
}

// Totals parses the report artifact's "total" cost. ok is false when the
// record carries no report or the report does not parse.
func (r *Record) Totals() (t ReportTotals, ok bool) {
	if len(r.Report) == 0 {
		return ReportTotals{}, false
	}
	var rep struct {
		Total ReportTotals `json:"total"`
	}
	if err := json.Unmarshal(r.Report, &rep); err != nil {
		return ReportTotals{}, false
	}
	return rep.Total, true
}

// Encode renders the record in the versioned on-disk framing: the magic
// string, then the five sections (manifest, report, metrics, the empty
// slot, trace) as one frame each (internal/frame).
func (r *Record) Encode() ([]byte, error) {
	man, err := r.Manifest.canonical()
	if err != nil {
		return nil, err
	}
	sections := [sectionCount][]byte{man, r.Report, r.Metrics, nil, r.Trace}
	size := len(recordMagic)
	for _, sec := range sections {
		if len(sec) > maxSectionLen {
			return nil, fmt.Errorf("runstore: section of %d bytes exceeds the %d-byte limit", len(sec), maxSectionLen)
		}
		size += frame.Overhead + len(sec)
	}
	b := append(make([]byte, 0, size), recordMagic...)
	for _, sec := range sections {
		b = frame.Append(b, sec)
	}
	return b, nil
}

// Decode parses record bytes back into a Record. name labels errors (the
// file path at the store layer); every corruption error carries the byte
// offset it was detected at, cachestore-style. Trailing bytes after the
// last section are corruption, not slack.
func Decode(data []byte, name string) (*Record, error) {
	if err := frame.CheckMagic(data, recordMagic); err != nil {
		return nil, fmt.Errorf("runstore: %s: %w", name, err)
	}
	off := len(recordMagic)
	var sections [sectionCount][]byte
	for i := range sections {
		sec, size, err := frame.Next(data[off:], maxSectionLen)
		if err != nil {
			return nil, fmt.Errorf("runstore: %s: section %d at byte %d: %w", name, i, off, err)
		}
		sections[i] = sec
		off += size
	}
	if off != len(data) {
		return nil, fmt.Errorf("runstore: %s: %d trailing bytes after the last section at byte %d", name, len(data)-off, off)
	}
	rec := &Record{}
	if err := json.Unmarshal(sections[0], &rec.Manifest); err != nil {
		return nil, fmt.Errorf("runstore: %s: parsing manifest: %w", name, err)
	}
	rec.Report = cloneNonEmpty(sections[1])
	rec.Metrics = cloneNonEmpty(sections[2])
	rec.Trace = cloneNonEmpty(sections[4])
	return rec, nil
}

// cloneNonEmpty detaches a section from the backing file buffer; empty
// sections stay nil so Encode∘Decode is the identity on the encoded bytes.
func cloneNonEmpty(b []byte) []byte {
	if len(b) == 0 {
		return nil
	}
	return bytes.Clone(b)
}
