// Structured event tracing. A Tracer emits a flat JSONL stream of spans
// and events forming the run → phase → task hierarchy of one
// characterization run: SUTP searches, GA generations, ensemble training
// rounds, shmoo sweeps, lot screens.
//
// The determinism contract mirrors internal/parallel's: event payloads
// carry only logical counters (task indices, generation numbers,
// measurement counts, trip points) — never wall-clock values, goroutine
// ids or map-ordered data — and instrumented code emits events only from
// deterministic program points (serial sections and task-order merge
// loops, never from racing workers). Under that contract the byte stream
// is identical for any `-parallel` worker count.
package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"sync"
)

// Field is one key/value pair of an event payload. Fields are encoded in
// the order given, so a fixed call site produces a fixed byte sequence.
type Field struct {
	Key   string
	Value any // int, int64, float64, string or bool
}

// I builds an integer field.
func I[T ~int | ~int64](key string, v T) Field { return Field{Key: key, Value: int64(v)} }

// F builds a float field.
func F(key string, v float64) Field { return Field{Key: key, Value: v} }

// S builds a string field.
func S(key string, v string) Field { return Field{Key: key, Value: v} }

// B builds a boolean field.
func B(key string, v bool) Field { return Field{Key: key, Value: v} }

// Tracer writes the JSONL event stream. A nil *Tracer is a valid no-op
// tracer: every method is nil-receiver-safe, so instrumented code never
// needs an enabled-check. Emission is serialized by an internal mutex;
// the determinism contract above is the caller's responsibility.
type Tracer struct {
	mu     sync.Mutex
	w      *bufio.Writer
	closer io.Closer
	seq    int64
	err    error // first write error; subsequent emits are dropped

	// fp is the running FNV-1a 64 digest of every emitted byte — the
	// deterministic run fingerprint. Because the stream carries only logical
	// counters, the final digest is identical for any -parallel worker count.
	fp uint64
}

// FNV-1a 64 parameters (the same hash family internal/parallel's memo-cache
// keys use), unrolled here to keep the hot path allocation-free.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// NewTracer traces onto an arbitrary io.Writer sink (a bytes.Buffer in
// tests, os.Stderr for ad-hoc debugging). A nil writer yields a no-op
// tracer.
func NewTracer(w io.Writer) *Tracer {
	if w == nil {
		return nil
	}
	return &Tracer{w: bufio.NewWriter(w), fp: fnvOffset64}
}

// Fingerprint returns the FNV-1a 64 digest of every byte emitted so far,
// rendered "fnv1a:%016x". After the final emission (run-span end) it is
// the digest of the whole trace file. A nil tracer returns "".
func (t *Tracer) Fingerprint() string {
	if t == nil {
		return ""
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return fmt.Sprintf("fnv1a:%016x", t.fp)
}

// NewFileTracer traces into a JSONL file sink, truncating any existing
// file, and into also as well when it is not nil. Close flushes and closes
// the file; a failed write to either sink fails Close.
func NewFileTracer(path string, also io.Writer) (*Tracer, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	var w io.Writer = f
	if also != nil {
		w = io.MultiWriter(f, also)
	}
	t := NewTracer(w)
	t.closer = f
	return t, nil
}

// Close flushes buffered events and closes a file-backed sink.
func (t *Tracer) Close() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.w.Flush(); err != nil && t.err == nil {
		t.err = err
	}
	if t.closer != nil {
		if err := t.closer.Close(); err != nil && t.err == nil {
			t.err = err
		}
		t.closer = nil
	}
	return t.err
}

// Span is one node of the run → phase → task hierarchy. The zero id (from
// a nil tracer) is a no-op span.
type Span struct {
	t      *Tracer
	id     int64
	parent int64
	name   string
}

// StartSpan opens a root-level span.
func (t *Tracer) StartSpan(name string, fields ...Field) *Span {
	return t.startSpan(0, name, fields)
}

func (t *Tracer) startSpan(parent int64, name string, fields []Field) *Span {
	if t == nil {
		return nil
	}
	id := t.emit("start", 0, parent, name, fields)
	return &Span{t: t, id: id, parent: parent, name: name}
}

// Child opens a sub-span.
func (s *Span) Child(name string, fields ...Field) *Span {
	if s == nil {
		return nil
	}
	return s.t.startSpan(s.id, name, fields)
}

// Event records a point event inside the span.
func (s *Span) Event(name string, fields ...Field) {
	if s == nil {
		return
	}
	s.t.emit("event", s.id, 0, name, fields)
}

// End closes the span; the fields carry its summary payload (cost
// counters, outcome).
func (s *Span) End(fields ...Field) {
	if s == nil {
		return
	}
	s.t.emit("end", s.id, 0, s.name, fields)
}

// emit writes one JSONL line and returns its sequence number (which doubles
// as the span id for "start" lines).
func (t *Tracer) emit(kind string, span, parent int64, name string, fields []Field) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.seq++
	seq := t.seq
	if t.err != nil {
		return seq
	}
	var b []byte
	b = append(b, `{"seq":`...)
	b = strconv.AppendInt(b, seq, 10)
	b = append(b, `,"ev":"`...)
	b = append(b, kind...)
	b = append(b, '"')
	if kind == "start" {
		b = append(b, `,"span":`...)
		b = strconv.AppendInt(b, seq, 10)
		if parent != 0 {
			b = append(b, `,"parent":`...)
			b = strconv.AppendInt(b, parent, 10)
		}
	} else if span != 0 {
		b = append(b, `,"span":`...)
		b = strconv.AppendInt(b, span, 10)
	}
	b = append(b, `,"name":`...)
	b = appendJSONString(b, name)
	for _, f := range fields {
		b = append(b, ',')
		b = appendJSONString(b, f.Key)
		b = append(b, ':')
		b = appendValue(b, f.Value)
	}
	b = append(b, '}', '\n')
	for _, c := range b {
		t.fp = (t.fp ^ uint64(c)) * fnvPrime64
	}
	if _, err := t.w.Write(b); err != nil {
		t.err = err
	}
	return seq
}

// appendValue encodes one payload value deterministically.
func appendValue(b []byte, v any) []byte {
	switch x := v.(type) {
	case int:
		return strconv.AppendInt(b, int64(x), 10)
	case int64:
		return strconv.AppendInt(b, x, 10)
	case float64:
		return appendJSONFloat(b, x)
	case bool:
		return strconv.AppendBool(b, x)
	case string:
		return appendJSONString(b, x)
	default:
		// Unknown types would smuggle nondeterminism (maps, pointers);
		// refuse them loudly in the stream instead of panicking mid-run.
		return append(b, `"INVALID_FIELD_TYPE"`...)
	}
}

// appendJSONFloat writes the shortest round-trip decimal form, byte-for-byte
// matching encoding/json for finite values (pinned by a property test):
// fixed-point notation in the human range, exponent notation outside it,
// with the exponent's leading zero trimmed. Non-finite values (invalid
// JSON) are written as quoted strings.
func appendJSONFloat(b []byte, f float64) []byte {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return strconv.AppendQuote(b, strconv.FormatFloat(f, 'g', -1, 64))
	}
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// appendJSONString writes a JSON string using encoding/json's escaper, which
// is deterministic for a given input.
func appendJSONString(b []byte, s string) []byte {
	enc, err := json.Marshal(s)
	if err != nil { // cannot happen for strings
		return strconv.AppendQuote(b, s)
	}
	return append(b, enc...)
}
