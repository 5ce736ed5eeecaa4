package telemetry

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestTracerEmitsValidJSONL(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf)
	root := tr.StartSpan("run", S("run", "unit"))
	phase := root.Child("phase", S("phase", "learn"))
	phase.Event("measurement", I("i", 0), F("trip", 23.45), B("converged", true))
	phase.End(I("measurements", 7))
	root.End()
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 5 {
		t.Fatalf("got %d lines, want 5:\n%s", len(lines), buf.String())
	}
	var prevSeq float64
	for i, line := range lines {
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("line %d is not valid JSON: %v\n%s", i, err, line)
		}
		seq := m["seq"].(float64)
		if seq <= prevSeq {
			t.Errorf("line %d seq %g not increasing past %g", i, seq, prevSeq)
		}
		prevSeq = seq
	}
	var ev map[string]any
	if err := json.Unmarshal([]byte(lines[2]), &ev); err != nil {
		t.Fatal(err)
	}
	if ev["ev"] != "event" || ev["name"] != "measurement" || ev["trip"] != 23.45 || ev["converged"] != true {
		t.Errorf("event payload wrong: %v", ev)
	}
	var start map[string]any
	if err := json.Unmarshal([]byte(lines[1]), &start); err != nil {
		t.Fatal(err)
	}
	if start["parent"] != float64(1) {
		t.Errorf("child span parent = %v, want 1", start["parent"])
	}
}

func TestNilTracerIsInert(t *testing.T) {
	var tr *Tracer
	sp := tr.StartSpan("x")
	sp.Event("y", I("a", 1))
	sp.Child("z").End()
	sp.End()
	if err := tr.Close(); err != nil {
		t.Errorf("nil tracer Close: %v", err)
	}
	if NewTracer(nil) != nil {
		t.Error("NewTracer(nil) should return the nil no-op tracer")
	}
}

func TestTracerByteIdenticalReplays(t *testing.T) {
	emit := func() []byte {
		var buf bytes.Buffer
		tr := NewTracer(&buf)
		root := tr.StartSpan("run")
		for g := 0; g < 3; g++ {
			root.Event("generation", I("gen", int64(g)), F("best", 1.0/float64(g+1)))
		}
		root.End()
		tr.Close()
		return buf.Bytes()
	}
	if !bytes.Equal(emit(), emit()) {
		t.Error("identical emission sequences produced different bytes")
	}
}

func TestTracerFieldEncoding(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf)
	tr.StartSpan("s",
		S("quoted", `a"b\c`),
		F("tiny", 1e-9),
		F("neg", -2.5),
		I("int", -7),
		Field{Key: "plain_int", Value: 3},
		Field{Key: "bad", Value: []int{1}},
	)
	tr.Close()
	line := strings.TrimSpace(buf.String())
	var m map[string]any
	if err := json.Unmarshal([]byte(line), &m); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, line)
	}
	if m["quoted"] != `a"b\c` {
		t.Errorf("string escaping broken: %v", m["quoted"])
	}
	if m["tiny"] != 1e-9 || m["neg"] != -2.5 || m["int"] != float64(-7) || m["plain_int"] != float64(3) {
		t.Errorf("numeric encoding broken: %v", m)
	}
	if m["bad"] != "INVALID_FIELD_TYPE" {
		t.Errorf("unknown type not flagged: %v", m["bad"])
	}
}

func TestFileTracer(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	tr, err := NewFileTracer(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	tr.StartSpan("run").End()
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(bytes.NewReader(data))
	n := 0
	for sc.Scan() {
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("line %d invalid: %v", n, err)
		}
		n++
	}
	if n != 2 {
		t.Errorf("file has %d lines, want 2", n)
	}
}
