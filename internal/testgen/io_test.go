package testgen

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestVectorFileRoundTrip pins the pattern-file bytes: random tests, a
// March expansion and a test with idle cycles and off-nominal conditions
// must serialize to testdata/vectors.pat, the file an earlier build wrote
// and read back to the same tests.
func TestVectorFileRoundTrip(t *testing.T) {
	gen := newGen(51)
	tests := gen.Batch(5)
	march, err := MarchTest(MarchCMinus(), 0, 16, 0x55555555, NominalConditions())
	if err != nil {
		t.Fatal(err)
	}
	tests = append(tests, march)
	tests = append(tests, Test{
		Name: "with-nops",
		Seq:  Sequence{{Op: OpNop}, {Op: OpWrite, Addr: 1, Data: 2}, {Op: OpNop}, {Op: OpRead, Addr: 1}},
		Cond: Conditions{VddV: 1.62, TempC: -40, ClockMHz: 133},
	})

	var buf bytes.Buffer
	if err := WriteTests(&buf, tests); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "vectors.pat"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("WriteTests wrote %d bytes that differ from the %d of testdata/vectors.pat", buf.Len(), len(want))
	}
}

func TestWriteTestsValidation(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteTests(&buf, []Test{{Name: ""}}); err == nil {
		t.Error("unnamed test accepted")
	}
	if err := WriteTests(&buf, []Test{{Name: "has\nnewline"}}); err == nil {
		t.Error("newline name accepted")
	}
	if err := WriteTests(&buf, []Test{{Name: "x", Seq: Sequence{{Op: OpKind(9)}}}}); err == nil {
		t.Error("unknown op accepted")
	}
}
