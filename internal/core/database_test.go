package core

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/ate"
	"repro/internal/testgen"
	"repro/internal/wcr"
)

func sampleEntry(name string, w float64) Entry {
	return Entry{
		Test: testgen.Test{
			Name: name,
			Seq: testgen.Sequence{
				{Op: testgen.OpWrite, Addr: 1, Data: 0xFF},
				{Op: testgen.OpRead, Addr: 1},
			},
			Cond: testgen.NominalConditions(),
		},
		Value: 20 / w,
		WCR:   w,
		Class: wcr.Classify(w),
	}
}

func TestDatabaseAddAndWorst(t *testing.T) {
	db := NewDatabase(ate.TDQ)
	db.Add(sampleEntry("a", 0.7))
	db.Add(sampleEntry("b", 0.95))
	db.Add(sampleEntry("c", 0.6))
	if db.Len() != 3 {
		t.Fatalf("len = %d", db.Len())
	}
	worst, ok := db.Worst()
	if !ok || worst.Test.Name != "b" {
		t.Errorf("worst = %+v, %v", worst.Test.Name, ok)
	}
}

func TestDatabaseDedupKeepsWorse(t *testing.T) {
	db := NewDatabase(ate.TDQ)
	db.Add(sampleEntry("a", 0.7))
	db.Add(sampleEntry("a", 0.9))
	db.Add(sampleEntry("a", 0.8))
	if db.Len() != 1 {
		t.Fatalf("len = %d after duplicate adds", db.Len())
	}
	if db.Entries[0].WCR != 0.9 {
		t.Errorf("kept WCR %g, want the worse 0.9", db.Entries[0].WCR)
	}
}

func TestDatabaseSort(t *testing.T) {
	db := NewDatabase(ate.TDQ)
	db.Add(sampleEntry("a", 0.7))
	db.Add(sampleEntry("b", 0.95))
	db.Add(sampleEntry("c", 0.6))
	db.Sort()
	if db.Entries[0].Test.Name != "b" || db.Entries[2].Test.Name != "c" {
		t.Error("sort order wrong")
	}
	// Index still valid after sort: dedup continues to work.
	db.Add(sampleEntry("c", 0.99))
	if db.Len() != 3 {
		t.Error("index broken after sort")
	}
	if e := db.Entries[db.Len()-1]; e.Test.Name == "c" && e.WCR != 0.99 {
		t.Error("update after sort failed")
	}
}

func TestDatabaseEmptyWorst(t *testing.T) {
	db := NewDatabase(ate.TDQ)
	if _, ok := db.Worst(); ok {
		t.Error("empty database has a worst entry")
	}
}

func TestDatabaseJSONRoundTrip(t *testing.T) {
	db := NewDatabase(ate.TDQ)
	db.Add(sampleEntry("GA-1", 0.93))
	db.Add(sampleEntry("GA-2", 0.81))
	db.AddFunctionalFailure(testgen.Test{
		Name: "FF-1",
		Seq:  testgen.Sequence{{Op: testgen.OpRead, Addr: 2}},
		Cond: testgen.NominalConditions(),
	})

	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "T_DQ") {
		t.Error("parameter name missing from JSON")
	}

	loaded, err := LoadDatabase(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Parameter != ate.TDQ {
		t.Error("parameter lost")
	}
	if loaded.Len() != 2 || len(loaded.Functional) != 1 {
		t.Fatalf("loaded %d entries, %d functional", loaded.Len(), len(loaded.Functional))
	}
	e := loaded.Entries[0]
	if e.Test.Name != "GA-1" || e.WCR != 0.93 || e.Class != wcr.Weakness {
		t.Errorf("entry mangled: %+v", e)
	}
	if len(e.Test.Seq) != 2 || e.Test.Seq[0].Op != testgen.OpWrite || e.Test.Seq[0].Data != 0xFF {
		t.Errorf("sequence mangled: %v", e.Test.Seq)
	}
	if e.Test.Cond != testgen.NominalConditions() {
		t.Errorf("conditions mangled: %+v", e.Test.Cond)
	}
}

func TestDatabaseFileRoundTrip(t *testing.T) {
	db := NewDatabase(ate.Fmax)
	db.Add(sampleEntry("x", 0.88))
	path := filepath.Join(t.TempDir(), "db.json")
	if err := db.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadDatabaseFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Parameter != ate.Fmax || loaded.Len() != 1 {
		t.Error("file round trip mangled database")
	}
}

// TestDatabaseSaveFileKeepsPreviousOnEncodeError: a database that cannot be
// encoded (a NaN WCR) must fail to save without touching the file an
// earlier save left, which 'lotchar -db' and 'shmoo -db' read back.
func TestDatabaseSaveFileKeepsPreviousOnEncodeError(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "db.json")
	good := NewDatabase(ate.TDQ)
	good.Add(sampleEntry("GA-1", 0.93))
	if err := good.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	bad := NewDatabase(ate.TDQ)
	bad.Add(sampleEntry("GA-2", math.NaN()))
	if err := bad.SaveFile(path); err == nil {
		t.Fatal("NaN database saved without error")
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("failed save changed the file: %d bytes, was %d", len(got), len(want))
	}
	if ents, _ := os.ReadDir(dir); len(ents) != 1 {
		t.Errorf("failed save left %d files in the directory, want 1", len(ents))
	}
}

func TestLoadDatabaseRejectsBadInput(t *testing.T) {
	if _, err := LoadDatabase(bytes.NewBufferString("nope")); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := LoadDatabase(bytes.NewBufferString(`{"parameter":"bogus"}`)); err == nil {
		t.Error("unknown parameter accepted")
	}
	// The file names a parameter by its display name, not its flag value.
	if _, err := LoadDatabase(bytes.NewBufferString(`{"parameter":"tdq"}`)); err == nil {
		t.Error("flag value accepted as a parameter name")
	}
	for p := range ate.Parameter(ate.NumParameters) {
		var buf bytes.Buffer
		if err := NewDatabase(p).Save(&buf); err != nil {
			t.Fatal(err)
		}
		if d, err := LoadDatabase(&buf); err != nil || d.Parameter != p {
			t.Errorf("%v database loaded as %v (%v)", p, d, err)
		}
	}
	bad := `{"parameter":"T_DQ","entries":[{"test":{"name":"x","cond":{},"seq":[[9,0,0]]},"wcr":1}]}`
	if _, err := LoadDatabase(bytes.NewBufferString(bad)); err == nil {
		t.Error("invalid op code accepted")
	}
}
