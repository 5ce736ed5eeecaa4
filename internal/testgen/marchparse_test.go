package testgen

import (
	"reflect"
	"slices"
	"testing"
)

func TestParseMarchASCIIEquivalentToBuiltin(t *testing.T) {
	parsed, err := ParseMarch("March C-", "a(w0); u(r0,w1); u(r1,w0); d(r0,w1); d(r1,w0); a(r0)")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(parsed.Elements, MarchCMinus().Elements) {
		t.Error("parsed March C- differs from the built-in definition")
	}
}

func TestParseMarchUnicodeArrows(t *testing.T) {
	parsed, err := ParseMarch("March C-", "{⇕(w0); ⇑(r0,w1); ⇑(r1,w0); ⇓(r0,w1); ⇓(r1,w0); ⇕(r0)}")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(parsed.Elements, MarchCMinus().Elements) {
		t.Error("unicode notation parse differs from the built-in definition")
	}
}

func TestParseMarchErrors(t *testing.T) {
	cases := map[string]string{
		"empty":       "",
		"no marker":   "(w0)",
		"no parens":   "u w0",
		"empty ops":   "u()",
		"unknown op":  "u(w2)",
		"braces only": "{}",
	}
	for name, notation := range cases {
		if _, err := ParseMarch("x", notation); err == nil {
			t.Errorf("%s: notation %q accepted", name, notation)
		}
	}
}

func TestFormatMarchRoundTrip(t *testing.T) {
	for _, name := range MarchLibraryNames() {
		alg := libraryMarch(t, name)
		notation := FormatMarch(alg)
		parsed, err := ParseMarch(alg.Name, notation)
		if err != nil {
			t.Fatalf("%s: %v", alg.Name, err)
		}
		if !reflect.DeepEqual(parsed.Elements, alg.Elements) {
			t.Errorf("%s: round trip through %q changed the algorithm", alg.Name, notation)
		}
	}
}

func TestMarchLibrary(t *testing.T) {
	names := MarchLibraryNames()
	if len(names) < 8 {
		t.Fatalf("library has only %d algorithms", len(names))
	}
	if !slices.IsSorted(names) {
		t.Errorf("library names %q are not sorted", names)
	}
	wantComplexities := map[string]int{
		"MATS":     4,
		"MATS+":    5,
		"MATS++":   6,
		"March X":  6,
		"March Y":  8,
		"March C-": 10,
		"March A":  15,
		"March B":  17,
		"March SS": 22,
		"March LR": 14,
	}
	for _, name := range names {
		alg, err := MarchFromLibrary(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if want, ok := wantComplexities[name]; ok && alg.Complexity() != want {
			t.Errorf("%s complexity %dN, want %dN", name, alg.Complexity(), want)
		}
		// Every library algorithm must expand to a valid test.
		tt, err := MarchTest(alg, 0, 16, 0x55555555, NominalConditions())
		if err != nil {
			t.Fatalf("%s expansion: %v", name, err)
		}
		if err := tt.Seq.Validate(4096); err != nil {
			t.Fatalf("%s expansion invalid: %v", name, err)
		}
	}
	if _, err := MarchFromLibrary("March Z"); err == nil {
		t.Error("unknown library name accepted")
	}
}

// TestLibraryCMinusMatchesBuiltin pins March C- and March B, element by
// element, against the definitions in the literature.
func TestLibraryCMinusMatchesBuiltin(t *testing.T) {
	w0 := MarchOp{Write: true, Background: true}
	w1 := MarchOp{Write: true, Background: false}
	r0 := MarchOp{Write: false, Background: true}
	r1 := MarchOp{Write: false, Background: false}
	cases := []struct {
		alg  MarchAlgorithm
		name string
		want []MarchElement
	}{
		{MarchCMinus(), "March C-", []MarchElement{
			{OrderAny, []MarchOp{w0}},
			{OrderUp, []MarchOp{r0, w1}},
			{OrderUp, []MarchOp{r1, w0}},
			{OrderDown, []MarchOp{r0, w1}},
			{OrderDown, []MarchOp{r1, w0}},
			{OrderAny, []MarchOp{r0}},
		}},
		{libraryMarch(t, "March B"), "March B", []MarchElement{
			{OrderAny, []MarchOp{w0}},
			{OrderUp, []MarchOp{r0, w1, r1, w0, r0, w1}},
			{OrderUp, []MarchOp{r1, w0, w1}},
			{OrderDown, []MarchOp{r1, w0, w1, w0}},
			{OrderDown, []MarchOp{r0, w1, w0}},
		}},
	}
	for _, c := range cases {
		if c.alg.Name != c.name {
			t.Errorf("algorithm named %q, want %q", c.alg.Name, c.name)
		}
		if !reflect.DeepEqual(c.alg.Elements, c.want) {
			t.Errorf("%s elements %v, want %v", c.name, c.alg.Elements, c.want)
		}
	}
}

// libraryMarch instantiates a library algorithm or fails the test.
func libraryMarch(t testing.TB, name string) MarchAlgorithm {
	t.Helper()
	alg, err := MarchFromLibrary(name)
	if err != nil {
		t.Fatal(err)
	}
	return alg
}
