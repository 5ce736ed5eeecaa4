package testgen_test

import (
	"fmt"
	"os"

	"repro/internal/testgen"
)

// ExampleParseMarch parses the literature's element notation into a
// runnable March algorithm.
func ExampleParseMarch() {
	alg, err := testgen.ParseMarch("March C-",
		"a(w0); u(r0,w1); u(r1,w0); d(r0,w1); d(r1,w0); a(r0)")
	if err != nil {
		panic(err)
	}
	fmt.Printf("%s is a %dN algorithm: %s\n", alg.Name, alg.Complexity(), testgen.FormatMarch(alg))
	// Output: March C- is a 10N algorithm: a(w0); u(r0,w1); u(r1,w0); d(r0,w1); d(r1,w0); a(r0)
}

// ExampleMarchTest expands an algorithm over an address window into the
// vector sequence an ATE applies.
func ExampleMarchTest() {
	alg, err := testgen.MarchFromLibrary("MATS+")
	if err != nil {
		panic(err)
	}
	t, err := testgen.MarchTest(alg, 0, 4, 0, testgen.NominalConditions())
	if err != nil {
		panic(err)
	}
	fmt.Printf("%d vectors; first four:\n", len(t.Seq))
	for _, v := range t.Seq[:4] {
		fmt.Println(v)
	}
	// Output:
	// 20 vectors; first four:
	// W @0000=00000000
	// W @0001=00000000
	// W @0002=00000000
	// W @0003=00000000
}

// ExampleWriteTests serializes a test to the text vector-file format.
func ExampleWriteTests() {
	t := testgen.Test{
		Name: "demo",
		Seq: testgen.Sequence{
			{Op: testgen.OpWrite, Addr: 4, Data: 0xDEADBEEF},
			{Op: testgen.OpRead, Addr: 4},
		},
		Cond: testgen.NominalConditions(),
	}
	if err := testgen.WriteTests(os.Stdout, []testgen.Test{t}); err != nil {
		panic(err)
	}
	// Output:
	// test demo
	// cond vdd=1.8 temp=25 clock=100
	// W 4 DEADBEEF
	// R 4
	// end
}
