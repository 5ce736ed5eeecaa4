// Command marchgen expands March algorithms into runnable pattern files.
// Algorithms come from the built-in library (MATS, MATS+, MATS++, March
// X/Y/A/B/C-/SS/LR) or from element notation given on the command line,
// using either the ⇑/⇓/⇕ arrows of the literature or the ASCII u/d/a
// fallbacks.
//
// Usage:
//
//	marchgen -list
//	marchgen -alg "March C-" -words 100 -o marchc.pat
//	marchgen -notation "a(w0); u(r0,w1); d(r1,w0)" -name my-march -words 64
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"repro/internal/ate"
	"repro/internal/cli"
	"repro/internal/frame"
	"repro/internal/telemetry"
	"repro/internal/testgen"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("marchgen: ")

	common := cli.Register(nil)
	var (
		list     = flag.Bool("list", false, "list the built-in algorithm library")
		algName  = flag.String("alg", "", "library algorithm to expand")
		notation = flag.String("notation", "", "explicit element notation to parse instead of -alg")
		name     = flag.String("name", "custom", "algorithm name for -notation")
		base     = flag.Uint("base", 0, "first address of the expansion window")
		words    = flag.Uint("words", 100, "window width in words")
		bg       = flag.Uint("background", 0x55555555, "data background")
		vdd      = flag.Float64("vdd", 1.8, "supply condition (V)")
		out      = flag.String("o", "", "output pattern file (default stdout)")
	)
	flag.Parse()
	expand := func(tel *telemetry.Telemetry) (ate.Stats, error) {
		var alg testgen.MarchAlgorithm
		var err error
		switch {
		case *notation != "":
			alg, err = testgen.ParseMarch(*name, *notation)
		case *algName != "":
			alg, err = testgen.MarchFromLibrary(*algName)
		default:
			return ate.Stats{}, fmt.Errorf("need -list, -alg or -notation")
		}
		if err != nil {
			return ate.Stats{}, err
		}

		cond := testgen.NominalConditions()
		cond.VddV = *vdd
		test, err := testgen.MarchTest(alg, uint32(*base), uint32(*words), uint32(*bg), cond)
		if err != nil {
			return ate.Stats{}, err
		}

		write := func(w io.Writer) error { return testgen.WriteTests(w, []testgen.Test{test}) }
		if *out == "" {
			err = write(os.Stdout)
		} else {
			err = frame.PublishWith(*out, write)
		}
		if err != nil {
			return ate.Stats{}, err
		}
		fmt.Fprintf(os.Stderr, "marchgen: %s expanded to %d vectors (%dN over %d words)\n",
			alg.Name, len(test.Seq), alg.Complexity(), *words)

		tel.StartPhase("march-expand").End(telemetry.Cost{Vectors: int64(len(test.Seq))})
		return ate.Stats{VectorsApplied: int64(len(test.Seq))}, nil
	}
	common.Main(func() error {
		if !*list {
			return common.Run("marchgen", os.Stdout, expand)
		}
		// The library listing is not a run: it starts no profile or telemetry.
		fmt.Printf("%-10s %-5s %s\n", "name", "kN", "notation")
		for _, n := range testgen.MarchLibraryNames() {
			alg, err := testgen.MarchFromLibrary(n)
			if err != nil {
				return err
			}
			fmt.Printf("%-10s %2dN   %s\n", n, alg.Complexity(), testgen.FormatMarch(alg))
		}
		return nil
	})
}
