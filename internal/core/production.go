package core

import (
	"fmt"
	"strings"

	"repro/internal/ate"
	"repro/internal/dut"
	"repro/internal/testgen"
)

// Production test program generation — the §1 endgame: "this set of
// information helps to define the final device specification at the end of
// the characterization phase, and develop a production test program in
// manufacturing test."
//
// A production program is a short list of screens, each a single pass/fail
// measurement of one pattern at a fixed limit (production testing "stops
// testing on first fail", §1). The value of the CI characterization flow
// is measurable here: a program screening only with March patterns ships
// *escapes* — dies whose worst-case window violates the spec even though
// every March window clears it — while a program that includes the
// CI-found worst-case test catches them.

// Screen is one production measurement: apply the pattern once, compare
// the parameter against the limit.
type Screen struct {
	Test testgen.Test
	// LimitValue is the pass threshold in the parameter's unit: for a
	// minimum-spec parameter the device must measure at or above it.
	LimitValue float64
}

// ProductionProgram is an ordered screen list for one parameter.
type ProductionProgram struct {
	Parameter ate.Parameter
	Screens   []Screen
}

// BuildProductionProgram assembles a program from the given patterns: each
// screen's limit is the specification tightened toward the pass side by the
// guardband fraction (for a minimum spec, limit = spec × (1 + guardband)).
func BuildProductionProgram(param ate.Parameter, tests []testgen.Test, guardband float64) (*ProductionProgram, error) {
	if int(param) >= ate.NumParameters {
		return nil, fmt.Errorf("core: unknown parameter %v", param)
	}
	if len(tests) == 0 {
		return nil, fmt.Errorf("core: production program needs at least one screen pattern")
	}
	if guardband < 0 || guardband >= 1 {
		return nil, fmt.Errorf("core: guardband %g outside [0, 1)", guardband)
	}
	spec := param.Spec()
	limit := spec.GuardBand(spec.Limit, guardband)
	p := &ProductionProgram{Parameter: param}
	for _, t := range tests {
		p.Screens = append(p.Screens, Screen{Test: t, LimitValue: limit})
	}
	return p, nil
}

// DieVerdict is one die's production outcome plus the characterization
// ground truth.
type DieVerdict struct {
	DieID  int
	Corner dut.Corner
	// Passed is the production program's verdict (stop on first fail).
	Passed bool
	// FailedScreen names the screen that rejected the die ("" if passed).
	FailedScreen string
	// TrulyDefective is the oracle: the die's window under the reference
	// worst-case test violates the specification.
	TrulyDefective bool
	// Measurements spent on this die (≤ number of screens).
	Measurements int64
}

// ProductionResult aggregates a production run over a lot.
type ProductionResult struct {
	Program *ProductionProgram
	Dies    []DieVerdict

	Yield float64 // fraction of dies shipped
	// Escapes: shipped dies that are truly defective — the cost of an
	// incomplete program.
	Escapes int
	// Overkill: rejected dies that are actually fine.
	Overkill     int
	Defective    int // ground-truth defective dies in the lot
	Measurements int64
}

// Format renders the production summary.
func (r *ProductionResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Production run: %d dies, %d screens (%s)\n",
		len(r.Dies), len(r.Program.Screens), r.Program.Parameter)
	fmt.Fprintf(&b, "yield %.1f%%, defective %d, escapes %d, overkill %d, %d measurements\n",
		r.Yield*100, r.Defective, r.Escapes, r.Overkill, r.Measurements)
	return b.String()
}

// RunProduction screens every die of the lot with the program and judges
// the outcome against the ground-truth oracle test (the characterization-
// found worst case). Production measurements are single-shot (no search):
// apply the pattern, strobe at the limit, bin on first fail.
func RunProduction(program *ProductionProgram, oracle testgen.Test, dies []*dut.Die, geom dut.Geometry, baseSeed int64) (*ProductionResult, error) {
	if program == nil || len(program.Screens) == 0 {
		return nil, fmt.Errorf("core: empty production program")
	}
	if len(dies) == 0 {
		return nil, fmt.Errorf("core: empty lot")
	}
	spec := program.Parameter.Spec()

	res := &ProductionResult{Program: program}
	shipped := 0
	for _, die := range dies {
		dev, err := dut.NewDevice(geom, die)
		if err != nil {
			return nil, err
		}
		tester := ate.New(dev, baseSeed+int64(die.ID))

		v := DieVerdict{DieID: die.ID, Corner: die.Corner, Passed: true}
		for _, s := range program.Screens {
			ok, err := tester.MeasurePass(program.Parameter, s.Test, s.LimitValue)
			if err != nil {
				return nil, fmt.Errorf("core: die %d screen %s: %w", die.ID, s.Test.Name, err)
			}
			v.Measurements++
			if !ok {
				v.Passed = false
				v.FailedScreen = s.Test.Name
				break // production bins on first fail
			}
		}

		// Ground truth: the oracle worst-case pattern's true parameter
		// value on this die (noise-free, via the simulator's oracle path).
		p, err := dev.Profile(oracle)
		if err != nil {
			return nil, err
		}
		v.TrulyDefective = spec.Worse(program.Parameter.TrueValue(p), spec.Limit)

		if v.Passed {
			shipped++
			if v.TrulyDefective {
				res.Escapes++
			}
		} else if !v.TrulyDefective {
			res.Overkill++
		}
		if v.TrulyDefective {
			res.Defective++
		}
		res.Measurements += v.Measurements
		res.Dies = append(res.Dies, v)
	}
	res.Yield = float64(shipped) / float64(len(dies))
	return res, nil
}
