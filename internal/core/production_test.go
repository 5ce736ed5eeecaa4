package core

import (
	"strings"
	"testing"

	"repro/internal/ate"
	"repro/internal/dut"
	"repro/internal/testgen"
)

// worstCasePattern is the coordinated pattern the CI flow discovers.
func worstCasePattern() testgen.Test {
	words := dut.DefaultGeometry().Words()
	seq := make(testgen.Sequence, 0, 800)
	for i := 0; i < 200; i++ {
		base := uint32(0)
		if i%2 == 1 {
			base = words - 2
		}
		seq = append(seq,
			testgen.Vector{Op: testgen.OpWrite, Addr: base, Data: 0},
			testgen.Vector{Op: testgen.OpWrite, Addr: base + 1, Data: 0xFFFFFFFF},
		)
	}
	return testgen.Test{Name: "WORST", Seq: seq, Cond: testgen.NominalConditions()}
}

func marchPattern(t *testing.T) testgen.Test {
	t.Helper()
	m, err := testgen.MarchTest(testgen.MarchCMinus(), 0, 100, 0x55555555, testgen.NominalConditions())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// slowLot builds a lot with marginal process outliers: every third die is
// a slow-corner sample with an extra −3 ns window shift, making it truly
// defective under the worst case (window below 20 ns) while its March
// windows stay comfortably above any production limit.
func slowLot(n int) []*dut.Die {
	lot := make([]*dut.Die, n)
	for i := range lot {
		if i%3 == 0 {
			lot[i] = dut.NewDie(i, dut.CornerSlow, dut.WithExtraTDQOffsetNS(-3))
		} else {
			lot[i] = dut.NewDie(i, dut.CornerTypical)
		}
	}
	return lot
}

func TestBuildProductionProgramValidation(t *testing.T) {
	if _, err := BuildProductionProgram(ate.TDQ, nil, 0.02); err == nil {
		t.Error("empty program accepted")
	}
	if _, err := BuildProductionProgram(ate.TDQ, []testgen.Test{worstCasePattern()}, 1.5); err == nil {
		t.Error("absurd guardband accepted")
	}
}

// TestBuildProductionProgramRejectsUnknownParameter: a parameter outside
// the tester's table has no spec to guard-band, so no program is built.
func TestBuildProductionProgramRejectsUnknownParameter(t *testing.T) {
	p, err := BuildProductionProgram(ate.Parameter(7), []testgen.Test{worstCasePattern()}, 0.02)
	if err == nil || !strings.Contains(err.Error(), "unknown parameter Parameter(7)") {
		t.Errorf("got program %v, error %v; want an error naming Parameter(7)", p, err)
	}
}

func TestProductionLimitDirections(t *testing.T) {
	p, err := BuildProductionProgram(ate.TDQ, []testgen.Test{worstCasePattern()}, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	if p.Screens[0].LimitValue <= 20 {
		t.Errorf("min-spec production limit %.2f not above the 20 ns spec", p.Screens[0].LimitValue)
	}
	pmax, err := BuildProductionProgram(ate.VddMin, []testgen.Test{worstCasePattern()}, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	spec := ate.VddMin.Spec().Limit
	if pmax.Screens[0].LimitValue >= spec {
		t.Errorf("max-spec production limit %.3f not below the spec %.3f", pmax.Screens[0].LimitValue, spec)
	}
}

// TestCIProgramCatchesEscapesMarchShips is the production punchline of the
// whole paper: on a lot with slow dies, the March-only program ships
// defective devices (escapes) because March never provokes the worst case,
// while adding the CI-found worst-case screen eliminates those escapes.
func TestCIProgramCatchesEscapesMarchShips(t *testing.T) {
	lot := slowLot(16)
	geom := dut.DefaultGeometry()
	oracle := worstCasePattern()

	marchOnly, err := BuildProductionProgram(ate.TDQ, []testgen.Test{marchPattern(t)}, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	marchRes, err := RunProduction(marchOnly, oracle, lot, geom, 5)
	if err != nil {
		t.Fatal(err)
	}

	ci, err := BuildProductionProgram(ate.TDQ, []testgen.Test{marchPattern(t), oracle}, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	ciRes, err := RunProduction(ci, oracle, lot, geom, 5)
	if err != nil {
		t.Fatal(err)
	}

	if marchRes.Defective == 0 {
		t.Fatal("lot has no truly defective dies; scenario miscalibrated")
	}
	if marchRes.Escapes == 0 {
		t.Errorf("March-only program shipped no escapes; the characterization gap is not visible")
	}
	if ciRes.Escapes != 0 {
		t.Errorf("CI program shipped %d escapes", ciRes.Escapes)
	}
	// The CI program's yield is lower — it rejects the real defects.
	if ciRes.Yield > marchRes.Yield {
		t.Errorf("CI yield %.2f above March-only yield %.2f", ciRes.Yield, marchRes.Yield)
	}
	// Ground truth is program-independent.
	if marchRes.Defective != ciRes.Defective {
		t.Errorf("oracle defect counts differ: %d vs %d", marchRes.Defective, ciRes.Defective)
	}
}

func TestProductionStopsOnFirstFail(t *testing.T) {
	// A die failing the first screen must not be measured further.
	lot := []*dut.Die{dut.NewDie(0, dut.CornerSlow, dut.WithExtraTDQOffsetNS(-3))}
	oracle := worstCasePattern()
	prog, err := BuildProductionProgram(ate.TDQ, []testgen.Test{oracle, marchPattern(t)}, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunProduction(prog, oracle, lot, dut.DefaultGeometry(), 7)
	if err != nil {
		t.Fatal(err)
	}
	v := res.Dies[0]
	if v.Passed {
		t.Skip("slow die unexpectedly passed the worst-case screen at this seed")
	}
	if v.FailedScreen != "WORST" {
		t.Errorf("failed screen %q, want the first (WORST)", v.FailedScreen)
	}
	if v.Measurements != 1 {
		t.Errorf("die measured %d times after first fail", v.Measurements)
	}
}

func TestRunProductionValidation(t *testing.T) {
	lot := slowLot(2)
	if _, err := RunProduction(nil, worstCasePattern(), lot, dut.DefaultGeometry(), 1); err == nil {
		t.Error("nil program accepted")
	}
	prog, _ := BuildProductionProgram(ate.TDQ, []testgen.Test{worstCasePattern()}, 0.02)
	if _, err := RunProduction(prog, worstCasePattern(), nil, dut.DefaultGeometry(), 1); err == nil {
		t.Error("empty lot accepted")
	}
}

func TestProductionResultFormat(t *testing.T) {
	lot := slowLot(4)
	prog, _ := BuildProductionProgram(ate.TDQ, []testgen.Test{worstCasePattern()}, 0.02)
	res, err := RunProduction(prog, worstCasePattern(), lot, dut.DefaultGeometry(), 9)
	if err != nil {
		t.Fatal(err)
	}
	s := res.Format()
	for _, want := range []string{"Production run", "yield", "escapes", "overkill"} {
		if !strings.Contains(s, want) {
			t.Errorf("format missing %q: %s", want, s)
		}
	}
}

func TestProductionOtherParameters(t *testing.T) {
	// The production measurement path supports all three parameters.
	lot := []*dut.Die{dut.NewDie(0, dut.CornerTypical)}
	oracle := worstCasePattern()
	for _, param := range []ate.Parameter{ate.Fmax, ate.VddMin} {
		prog, err := BuildProductionProgram(param, []testgen.Test{marchPattern(t)}, 0.02)
		if err != nil {
			t.Fatal(err)
		}
		res, err := RunProduction(prog, oracle, lot, dut.DefaultGeometry(), 3)
		if err != nil {
			t.Fatalf("%v: %v", param, err)
		}
		if len(res.Dies) != 1 {
			t.Fatalf("%v: %d dies", param, len(res.Dies))
		}
		// A healthy typical die clears both specs under a March screen.
		if !res.Dies[0].Passed {
			t.Errorf("%v: healthy die rejected by %s", param, res.Dies[0].FailedScreen)
		}
	}
	bad, _ := BuildProductionProgram(ate.Parameter(9), []testgen.Test{marchPattern(t)}, 0.02)
	if _, err := RunProduction(bad, oracle, lot, dut.DefaultGeometry(), 3); err == nil {
		t.Error("unsupported parameter accepted")
	}
}
