package pdn

import (
	"math"
	"testing"

	"repro/internal/dut"
	"repro/internal/testgen"
)

func TestValidate(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Errorf("default network invalid: %v", err)
	}
	bad := Default()
	bad.LSeriesH = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero inductance accepted")
	}
	bad = Default()
	bad.CDecapF = -1
	if err := bad.Validate(); err == nil {
		t.Error("negative capacitance accepted")
	}
	bad = Default()
	bad.IMaxA = -1
	if err := bad.Validate(); err == nil {
		t.Error("negative current accepted")
	}
}

func TestResonanceAndDamping(t *testing.T) {
	n := Default()
	// 1 nH with 10 nF → f0 = 1/(2π√(1e-9·1e-8)) ≈ 50.3 MHz.
	if f := n.ResonantHz() / 1e6; math.Abs(f-50.3) > 1 {
		t.Errorf("resonant frequency %.1f MHz, want ≈50.3", f)
	}
	if z := n.DampingRatio(); z <= 0 || z >= 1 {
		t.Errorf("damping ratio %g; default network should be underdamped", z)
	}
}

func TestSimulateValidation(t *testing.T) {
	n := Default()
	if _, err := n.Simulate(nil, 1.8, 100); err == nil {
		t.Error("empty trace accepted")
	}
	if _, err := n.Simulate(make([]dut.CycleRecord, 1), 1.8, 0); err == nil {
		t.Error("zero clock accepted")
	}
	bad := Default()
	bad.LSeriesH = 0
	if _, err := bad.Simulate(make([]dut.CycleRecord, 1), 1.8, 100); err == nil {
		t.Error("invalid network accepted")
	}
}

func TestDCStepSettlesToOhmicDrop(t *testing.T) {
	n := Default()
	const i = 0.8
	res, err := n.Simulate(stepRecords(n, i, 201), 1.8, 100) // 2 µs at 100 MHz ≫ settling time
	if err != nil {
		t.Fatal(err)
	}
	// Steady state: droop = R·I (relative to the leakage equilibrium the
	// simulation starts at, the extra droop is R·(I−Ileak)).
	final := res.Samples[len(res.Samples)-1]
	wantV := 1.8 - n.RSeriesOhm*i
	if math.Abs(final.VDieV-wantV) > 0.002 {
		t.Errorf("steady-state die voltage %.4f, want %.4f", final.VDieV, wantV)
	}
}

func TestStepOvershootsThenRings(t *testing.T) {
	// An underdamped network's first droop peak exceeds the DC value and
	// the waveform then decays toward it.
	n := Default()
	const i = 1.0
	res, err := n.Simulate(stepRecords(n, i, 101), 1.8, 100) // 1 µs at 100 MHz
	if err != nil {
		t.Fatal(err)
	}
	dcDroop := n.RSeriesOhm * (i - n.ILeakA)
	if res.PeakDroopV <= dcDroop*1.5 {
		t.Errorf("peak droop %.4f shows no resonant overshoot above DC %.4f", res.PeakDroopV, dcDroop)
	}
	// The peak happens early (within the first resonance period ≈ 20 ns).
	if res.PeakAtNS > 40 {
		t.Errorf("first droop peak at %.1f ns, expected within ≈2 periods", res.PeakAtNS)
	}
}

// stepRecords is a constant current step of currentA held for the given
// number of cycles: every cycle at the same ATD and toggle activity.
func stepRecords(n Network, currentA float64, cycles int) []dut.CycleRecord {
	activity := (currentA - n.ILeakA) / n.IMaxA
	records := make([]dut.CycleRecord, cycles)
	for i := range records {
		records[i] = dut.CycleRecord{Cycle: i, ATD: activity, Toggle: activity}
	}
	return records
}

func TestZeroActivityNoDroop(t *testing.T) {
	n := Default()
	records := make([]dut.CycleRecord, 100) // all idle
	res, err := n.Simulate(records, 1.8, 100)
	if err != nil {
		t.Fatal(err)
	}
	// Idle trace draws only leakage, which the initial condition already
	// accounts for: droop beyond R·Ileak must be negligible.
	if res.PeakDroopV > n.RSeriesOhm*n.ILeakA+0.001 {
		t.Errorf("idle trace droop %.5f V", res.PeakDroopV)
	}
}

func TestMoreActivityMoreDroop(t *testing.T) {
	n := Default()
	mk := func(act float64) []dut.CycleRecord {
		r := make([]dut.CycleRecord, 200)
		for i := range r {
			r[i] = dut.CycleRecord{ATD: act, Toggle: act}
		}
		return r
	}
	low, err := n.Simulate(mk(0.3), 1.8, 100)
	if err != nil {
		t.Fatal(err)
	}
	high, err := n.Simulate(mk(0.9), 1.8, 100)
	if err != nil {
		t.Fatal(err)
	}
	if high.PeakDroopV <= low.PeakDroopV {
		t.Errorf("droop not increasing with activity: %.4f vs %.4f", low.PeakDroopV, high.PeakDroopV)
	}
	if high.MeanDroopV <= low.MeanDroopV {
		t.Error("mean droop not increasing with activity")
	}
}

func TestResonantBurstSpacingBeatsContinuous(t *testing.T) {
	// The resonance search: single-cycle bursts with a one-cycle gap form
	// a 2-cycle period — exactly the 50 MHz resonance at a 100 MHz clock —
	// and must provoke a far deeper droop peak than continuous full
	// activity, despite drawing half the average current. This is the
	// physical mechanism the paper's companion PSN generators exploit.
	n := Default()
	best, peak, err := n.WorstBurstSpacing(1.8, 100, 1, 8, 600)
	if err != nil {
		t.Fatal(err)
	}
	if best != 1 {
		t.Errorf("worst burst gap %d cycles, want 1 (the resonant 2-cycle period)", best)
	}
	records := make([]dut.CycleRecord, 600)
	for i := range records {
		records[i] = dut.CycleRecord{ATD: 1, Toggle: 1}
	}
	cont, err := n.Simulate(records, 1.8, 100)
	if err != nil {
		t.Fatal(err)
	}
	if peak <= cont.PeakDroopV*2 {
		t.Errorf("resonant peak %.4f V does not clearly amplify over continuous %.4f V",
			peak, cont.PeakDroopV)
	}
	// Sanity: the continuous mean droop is still larger (more energy).
	contMean := cont.MeanDroopV
	resRecords := make([]dut.CycleRecord, 600)
	for i := range resRecords {
		if i%2 == 0 {
			resRecords[i] = dut.CycleRecord{ATD: 1, Toggle: 1}
		}
	}
	resRes, err := n.Simulate(resRecords, 1.8, 100)
	if err != nil {
		t.Fatal(err)
	}
	if resRes.MeanDroopV >= contMean {
		t.Errorf("resonant mean droop %.4f not below continuous %.4f", resRes.MeanDroopV, contMean)
	}
}

func TestWorstBurstSpacingValidation(t *testing.T) {
	n := Default()
	if _, _, err := n.WorstBurstSpacing(1.8, 100, 0, 10, 100); err == nil {
		t.Error("zero burst length accepted")
	}
	if _, _, err := n.WorstBurstSpacing(1.8, 100, 4, 200, 100); err == nil {
		t.Error("total shorter than period accepted")
	}
}

func TestSimulateOnRealTrace(t *testing.T) {
	// End to end with the device model: the coordinated worst-case test
	// must droop the PDN more than a calm test.
	dev, err := dut.NewDevice(dut.DefaultGeometry(), dut.NewDie(0, dut.CornerTypical))
	if err != nil {
		t.Fatal(err)
	}
	n := Default()
	cond := testgen.NominalConditions()

	calm := make(testgen.Sequence, 400)
	for i := range calm {
		calm[i] = testgen.Vector{Op: testgen.OpRead, Addr: uint32(i % 16)}
	}
	calmTrace, _, err := dev.Trace(testgen.Test{Name: "calm", Seq: calm, Cond: cond})
	if err != nil {
		t.Fatal(err)
	}
	hot, err := testgen.BusThrash(dev.Geometry().Words(), 200, cond)
	if err != nil {
		t.Fatal(err)
	}
	hot.Name = "hot"
	hotTrace, _, err := dev.Trace(hot)
	if err != nil {
		t.Fatal(err)
	}

	calmRes, err := n.Simulate(calmTrace, cond.VddV, cond.ClockMHz)
	if err != nil {
		t.Fatal(err)
	}
	hotRes, err := n.Simulate(hotTrace, cond.VddV, cond.ClockMHz)
	if err != nil {
		t.Fatal(err)
	}
	if hotRes.PeakDroopV <= calmRes.PeakDroopV {
		t.Errorf("worst-case trace droop %.4f not above calm %.4f",
			hotRes.PeakDroopV, calmRes.PeakDroopV)
	}
	if hotRes.PeakCycle < 0 || hotRes.PeakCycle >= len(hotTrace) {
		t.Errorf("peak cycle %d out of trace range", hotRes.PeakCycle)
	}
}

func TestSubStepConvergence(t *testing.T) {
	// Halving the step size must not change the peak droop materially —
	// the integrator is converged at the default resolution.
	coarse := Default()
	coarse.SubSteps = 32
	fine := Default()
	fine.SubSteps = 128
	records := make([]dut.CycleRecord, 300)
	for i := range records {
		if i%7 < 3 {
			records[i] = dut.CycleRecord{ATD: 1, Toggle: 1}
		}
	}
	rc, err := coarse.Simulate(records, 1.8, 100)
	if err != nil {
		t.Fatal(err)
	}
	rf, err := fine.Simulate(records, 1.8, 100)
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(rc.PeakDroopV-rf.PeakDroopV) / rf.PeakDroopV; rel > 0.05 {
		t.Errorf("peak droop changes %.1f%% between 32 and 128 sub-steps", rel*100)
	}
}
