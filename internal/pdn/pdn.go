// Package pdn simulates the power delivery network of the device under
// test: a series R–L supply path into the on-die decoupling capacitance,
// excited by the per-cycle load current a test sequence draws. This is the
// detailed-analysis counterpart of the behavioural droop terms in the
// device model — the paper's companion works (refs. [9] and [10], the
// authors' NN+GA worst-case power-supply-noise generators) hunt exactly
// the patterns that resonate this network.
//
// The flow uses pdn on the failure-analysis path: take the cycle trace of
// a worst-case test (dut.Trace), simulate the die voltage waveform, and
// locate the droop peak the pattern provokes.
package pdn

import (
	"errors"
	"math"

	"repro/internal/dut"
)

// Network is the lumped PDN: V_supply — R — L — (die node) — C to ground,
// with the load current drawn from the die node.
//
//	L·di/dt = Vsupply − v_die − R·i
//	C·dv/dt = i − i_load
type Network struct {
	RSeriesOhm float64 // series resistance of the supply path
	LSeriesH   float64 // series inductance (package + bond)
	CDecapF    float64 // on-die decoupling capacitance

	ILeakA float64 // constant leakage current
	IMaxA  float64 // dynamic current of a fully switching cycle

	// SubSteps is the number of integration sub-steps per bus cycle
	// (default 32); the resonance sits near the cycle rate, so cycle-level
	// integration would alias.
	SubSteps int
}

// Default returns a plausible 140 nm-era network: ~50 mΩ, 1 nH, 10 nF →
// resonance ≈ 50 MHz, mildly underdamped.
func Default() Network {
	return Network{
		RSeriesOhm: 0.05,
		LSeriesH:   1e-9,
		CDecapF:    10e-9,
		ILeakA:     0.01,
		IMaxA:      1.2,
		SubSteps:   32,
	}
}

// Validate reports non-physical configurations.
func (n Network) Validate() error {
	if n.RSeriesOhm < 0 || n.LSeriesH <= 0 || n.CDecapF <= 0 {
		return errors.New("pdn: R must be ≥ 0 and L, C > 0")
	}
	if n.IMaxA < 0 || n.ILeakA < 0 {
		return errors.New("pdn: currents must be non-negative")
	}
	return nil
}

// ResonantHz returns the network's natural frequency 1/(2π√(LC)).
func (n Network) ResonantHz() float64 {
	return 1 / (2 * math.Pi * math.Sqrt(n.LSeriesH*n.CDecapF))
}

// DampingRatio returns ζ = (R/2)·√(C/L); below 1 the network rings.
func (n Network) DampingRatio() float64 {
	return n.RSeriesOhm / 2 * math.Sqrt(n.CDecapF/n.LSeriesH)
}

// Sample is one integration point of the die-voltage waveform.
type Sample struct {
	TimeNS float64
	VDieV  float64
	ILoadA float64
}

// Result is a simulated waveform plus its droop analysis.
type Result struct {
	Samples []Sample
	// PeakDroopV is the maximum voltage sag below the supply.
	PeakDroopV float64
	// PeakAtNS is the time of the deepest sag.
	PeakAtNS float64
	// PeakCycle is the bus cycle during which the deepest sag occurred.
	PeakCycle int
	// MeanDroopV is the time-averaged sag.
	MeanDroopV float64
}

// CycleCurrent maps one trace record to the dynamic load current of that
// cycle: leakage plus the switching term scaled by the cycle's combined
// address/data activity.
func (n Network) CycleCurrent(r dut.CycleRecord) float64 {
	activity := (r.ATD + r.Toggle) / 2
	return n.ILeakA + n.IMaxA*activity
}

// Simulate integrates the network over a cycle trace at the given supply
// and bus clock, using semi-implicit Euler at SubSteps per cycle. The
// load current is held constant within each cycle (the per-cycle average
// the trace provides).
func (n Network) Simulate(records []dut.CycleRecord, vddV, clockMHz float64) (Result, error) {
	if err := n.Validate(); err != nil {
		return Result{}, err
	}
	if len(records) == 0 {
		return Result{}, errors.New("pdn: empty trace")
	}
	if clockMHz <= 0 {
		return Result{}, errors.New("pdn: clock must be positive")
	}
	sub := n.SubSteps
	if sub < 1 {
		sub = 32
	}
	cycleS := 1 / (clockMHz * 1e6)
	dt := cycleS / float64(sub)

	res := Result{Samples: make([]Sample, 0, len(records)*sub)}
	// Start at equilibrium for the leakage current.
	v := vddV - n.RSeriesOhm*n.ILeakA
	iL := n.ILeakA

	var droopSum float64
	steps := 0
	for ci, r := range records {
		iLoad := n.CycleCurrent(r)
		for s := 0; s < sub; s++ {
			// Semi-implicit Euler: update the inductor current first,
			// then the capacitor voltage with the fresh current.
			iL += dt / n.LSeriesH * (vddV - v - n.RSeriesOhm*iL)
			v += dt / n.CDecapF * (iL - iLoad)

			t := (float64(ci) + float64(s+1)/float64(sub)) * cycleS * 1e9
			res.Samples = append(res.Samples, Sample{TimeNS: t, VDieV: v, ILoadA: iLoad})

			droop := vddV - v
			droopSum += droop
			steps++
			if droop > res.PeakDroopV {
				res.PeakDroopV = droop
				res.PeakAtNS = t
				res.PeakCycle = ci
			}
		}
	}
	res.MeanDroopV = droopSum / float64(steps)
	return res, nil
}

// WorstBurstSpacing sweeps burst periods (in cycles) and returns the
// spacing that provokes the deepest droop for a fixed per-burst energy —
// the resonance search a worst-case pattern generator performs implicitly.
// Periods from 1 (continuous) to maxPeriod are tried with bursts of the
// given length and full activity.
func (n Network) WorstBurstSpacing(vddV, clockMHz float64, burstLen, maxPeriod, totalCycles int) (bestPeriod int, peakDroopV float64, err error) {
	if burstLen < 1 || maxPeriod < 1 || totalCycles < maxPeriod {
		return 0, 0, errors.New("pdn: invalid burst sweep parameters")
	}
	for period := 1; period <= maxPeriod; period++ {
		records := make([]dut.CycleRecord, totalCycles)
		for i := range records {
			phase := i % (burstLen + period)
			if phase < burstLen {
				records[i] = dut.CycleRecord{Cycle: i, ATD: 1, Toggle: 1}
			} else {
				records[i] = dut.CycleRecord{Cycle: i}
			}
		}
		res, err := n.Simulate(records, vddV, clockMHz)
		if err != nil {
			return 0, 0, err
		}
		if res.PeakDroopV > peakDroopV {
			peakDroopV = res.PeakDroopV
			bestPeriod = period
		}
	}
	return bestPeriod, peakDroopV, nil
}
