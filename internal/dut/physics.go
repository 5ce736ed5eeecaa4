package dut

import "math"

// Physics holds the parametric model constants that map switching activity,
// test conditions and process corner onto measurable AC parameters. The
// defaults are tuned so that the *shape* of the paper's Table 1 reproduces:
// a March baseline leaves most of the margin intact, uniform random tests
// erode a few nanoseconds more, and only coordinated high address/data
// activity (the hidden weakness ridge) provokes the worst-case drift close
// to — but not beyond — the 20 ns specification.
type Physics struct {
	// T_DQ valid-window surface (ns). Larger window = more margin; the
	// minimum is the worst case (fig. 7).
	TDQBaseNS      float64 // nominal window at 1.8 V, 25 °C, 100 MHz, idle
	TDQVddSlopeNS  float64 // ns per volt of effective supply above nominal
	TDQLowVddKneeV float64 // below this effective supply the sense amp degrades
	TDQLowVddGain  float64 // quadratic low-voltage degradation gain
	TDQTempGainNS  float64 // ns lost per 100 °C above 25 °C
	TDQClockGainNS float64 // ns lost per 100 MHz above 100 MHz

	PenATD      float64 // linear penalty × ATDPeak
	PenToggle   float64 // linear penalty × TogglePeak
	PenSSN      float64 // linear penalty × SSNPeak
	PenConflict float64 // linear penalty × bank-conflict activity
	PenCoupling float64 // linear penalty × bitline-coupling score

	// Weakness ridge: the nonlinear interaction term that models the design
	// weakness only coordinated activity provokes. RidgeGainNS scales the
	// product of four smoothstep terms: address activity, data-bus toggle,
	// *sustained* simultaneous switching (the decoupling network absorbs
	// short bursts) and bitline coupling (adjacent-column complementary
	// writes hitting a shared sense-amp stripe). No single random-generator
	// pattern style produces all four at once — a sweeping pattern gets
	// coupling but low address activity, a ping-pong pattern the reverse —
	// which is exactly why the paper's random baseline misses the worst
	// case while GA recombination of partial solutions finds it.
	RidgeGainNS float64
	RidgeATDLo  float64
	RidgeATDHi  float64
	RidgeTogLo  float64
	RidgeTogHi  float64
	RidgeSSNLo  float64
	RidgeSSNHi  float64
	RidgeCplLo  float64
	RidgeCplHi  float64

	// Supply network.
	IRDropVPerAct float64 // volts of static IR drop per unit mean activity
	SSNDroopV     float64 // volts of dynamic droop per unit SSN peak
	LeakTempGain  float64 // leakage activity-equivalent per 100 °C

	// Fmax surface (MHz). Pass region below Fmax.
	FmaxBaseMHz  float64
	FmaxVddSlope float64 // MHz per volt
	FmaxPenATD   float64
	FmaxPenTog   float64
	FmaxPenSSN   float64
	FmaxRidgeMHz float64

	// Vddmin surface (V). Pass region above Vddmin.
	VddMinBaseV    float64
	VddMinSSNGain  float64
	VddMinATDGain  float64
	VddMinTogGain  float64
	VddMinRidgeV   float64
	VddMinTempGain float64 // volts per 100 °C
}

// DefaultPhysics returns the tuned model constants.
func DefaultPhysics() Physics {
	return Physics{
		TDQBaseNS:      35.0,
		TDQVddSlopeNS:  9.0,
		TDQLowVddKneeV: 1.55,
		TDQLowVddGain:  25.0,
		TDQTempGainNS:  1.8,
		TDQClockGainNS: 2.5,

		PenATD:      1.6,
		PenToggle:   2.0,
		PenSSN:      1.8,
		PenConflict: 0.8,
		PenCoupling: 0.6,

		RidgeGainNS: 8.0,
		RidgeATDLo:  0.30,
		RidgeATDHi:  0.60,
		RidgeTogLo:  0.35,
		RidgeTogHi:  0.85,
		RidgeSSNLo:  0.30,
		RidgeSSNHi:  0.55,
		RidgeCplLo:  0.25,
		RidgeCplHi:  0.75,

		IRDropVPerAct: 0.05,
		SSNDroopV:     0.06,
		LeakTempGain:  0.02,

		FmaxBaseMHz:  125,
		FmaxVddSlope: 45,
		FmaxPenATD:   8,
		FmaxPenTog:   7,
		FmaxPenSSN:   9,
		FmaxRidgeMHz: 18,

		VddMinBaseV:    1.42,
		VddMinSSNGain:  0.12,
		VddMinATDGain:  0.05,
		VddMinTogGain:  0.03,
		VddMinRidgeV:   0.15,
		VddMinTempGain: 0.03,
	}
}

// smoothstep is the classic cubic smoothstep on [lo, hi].
func smoothstep(x, lo, hi float64) float64 {
	if hi <= lo {
		if x >= hi {
			return 1
		}
		return 0
	}
	t := (x - lo) / (hi - lo)
	if t <= 0 {
		return 0
	}
	if t >= 1 {
		return 1
	}
	return t * t * (3 - 2*t)
}

// Ridge evaluates the weakness-interaction term in [0, 1]: it is near zero
// unless address activity, data-bus toggling, their *sustained* coincidence
// and bitline coupling are all simultaneously high. March patterns saturate
// only the toggle term; each random pattern style maxes at most two terms;
// only a directed search (the paper's NN+GA) assembles all four.
func (p *Physics) Ridge(act Activity) float64 {
	a := smoothstep(act.ATDPeak, p.RidgeATDLo, p.RidgeATDHi)
	t := smoothstep(act.TogglePeak, p.RidgeTogLo, p.RidgeTogHi)
	s := smoothstep(act.SSNSustained, p.RidgeSSNLo, p.RidgeSSNHi)
	c := smoothstep(act.CouplingScore, p.RidgeCplLo, p.RidgeCplHi)
	return a * t * s * c
}

// EffectiveVdd returns the on-die supply after static IR drop and dynamic
// SSN droop under the given activity and temperature.
func (p *Physics) EffectiveVdd(vdd, tempC float64, act Activity, die *Die) float64 {
	leak := p.LeakTempGain * math.Max(0, tempC-25) / 100 * die.LeakageFactor()
	meanAct := (act.ATDMean+act.ToggleMean)/2 + leak
	drop := p.IRDropVPerAct*meanAct + p.SSNDroopV*act.SSNPeak
	return vdd - drop
}

// TDQWindowNS evaluates the data-output valid window T_DQ (fig. 7) in ns
// for the given operating point, activity and die. The specification
// minimum is SpecTDQNS; smaller windows are worse and the minimum over all
// tests is the worst case the paper hunts.
func (p *Physics) TDQWindowNS(vdd, tempC, clockMHz float64, act Activity, die *Die) float64 {
	vddEff := p.EffectiveVdd(vdd, tempC, act, die)
	w := p.TDQBaseNS + die.TDQOffsetNS()
	w += p.TDQVddSlopeNS * (vddEff - 1.8)
	if vddEff < p.TDQLowVddKneeV {
		d := p.TDQLowVddKneeV - vddEff
		w -= p.TDQLowVddGain * d * d
	}
	w -= p.TDQTempGainNS * (tempC - 25) / 100 * die.SpeedFactor()
	w -= p.TDQClockGainNS * (clockMHz - 100) / 100
	w -= p.PenATD * act.ATDPeak
	w -= p.PenToggle * act.TogglePeak
	w -= p.PenSSN * act.SSNPeak
	w -= p.PenConflict * clamp01(act.BankConflictRate*2)
	w -= p.PenCoupling * act.CouplingScore
	w -= p.RidgeGainNS * p.Ridge(act)
	return w
}

// FmaxMHz evaluates the maximum passing clock frequency for the given
// operating point and activity. The device passes below Fmax and fails
// above it (eq. 3 orientation).
func (p *Physics) FmaxMHz(vdd, tempC float64, act Activity, die *Die) float64 {
	vddEff := p.EffectiveVdd(vdd, tempC, act, die)
	f := p.FmaxBaseMHz / die.SpeedFactor()
	f += p.FmaxVddSlope * (vddEff - 1.8)
	f -= p.FmaxBaseMHz * 0.1 * (tempC - 25) / 100
	f -= p.FmaxPenATD * act.ATDPeak
	f -= p.FmaxPenTog * act.TogglePeak
	f -= p.FmaxPenSSN * act.SSNPeak
	f -= p.FmaxRidgeMHz * p.Ridge(act)
	return f
}

// VddMinV evaluates the minimum passing supply voltage. The device passes
// above Vddmin and fails below it (eq. 4 orientation).
func (p *Physics) VddMinV(tempC float64, act Activity, die *Die) float64 {
	v := p.VddMinBaseV - die.TDQOffsetNS()*0.01
	v += p.VddMinSSNGain * act.SSNPeak
	v += p.VddMinATDGain * act.ATDPeak
	v += p.VddMinTogGain * act.TogglePeak
	v += p.VddMinRidgeV * p.Ridge(act)
	v += p.VddMinTempGain * math.Abs(tempC-25) / 100
	return v
}

// SpecTDQNS is the T_DQ design specification of §6: the data output valid
// window must be at least 20 ns.
const SpecTDQNS = 20.0
