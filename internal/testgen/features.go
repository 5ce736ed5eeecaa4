package testgen

import "math/bits"

// Feature indices of the vector produced by ExtractFeatures. The neural
// network's input layer is wired to this encoding; keep the order stable, it
// is part of the weight-file format.
const (
	FeatATDMean      = iota // mean address-transition density
	FeatATDPeak             // peak address-transition density (windowed)
	FeatToggleMean          // mean data-bus toggle density
	FeatTogglePeak          // peak data-bus toggle density (windowed)
	FeatReadRatio           // fraction of reads
	FeatWriteRatio          // fraction of writes
	FeatBurstiness          // sequential-address run fraction
	FeatPingPong            // long-distance alternation score
	FeatLocality            // address locality (low mean stride)
	FeatCheckerboard        // data background checkerboard affinity
	FeatStripes             // data background stripe affinity
	FeatOnesDensity         // mean ones density of written data
	FeatInvertRate          // rate of full-bus data inversions
	FeatSSNProxy            // simultaneous-switching-noise proxy
	FeatCoupling            // adjacent-address complementary-write coupling
	FeatVdd                 // normalized supply voltage
	FeatTemp                // normalized temperature
	FeatClock               // normalized clock
	FeatSeqLen              // normalized sequence length
	NumFeatures             // length of the feature vector
)

// FeatureNames returns human-readable names aligned with the feature
// indices, for reports and debugging.
func FeatureNames() []string {
	return []string{
		"atd_mean", "atd_peak", "toggle_mean", "toggle_peak",
		"read_ratio", "write_ratio", "burstiness", "ping_pong",
		"locality", "checkerboard", "stripes", "ones_density",
		"invert_rate", "ssn_proxy", "coupling", "vdd", "temp", "clock", "seq_len",
	}
}

// featureWindow is the sliding-window length used for peak activity
// statistics; it mirrors the supply network's droop integration window in
// the DUT physics model. featureRing needs it to be a power of two.
const featureWindow = 8

// featureRing is the fixed-size sliding window behind the peak statistics.
// Every value is written twice, featureWindow apart, so the window is
// always the contiguous run buf[next:next+featureWindow], oldest first.
// mean adds the run to +0 oldest-to-newest, the order the features' bits
// are pinned to; before the window fills, the run leads with unwritten
// zeros, which leave the sum's bits unchanged.
type featureRing struct {
	buf     [2 * featureWindow]float64
	next, n int
}

func (r *featureRing) push(v float64) {
	r.buf[r.next] = v
	r.buf[r.next+featureWindow] = v
	r.next = (r.next + 1) & (featureWindow - 1)
	if r.n < featureWindow {
		r.n++
	}
}

func (r *featureRing) mean() float64 {
	w := (*[featureWindow]float64)(r.buf[r.next:])
	s := 0.0 + w[0] + w[1] + w[2] + w[3] + w[4] + w[5] + w[6] + w[7]
	if r.n == featureWindow {
		return s / featureWindow
	}
	return s / float64(r.n)
}

// ExtractFeatures encodes a test as a fixed-length vector of values in
// [0, 1], the input representation the paper's neural networks learn from.
// The encoding is a static approximation of the activity the device will
// see; the DUT model computes the authoritative activity by executing the
// sequence, so the NN remains a "sub-optimal" predictor exactly as the paper
// describes.
func ExtractFeatures(t Test, limits ConditionLimits) []float64 {
	f := make([]float64, NumFeatures)
	seq := t.Seq
	if len(seq) == 0 {
		return f
	}

	// Address-transition densities are normalized per significant address
	// bit (inferred from the widest address used), matching the device
	// model's normalization: a full-complement address swing must read as
	// density 1 regardless of array size.
	var maxAddr uint32
	for _, v := range seq {
		if v.Op != OpNop && v.Addr > maxAddr {
			maxAddr = v.Addr
		}
	}
	addrBits := float64(bits.Len32(maxAddr))
	if addrBits < 4 {
		addrBits = 4
	}
	// atdOf[k] is the density of a k-bit address transition, clamped to 1.
	var atdOf [33]float64
	for k := range atdOf {
		atdOf[k] = min(float64(k)/addrBits, 1)
	}

	var (
		atdSum, togSum       float64
		atdWin, togWin       float64
		atdPeak, togPeak     float64
		seqRuns, pingHits    int
		strideSum            float64
		checker, stripes     int
		onesSum              float64
		inverts              int
		writes, reads        int
		ssnSum               float64
		winATD, winTog       featureRing
		prevAddr, prevData   uint32
		prevWriteData        uint32
		prevWriteAddr        uint32
		couplingEvents       int
		havePrev, haveWrite  bool
		lastStride, prevStep int64
	)

	for i, v := range seq {
		switch v.Op {
		case OpRead:
			reads++
		case OpWrite:
			writes++
		}

		atd := 0.0
		if havePrev {
			atd = atdOf[bits.OnesCount32(prevAddr^v.Addr)]
			step := int64(v.Addr) - int64(prevAddr)
			if step == 1 {
				seqRuns++
			}
			if step != 0 {
				s := step
				if s < 0 {
					s = -s
				}
				strideSum += float64(s)
			}
			if prevStep != 0 && step == -prevStep && step != 0 {
				pingHits++
			}
			prevStep = step
			_ = lastStride
		}
		atdSum += atd
		winATD.push(atd)
		atdWin = winATD.mean()
		if atdWin > atdPeak {
			atdPeak = atdWin
		}

		tog := 0.0
		if v.Op == OpWrite {
			if haveWrite {
				flips := bits.OnesCount32(prevWriteData ^ v.Data)
				tog = float64(flips) / 32.0
				if prevWriteData^v.Data == 0xFFFFFFFF {
					inverts++
				}
				dAddr := int64(v.Addr) - int64(prevWriteAddr)
				if dAddr < 0 {
					dAddr = -dAddr
				}
				if flips >= 24 && dAddr >= 1 && dAddr <= 2 {
					couplingEvents++
				}
			}
			prevWriteAddr = v.Addr
			prevWriteData = v.Data
			haveWrite = true
			onesSum += float64(bits.OnesCount32(v.Data)) / 32.0
			switch v.Data {
			case 0x55555555, 0xAAAAAAAA:
				checker++
			case 0x0F0F0F0F, 0xF0F0F0F0, 0x00FF00FF, 0xFF00FF00:
				stripes++
			}
		} else if havePrev {
			// Reads toggle the output bus with whatever was stored; use the
			// address as a cheap proxy for the returned word's correlation.
			tog = float64(bits.OnesCount32(prevData^v.Addr)) / 32.0 * 0.5
		}
		togSum += tog
		winTog.push(tog)
		togWin = winTog.mean()
		if togWin > togPeak {
			togPeak = togWin
		}

		// SSN proxy: simultaneous high address and data activity.
		ssnSum += atd * tog

		prevAddr = v.Addr
		prevData = v.Data
		havePrev = true
		_ = i
	}

	n := float64(len(seq))
	clamp01 := func(v float64) float64 {
		if v < 0 {
			return 0
		}
		if v > 1 {
			return 1
		}
		return v
	}
	norm := func(v, lo, hi float64) float64 {
		if hi <= lo {
			return 0
		}
		return clamp01((v - lo) / (hi - lo))
	}

	f[FeatATDMean] = clamp01(atdSum / n)
	f[FeatATDPeak] = clamp01(atdPeak)
	f[FeatToggleMean] = clamp01(togSum / n)
	f[FeatTogglePeak] = clamp01(togPeak)
	f[FeatReadRatio] = float64(reads) / n
	f[FeatWriteRatio] = float64(writes) / n
	f[FeatBurstiness] = float64(seqRuns) / n
	f[FeatPingPong] = clamp01(float64(pingHits) / n * 2)
	meanStride := strideSum / n
	f[FeatLocality] = clamp01(1.0 / (1.0 + meanStride/16.0))
	if writes > 0 {
		f[FeatCheckerboard] = float64(checker) / float64(writes)
		f[FeatStripes] = float64(stripes) / float64(writes)
		f[FeatOnesDensity] = onesSum / float64(writes)
		f[FeatInvertRate] = clamp01(float64(inverts) / float64(writes) * 2)
	}
	f[FeatSSNProxy] = clamp01(ssnSum / n * 4)
	f[FeatCoupling] = clamp01(float64(couplingEvents) / n * 4)
	f[FeatVdd] = norm(t.Cond.VddV, limits.VddMin, limits.VddMax)
	f[FeatTemp] = norm(t.Cond.TempC, limits.TempMin, limits.TempMax)
	f[FeatClock] = norm(t.Cond.ClockMHz, limits.ClockMin, limits.ClockMax)
	f[FeatSeqLen] = norm(float64(len(seq)), MinSequenceLen, MaxSequenceLen)
	return f
}
