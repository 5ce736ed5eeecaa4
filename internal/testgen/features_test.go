package testgen

import (
	"math"
	"math/bits"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestFeatureNamesAligned(t *testing.T) {
	if got := len(FeatureNames()); got != NumFeatures {
		t.Fatalf("FeatureNames has %d entries, NumFeatures is %d", got, NumFeatures)
	}
}

func TestExtractFeaturesEmpty(t *testing.T) {
	f := ExtractFeatures(Test{}, DefaultConditionLimits())
	if len(f) != NumFeatures {
		t.Fatalf("feature vector length %d, want %d", len(f), NumFeatures)
	}
	for i, v := range f {
		if v != 0 {
			t.Errorf("empty test feature %s = %g, want 0", FeatureNames()[i], v)
		}
	}
}

func TestExtractFeaturesRange(t *testing.T) {
	g := newGen(21)
	limits := g.Limits()
	for i := 0; i < 100; i++ {
		f := ExtractFeatures(g.Next(), limits)
		for j, v := range f {
			if v < 0 || v > 1 {
				t.Fatalf("feature %s = %g outside [0,1]", FeatureNames()[j], v)
			}
		}
	}
}

func TestExtractFeaturesRangeProperty(t *testing.T) {
	limits := DefaultConditionLimits()
	f := func(seed int64, n uint8) bool {
		g := NewRandomGenerator(seed, 4096, limits)
		tt := Test{Seq: g.Sequence(int(n%200) + 2), Cond: g.Conditions()}
		for _, v := range ExtractFeatures(tt, limits) {
			if v < 0 || v > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestReadWriteRatios(t *testing.T) {
	seq := Sequence{
		{Op: OpRead, Addr: 0}, {Op: OpRead, Addr: 1},
		{Op: OpWrite, Addr: 2, Data: 1}, {Op: OpNop},
	}
	f := ExtractFeatures(Test{Seq: seq, Cond: NominalConditions()}, DefaultConditionLimits())
	if got := f[FeatReadRatio]; got != 0.5 {
		t.Errorf("read ratio %g, want 0.5", got)
	}
	if got := f[FeatWriteRatio]; got != 0.25 {
		t.Errorf("write ratio %g, want 0.25", got)
	}
}

func TestBurstinessOnSequentialWalk(t *testing.T) {
	seq := make(Sequence, 100)
	for i := range seq {
		seq[i] = Vector{Op: OpRead, Addr: uint32(i)}
	}
	f := ExtractFeatures(Test{Seq: seq, Cond: NominalConditions()}, DefaultConditionLimits())
	if f[FeatBurstiness] < 0.9 {
		t.Errorf("sequential walk burstiness %g, want ≈1", f[FeatBurstiness])
	}
	if f[FeatLocality] < 0.9 {
		t.Errorf("sequential walk locality %g, want ≈1", f[FeatLocality])
	}
}

func TestCheckerboardAffinity(t *testing.T) {
	seq := make(Sequence, 64)
	for i := range seq {
		d := uint32(0x55555555)
		if i%2 == 1 {
			d = 0xAAAAAAAA
		}
		seq[i] = Vector{Op: OpWrite, Addr: uint32(i), Data: d}
	}
	f := ExtractFeatures(Test{Seq: seq, Cond: NominalConditions()}, DefaultConditionLimits())
	if f[FeatCheckerboard] != 1 {
		t.Errorf("checkerboard affinity %g, want 1", f[FeatCheckerboard])
	}
	if f[FeatInvertRate] < 0.9 {
		t.Errorf("invert rate %g, want ≈1 for alternating complement writes", f[FeatInvertRate])
	}
}

func TestCouplingFeature(t *testing.T) {
	// Adjacent-address complementary writes are exactly the coupling motif.
	seq := make(Sequence, 100)
	for i := range seq {
		d := uint32(0)
		if i%2 == 1 {
			d = 0xFFFFFFFF
		}
		seq[i] = Vector{Op: OpWrite, Addr: uint32(i%2 + 100), Data: d}
	}
	f := ExtractFeatures(Test{Seq: seq, Cond: NominalConditions()}, DefaultConditionLimits())
	if f[FeatCoupling] < 0.9 {
		t.Errorf("coupling feature %g, want ≈1", f[FeatCoupling])
	}

	// Far-apart writes must not count as coupling.
	for i := range seq {
		seq[i].Addr = uint32(i%2) * 512
	}
	f = ExtractFeatures(Test{Seq: seq, Cond: NominalConditions()}, DefaultConditionLimits())
	if f[FeatCoupling] != 0 {
		t.Errorf("far-write coupling feature %g, want 0", f[FeatCoupling])
	}
}

func TestConditionFeaturesNormalized(t *testing.T) {
	limits := DefaultConditionLimits()
	lo := Test{Seq: Sequence{{Op: OpNop}}, Cond: Conditions{VddV: limits.VddMin, TempC: limits.TempMin, ClockMHz: limits.ClockMin}}
	hi := Test{Seq: Sequence{{Op: OpNop}}, Cond: Conditions{VddV: limits.VddMax, TempC: limits.TempMax, ClockMHz: limits.ClockMax}}
	fl := ExtractFeatures(lo, limits)
	fh := ExtractFeatures(hi, limits)
	for _, idx := range []int{FeatVdd, FeatTemp, FeatClock} {
		if fl[idx] != 0 {
			t.Errorf("low condition feature %s = %g, want 0", FeatureNames()[idx], fl[idx])
		}
		if fh[idx] != 1 {
			t.Errorf("high condition feature %s = %g, want 1", FeatureNames()[idx], fh[idx])
		}
	}
}

func TestFeatureDiscriminatesActivity(t *testing.T) {
	// A ping-pong complementary-address pattern must show much higher ATD
	// than a sequential walk — the NN's signal depends on it.
	pp := make(Sequence, 100)
	for i := range pp {
		addr := uint32(0)
		if i%2 == 1 {
			addr = 4095
		}
		pp[i] = Vector{Op: OpRead, Addr: addr}
	}
	seqWalk := make(Sequence, 100)
	for i := range seqWalk {
		seqWalk[i] = Vector{Op: OpRead, Addr: uint32(i)}
	}
	limits := DefaultConditionLimits()
	fp := ExtractFeatures(Test{Seq: pp, Cond: NominalConditions()}, limits)
	fs := ExtractFeatures(Test{Seq: seqWalk, Cond: NominalConditions()}, limits)
	if fp[FeatATDMean] <= fs[FeatATDMean]+0.2 {
		t.Errorf("ping-pong ATD %g not clearly above sequential %g", fp[FeatATDMean], fs[FeatATDMean])
	}
	if fp[FeatPingPong] <= fs[FeatPingPong] {
		t.Errorf("ping-pong score %g not above sequential %g", fp[FeatPingPong], fs[FeatPingPong])
	}
}

// refFeatureRing is the reference sliding window: a modulo-indexed ring
// whose mean sums oldest-to-newest.
type refFeatureRing struct {
	buf     [featureWindow]float64
	head, n int
}

func (r *refFeatureRing) push(v float64) {
	if r.n < featureWindow {
		r.buf[(r.head+r.n)%featureWindow] = v
		r.n++
		return
	}
	r.buf[r.head] = v
	r.head = (r.head + 1) % featureWindow
}

func (r *refFeatureRing) mean() float64 {
	s := 0.0
	for j := 0; j < r.n; j++ {
		s += r.buf[(r.head+j)%featureWindow]
	}
	return s / float64(r.n)
}

// refExtractFeatures is the reference feature kernel: the modulo-indexed
// window and one address-transition division per vector.
func refExtractFeatures(t Test, limits ConditionLimits) []float64 {
	f := make([]float64, NumFeatures)
	seq := t.Seq
	if len(seq) == 0 {
		return f
	}
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

	var (
		atdSum, togSum      float64
		atdPeak, togPeak    float64
		seqRuns, pingHits   int
		strideSum           float64
		checker, stripes    int
		onesSum             float64
		inverts             int
		writes, reads       int
		ssnSum              float64
		winATD, winTog      refFeatureRing
		prevAddr, prevData  uint32
		prevWriteData       uint32
		prevWriteAddr       uint32
		couplingEvents      int
		havePrev, haveWrite bool
		prevStep            int64
	)
	for _, v := range seq {
		switch v.Op {
		case OpRead:
			reads++
		case OpWrite:
			writes++
		}
		atd := 0.0
		if havePrev {
			atd = float64(bits.OnesCount32(prevAddr^v.Addr)) / addrBits
			if atd > 1 {
				atd = 1
			}
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
		}
		atdSum += atd
		winATD.push(atd)
		if w := winATD.mean(); w > atdPeak {
			atdPeak = w
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
			tog = float64(bits.OnesCount32(prevData^v.Addr)) / 32.0 * 0.5
		}
		togSum += tog
		winTog.push(tog)
		if w := winTog.mean(); w > togPeak {
			togPeak = w
		}
		ssnSum += atd * tog

		prevAddr = v.Addr
		prevData = v.Data
		havePrev = true
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
	f[FeatLocality] = clamp01(1.0 / (1.0 + strideSum/n/16.0))
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

// TestExtractFeaturesMatchesReferenceProperty compares every feature bit
// for bit against the reference kernel over generated tests: address
// spaces 2^4…2^15, styled and UniformOnly generators, sequences truncated
// below and around the window length, and NOPs sprinkled in.
func TestExtractFeaturesMatchesReferenceProperty(t *testing.T) {
	const seeds, tests = 320, 20
	limits := DefaultConditionLimits()
	names := FeatureNames()
	for seed := int64(0); seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := NewRandomGenerator(seed, 1<<(4+seed%12), limits)
		g.UniformOnly = seed%3 == 0
		for k := 0; k < tests; k++ {
			tt := g.Next()
			switch rng.Intn(4) {
			case 0:
				tt.Seq = tt.Seq[:rng.Intn(2*featureWindow)]
			case 1:
				tt.Seq = tt.Seq[:rng.Intn(len(tt.Seq)+1)]
			}
			if rng.Intn(2) == 0 {
				for i := range tt.Seq {
					if rng.Intn(5) == 0 {
						tt.Seq[i].Op = OpNop
					}
				}
			}
			got, want := ExtractFeatures(tt, limits), refExtractFeatures(tt, limits)
			for j := range want {
				if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
					t.Fatalf("seed %d test %d (%d vectors): %s = %v, reference %v",
						seed, k, len(tt.Seq), names[j], got[j], want[j])
				}
			}
		}
	}
}
