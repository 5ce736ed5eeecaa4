package neural

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
)

// Golden kernel-equivalence suite: the scratch-arena forward/backprop
// kernels and the batch entry points must produce bit-identical numbers to
// the pre-optimization reference formulation, which allocated fresh buffers
// on every call. The reference implementations below are verbatim copies of
// that original code path.

// refForward is the pre-optimization Network.forward: one fresh slice per
// layer per call, returning every layer activation.
func refForward(n *Network, input []float64) [][]float64 {
	acts := make([][]float64, len(n.layers)+1)
	acts[0] = input
	cur := input
	for li, l := range n.layers {
		next := make([]float64, l.out)
		for o := 0; o < l.out; o++ {
			sum := l.b[o]
			row := l.w[o*l.in : (o+1)*l.in]
			for i, x := range cur {
				sum += row[i] * x
			}
			next[o] = l.act.apply(sum)
		}
		acts[li+1] = next
		cur = next
	}
	return acts
}

// refEvaluate is the pre-optimization Network.Evaluate over refForward.
func refEvaluate(n *Network, d Dataset) float64 {
	if len(d) == 0 {
		return 0
	}
	var s float64
	for _, smp := range d {
		acts := refForward(n, smp.Input)
		s += MSE(acts[len(acts)-1], smp.Target)
	}
	return s / float64(len(d))
}

// refTrain is the pre-optimization Network.Train: per-sample delta
// allocations, a full network Clone per improved epoch, interleaved
// backprop/weight-update inner loop. Config defaulting matches Train.
func refTrain(n *Network, train, val Dataset, cfg TrainConfig) (TrainReport, error) {
	if err := train.Validate(n.Inputs(), n.Outputs()); err != nil {
		return TrainReport{}, err
	}
	if len(val) > 0 {
		if err := val.Validate(n.Inputs(), n.Outputs()); err != nil {
			return TrainReport{}, err
		}
	}
	if cfg.LearningRate <= 0 {
		cfg.LearningRate = 0.05
	}
	if cfg.Momentum < 0 || cfg.Momentum >= 1 {
		cfg.Momentum = 0.9
	}
	if cfg.Epochs <= 0 {
		cfg.Epochs = 200
	}
	if cfg.Patience <= 0 {
		cfg.Patience = 30
	}
	if cfg.LearnTarget <= 0 {
		cfg.LearnTarget = 1e-3
	}
	if cfg.GeneralizeTarget <= 0 {
		cfg.GeneralizeTarget = 5e-3
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	vw := make([][]float64, len(n.layers))
	vb := make([][]float64, len(n.layers))
	for i, l := range n.layers {
		vw[i] = make([]float64, len(l.w))
		vb[i] = make([]float64, len(l.b))
	}

	order := make([]int, len(train))
	for i := range order {
		order[i] = i
	}

	var rep TrainReport
	best := n.Clone()
	rep.BestValErr = math.Inf(1)
	sinceBest := 0

	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		if cfg.BatchShuffle {
			rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		}
		var trainErr float64
		for _, si := range order {
			s := train[si]
			acts := refForward(n, s.Input)
			out := acts[len(acts)-1]
			trainErr += MSE(out, s.Target)

			delta := make([]float64, len(out))
			lastLayer := n.layers[len(n.layers)-1]
			for o := range out {
				delta[o] = (out[o] - s.Target[o]) * lastLayer.act.derivFromOutput(out[o])
			}
			for li := len(n.layers) - 1; li >= 0; li-- {
				l := &n.layers[li]
				in := acts[li]
				var prevDelta []float64
				if li > 0 {
					prevDelta = make([]float64, l.in)
				}
				for o := 0; o < l.out; o++ {
					row := l.w[o*l.in : (o+1)*l.in]
					d := delta[o]
					for i := range row {
						if li > 0 {
							prevDelta[i] += row[i] * d
						}
						g := d * in[i]
						v := cfg.Momentum*vw[li][o*l.in+i] - cfg.LearningRate*g
						vw[li][o*l.in+i] = v
						row[i] += v
					}
					v := cfg.Momentum*vb[li][o] - cfg.LearningRate*d
					vb[li][o] = v
					l.b[o] += v
				}
				if li > 0 {
					below := acts[li]
					act := n.layers[li-1].act
					for i := range prevDelta {
						prevDelta[i] *= act.derivFromOutput(below[i])
					}
					delta = prevDelta
				}
			}
		}
		trainErr /= float64(len(train))
		rep.ErrCurve = append(rep.ErrCurve, trainErr)
		rep.TrainErr = trainErr
		rep.Epochs = epoch + 1

		valErr := trainErr
		if len(val) > 0 {
			valErr = refEvaluate(n, val)
		}
		rep.ValErrCurve = append(rep.ValErrCurve, valErr)
		rep.ValErr = valErr

		if valErr < rep.BestValErr {
			rep.BestValErr = valErr
			best = n.Clone()
			sinceBest = 0
		} else {
			sinceBest++
		}

		rep.Learned = trainErr <= cfg.LearnTarget
		rep.Generalized = valErr <= cfg.GeneralizeTarget
		if rep.Learned && rep.Generalized {
			break
		}
		if sinceBest >= cfg.Patience {
			rep.StoppedEarly = true
			break
		}
	}

	n.layers = best.layers
	if len(val) > 0 {
		rep.ValErr = refEvaluate(n, val)
	}
	rep.TrainErr = refEvaluate(n, train)
	rep.Learned = rep.TrainErr <= cfg.LearnTarget
	rep.Generalized = rep.ValErr <= cfg.GeneralizeTarget
	return rep, nil
}

// refVote is the pre-optimization Ensemble.Vote over per-call predictions.
func refVote(e *Ensemble, input []float64) ([]float64, float64, error) {
	preds := make([][]float64, len(e.members))
	for i, m := range e.members {
		acts := refForward(m, input)
		preds[i] = append([]float64(nil), acts[len(acts)-1]...)
	}
	avg := make([]float64, e.Outputs())
	for _, p := range preds {
		for j, v := range p {
			avg[j] += v
		}
	}
	for j := range avg {
		avg[j] /= float64(len(preds))
	}
	var spread float64
	for _, p := range preds {
		spread += math.Sqrt(MSE(p, avg))
	}
	spread /= float64(len(preds))
	return avg, 1 / (1 + spread*10), nil
}

var goldenTopologies = [][]int{
	{3, 1},
	{3, 8, 1},
	{5, 12, 7, 2},
	{8, 20, 10, 3},
}

func goldenInputs(seed int64, width, n int) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]float64, n)
	for i := range out {
		v := make([]float64, width)
		for j := range v {
			v[j] = rng.NormFloat64()
		}
		out[i] = v
	}
	return out
}

func TestForwardScratchBitIdenticalToReference(t *testing.T) {
	for _, sizes := range goldenTopologies {
		n, err := New(11, sizes...)
		if err != nil {
			t.Fatal(err)
		}
		sc := n.NewScratch()
		for _, in := range goldenInputs(12, sizes[0], 25) {
			want := refForward(n, in)
			got := n.forwardInto(sc, in)
			for j, w := range want[len(want)-1] {
				if got[j] != w {
					t.Fatalf("topology %v: output[%d] = %x, reference %x", sizes, j, got[j], w)
				}
			}
			// Every intermediate activation feeds backprop — pin them too.
			for li := range want {
				for j, w := range want[li] {
					if sc.acts[li][j] != w {
						t.Fatalf("topology %v: acts[%d][%d] = %x, reference %x", sizes, li, j, sc.acts[li][j], w)
					}
				}
			}
		}
	}
}

func TestTrainBitIdenticalToReference(t *testing.T) {
	data := syntheticRegression(21, 140)
	train, val := data.Split(21, 0.8)
	for _, cfg := range []TrainConfig{
		DefaultTrainConfig(21),
		{LearningRate: 0.1, Momentum: 0.5, Epochs: 35, BatchShuffle: false, Seed: 9, Patience: 5},
		{Epochs: 60, BatchShuffle: true, Seed: 3, LearnTarget: 1e-4, GeneralizeTarget: 1e-3},
	} {
		cfg.Epochs = min(cfg.Epochs, 60)
		ref, err := New(33, 3, 10, 6, 1)
		if err != nil {
			t.Fatal(err)
		}
		opt := ref.Clone()

		refRep, err := refTrain(ref, train, val, cfg)
		if err != nil {
			t.Fatal(err)
		}
		optRep, err := opt.Train(train, val, cfg)
		if err != nil {
			t.Fatal(err)
		}

		refW, optW := ref.flatten(), opt.flatten()
		for i := range refW {
			if refW[i] != optW[i] {
				t.Fatalf("cfg %+v: weight %d = %x, reference %x", cfg, i, optW[i], refW[i])
			}
		}
		if refRep.Epochs != optRep.Epochs || refRep.TrainErr != optRep.TrainErr ||
			refRep.ValErr != optRep.ValErr || refRep.BestValErr != optRep.BestValErr ||
			refRep.Learned != optRep.Learned || refRep.Generalized != optRep.Generalized ||
			refRep.StoppedEarly != optRep.StoppedEarly {
			t.Fatalf("cfg %+v: report %+v, reference %+v", cfg, optRep, refRep)
		}
		if len(refRep.ErrCurve) != len(optRep.ErrCurve) {
			t.Fatalf("cfg %+v: curve length %d, reference %d", cfg, len(optRep.ErrCurve), len(refRep.ErrCurve))
		}
		for i := range refRep.ErrCurve {
			if refRep.ErrCurve[i] != optRep.ErrCurve[i] || refRep.ValErrCurve[i] != optRep.ValErrCurve[i] {
				t.Fatalf("cfg %+v: curves diverge at epoch %d", cfg, i)
			}
		}
	}
}

func TestTrainGAEvaluatesBitIdenticalToReference(t *testing.T) {
	// The GA weight trainer's fitness is EvaluateWith; pin it (and the
	// final restored network) against the reference evaluator.
	data := syntheticRegression(27, 80)
	train, val := data.Split(27, 0.8)
	n, err := New(44, 3, 6, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultGATrainConfig(44)
	cfg.PopSize = 10
	cfg.Generations = 8
	rep, err := n.TrainGA(train, val, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := rep.TrainErr, refEvaluate(n, train); got != want {
		t.Errorf("TrainGA TrainErr %x, reference evaluation %x", got, want)
	}
	if got, want := rep.ValErr, refEvaluate(n, val); got != want {
		t.Errorf("TrainGA ValErr %x, reference evaluation %x", got, want)
	}
}

func TestPredictBatchBitIdenticalToPredict(t *testing.T) {
	n, err := New(55, 5, 12, 7, 2)
	if err != nil {
		t.Fatal(err)
	}
	inputs := goldenInputs(56, 5, 40)
	batch, err := n.PredictBatch(inputs)
	if err != nil {
		t.Fatal(err)
	}
	for i, in := range inputs {
		single, err := n.Predict(in)
		if err != nil {
			t.Fatal(err)
		}
		for j := range single {
			if batch[i][j] != single[j] {
				t.Fatalf("batch[%d][%d] = %x, Predict %x", i, j, batch[i][j], single[j])
			}
		}
	}
}

func TestVoteScratchAndBatchBitIdenticalToReference(t *testing.T) {
	data := syntheticRegression(61, 90)
	cfg := DefaultTrainConfig(61)
	cfg.Epochs = 15
	ens, _, err := NewEnsemble(nil, 61, 3, []int{3, 8, 1}, data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	inputs := goldenInputs(62, 3, 30)

	s := ens.NewScratch()
	avgs, confs, err := ens.VoteBatch(inputs)
	if err != nil {
		t.Fatal(err)
	}
	for i, in := range inputs {
		wantAvg, wantConf, err := refVote(ens, in)
		if err != nil {
			t.Fatal(err)
		}
		gotAvg, gotConf, err := ens.VoteInto(s, in)
		if err != nil {
			t.Fatal(err)
		}
		if gotConf != wantConf || confs[i] != wantConf {
			t.Fatalf("input %d: confidence VoteInto %x batch %x, reference %x", i, gotConf, confs[i], wantConf)
		}
		for j := range wantAvg {
			if gotAvg[j] != wantAvg[j] || avgs[i][j] != wantAvg[j] {
				t.Fatalf("input %d: avg[%d] VoteInto %x batch %x, reference %x", i, j, gotAvg[j], avgs[i][j], wantAvg[j])
			}
		}
		// Vote (pooled-scratch convenience API) must agree and must return
		// a caller-owned copy, not a scratch alias.
		pooled, pooledConf, err := ens.Vote(in)
		if err != nil {
			t.Fatal(err)
		}
		if pooledConf != wantConf {
			t.Fatalf("input %d: Vote confidence %x, reference %x", i, pooledConf, wantConf)
		}
		for j := range wantAvg {
			if pooled[j] != wantAvg[j] {
				t.Fatalf("input %d: Vote avg[%d] = %x, reference %x", i, j, pooled[j], wantAvg[j])
			}
		}
		pooled[0] = math.NaN() // must not corrupt any shared buffer
	}
}

func TestScratchReuseAcrossTopologies(t *testing.T) {
	// A scratch built for one topology degrades gracefully (one rebuild)
	// when handed to a differently shaped network instead of corrupting
	// results.
	a, err := New(71, 3, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(72, 5, 12, 7, 2)
	if err != nil {
		t.Fatal(err)
	}
	sc := a.NewScratch()
	inA := goldenInputs(73, 3, 1)[0]
	inB := goldenInputs(74, 5, 1)[0]
	wantA := refForward(a, inA)
	wantB := refForward(b, inB)
	for round := 0; round < 3; round++ {
		gotA := a.forwardInto(sc, inA)
		for j := range gotA {
			if gotA[j] != wantA[len(wantA)-1][j] {
				t.Fatalf("round %d: network A output differs after scratch sharing", round)
			}
		}
		gotB := b.forwardInto(sc, inB)
		for j := range gotB {
			if gotB[j] != wantB[len(wantB)-1][j] {
				t.Fatalf("round %d: network B output differs after scratch sharing", round)
			}
		}
	}
}

func TestInfIsIEEEInfinityAndSerializationUnaffected(t *testing.T) {
	// inf() seeds the best-validation tracker; it must be the IEEE +Inf,
	// not a near-DBL_MAX magic constant that a stray arithmetic step could
	// silently exceed.
	if !math.IsInf(inf(), 1) {
		t.Fatalf("inf() = %g, want +Inf", inf())
	}
	if inf() == 1e308 {
		t.Fatal("inf() still returns the 1e308 magic constant")
	}
	// The sentinel never reaches the weight file: a trained ensemble must
	// round-trip bit-identically through serialization.
	data := syntheticRegression(81, 60)
	cfg := DefaultTrainConfig(81)
	cfg.Epochs = 10
	ens, reports, err := NewEnsemble(nil, 81, 2, []int{3, 6, 1}, data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, rep := range reports {
		if math.IsInf(rep.BestValErr, 1) {
			t.Errorf("member %d BestValErr is +Inf after training; would not survive JSON", i)
		}
	}
	var orig, reloaded bytes.Buffer
	if err := ens.Save(&orig, nil); err != nil {
		t.Fatal(err)
	}
	loaded, _, err := Load(bytes.NewReader(orig.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if err := loaded.Save(&reloaded, nil); err != nil {
		t.Fatal(err)
	}
	if orig.String() != reloaded.String() {
		t.Error("weight file does not round-trip bit-identically")
	}
}
