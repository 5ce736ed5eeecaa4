package neural

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
)

// Sample is one supervised example: a test's feature vector and its
// fuzzy-coded trip point.
type Sample struct {
	Input  []float64
	Target []float64
}

// Dataset is an ordered collection of samples.
type Dataset []Sample

// Validate checks every sample against the expected widths.
func (d Dataset) Validate(inputs, outputs int) error {
	if len(d) == 0 {
		return errors.New("neural: empty dataset")
	}
	for i, s := range d {
		if len(s.Input) != inputs {
			return fmt.Errorf("neural: sample %d input width %d, want %d", i, len(s.Input), inputs)
		}
		if len(s.Target) != outputs {
			return fmt.Errorf("neural: sample %d target width %d, want %d", i, len(s.Target), outputs)
		}
	}
	return nil
}

// Split partitions the dataset into training and validation subsets; frac
// is the training fraction. The split is deterministic in the seed.
func (d Dataset) Split(seed int64, frac float64) (train, val Dataset) {
	if frac <= 0 || frac >= 1 {
		frac = 0.8
	}
	idx := rand.New(rand.NewSource(seed)).Perm(len(d))
	cut := int(float64(len(d)) * frac)
	if cut == 0 {
		cut = 1
	}
	if cut == len(d) && len(d) > 1 {
		cut = len(d) - 1
	}
	train = make(Dataset, 0, cut)
	val = make(Dataset, 0, len(d)-cut)
	for i, j := range idx {
		if i < cut {
			train = append(train, d[j])
		} else {
			val = append(val, d[j])
		}
	}
	return train, val
}

// Bootstrap draws a resampled dataset of the same size with replacement —
// the subset construction for the voting machine ("multiple NNs are trained
// on different subsets of the training input tests", §5).
func (d Dataset) Bootstrap(seed int64) Dataset {
	rng := rand.New(rand.NewSource(seed))
	out := make(Dataset, len(d))
	for i := range out {
		out[i] = d[rng.Intn(len(d))]
	}
	return out
}

// TrainConfig configures backpropagation training.
type TrainConfig struct {
	LearningRate float64 // step size (default 0.05)
	Momentum     float64 // classic momentum (default 0.9)
	Epochs       int     // hard epoch cap (default 200)
	BatchShuffle bool    // reshuffle sample order each epoch (default true via Default)
	Seed         int64   // shuffle seed

	// Learnability / generalization checks (fig. 4 step 4): training stops
	// early when the training error falls below LearnTarget AND the
	// validation error is below GeneralizeTarget; training aborts as
	// non-generalizing when validation error has not improved for
	// Patience epochs.
	LearnTarget      float64 // default 1e-3
	GeneralizeTarget float64 // default 5e-3
	Patience         int     // default 30
}

// DefaultTrainConfig returns the tuned defaults.
func DefaultTrainConfig(seed int64) TrainConfig {
	return TrainConfig{
		LearningRate:     0.05,
		Momentum:         0.9,
		Epochs:           200,
		BatchShuffle:     true,
		Seed:             seed,
		LearnTarget:      1e-3,
		GeneralizeTarget: 5e-3,
		Patience:         30,
	}
}

// TrainReport summarizes one training run.
type TrainReport struct {
	Epochs       int
	TrainErr     float64 // final mean MSE over the training set
	ValErr       float64 // final mean MSE over the validation set
	BestValErr   float64
	Learned      bool // training error reached LearnTarget
	Generalized  bool // validation error reached GeneralizeTarget
	StoppedEarly bool // patience exhausted
	ErrCurve     []float64
	ValErrCurve  []float64
}

// Train runs momentum backpropagation (online/stochastic updates) on the
// training set, evaluating the validation set each epoch and keeping the
// best-validation weights (early stopping). The network is modified in
// place and ends at the best-validation snapshot.
func (n *Network) Train(train, val Dataset, cfg TrainConfig) (TrainReport, error) {
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

	// Steady-state-allocation-free training state, sized once per call:
	// the forward/backprop scratch arena, momentum buffers mirroring the
	// flat weight layout, and a flat snapshot of the best-validation
	// weights (replacing a full network Clone per improved epoch).
	sc := n.NewScratch()
	vw := make([][]float64, len(n.layers))
	vb := make([][]float64, len(n.layers))
	for i, l := range n.layers {
		vw[i] = make([]float64, len(l.w))
		vb[i] = make([]float64, len(l.b))
	}
	bestW := make([]float64, n.ChromosomeLen())
	n.flattenInto(bestW)

	order := make([]int, len(train))
	for i := range order {
		order[i] = i
	}

	var rep TrainReport
	rep.ErrCurve = make([]float64, 0, cfg.Epochs)
	rep.ValErrCurve = make([]float64, 0, cfg.Epochs)
	rep.BestValErr = inf()
	sinceBest := 0

	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		if cfg.BatchShuffle {
			rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		}
		var trainErr float64
		for _, si := range order {
			s := train[si]
			out := n.forwardInto(sc, s.Input)
			trainErr += MSE(out, s.Target)

			// Backward pass: delta per layer, ping-ponging between the two
			// scratch delta buffers. Per (layer, output) the pass is two
			// contiguous axpy-style sweeps over the flat weight row — the
			// delta back-accumulation reads the pre-update row exactly as
			// the interleaved reference formulation does, so results stay
			// bit-identical.
			delta := sc.delta[:len(out)]
			lastLayer := &n.layers[len(n.layers)-1]
			for o := range out {
				delta[o] = (out[o] - s.Target[o]) * lastLayer.act.derivFromOutput(out[o])
			}
			for li := len(n.layers) - 1; li >= 0; li-- {
				l := &n.layers[li]
				in := sc.acts[li]
				var prevDelta []float64
				if li > 0 {
					prevDelta = sc.prev[:l.in]
					for i := range prevDelta {
						prevDelta[i] = 0
					}
				}
				vwl, vbl := vw[li], vb[li]
				for o := 0; o < l.out; o++ {
					row := l.w[o*l.in : (o+1)*l.in]
					vrow := vwl[o*l.in : (o+1)*l.in]
					d := delta[o]
					if li > 0 {
						for i, w := range row {
							prevDelta[i] += w * d
						}
					}
					for i := range row {
						v := cfg.Momentum*vrow[i] - cfg.LearningRate*(d*in[i])
						vrow[i] = v
						row[i] += v
					}
					v := cfg.Momentum*vbl[o] - cfg.LearningRate*d
					vbl[o] = v
					l.b[o] += v
				}
				if li > 0 {
					below := sc.acts[li]
					act := n.layers[li-1].act
					for i := range prevDelta {
						prevDelta[i] *= act.derivFromOutput(below[i])
					}
					sc.delta, sc.prev = sc.prev, sc.delta
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
			valErr = n.EvaluateWith(sc, val)
		}
		rep.ValErrCurve = append(rep.ValErrCurve, valErr)
		rep.ValErr = valErr

		if valErr < rep.BestValErr {
			rep.BestValErr = valErr
			n.flattenInto(bestW)
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

	// Restore the best-validation snapshot.
	n.unflatten(bestW)
	if len(val) > 0 {
		rep.ValErr = n.EvaluateWith(sc, val)
	}
	rep.TrainErr = n.EvaluateWith(sc, train)
	rep.Learned = rep.TrainErr <= cfg.LearnTarget
	rep.Generalized = rep.ValErr <= cfg.GeneralizeTarget
	return rep, nil
}

// EvaluateWith returns the mean MSE of the network over the dataset, using
// the caller-owned scratch arena: one forward pass per sample, zero
// allocations. Safe for concurrent use with one Scratch per goroutine.
func (n *Network) EvaluateWith(sc *Scratch, d Dataset) float64 {
	if len(d) == 0 {
		return 0
	}
	n.ensure(sc)
	var s float64
	for _, smp := range d {
		s += MSE(n.forwardInto(sc, smp.Input), smp.Target)
	}
	return s / float64(len(d))
}

func inf() float64 { return math.Inf(1) }
