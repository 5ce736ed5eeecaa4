package neural

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"repro/internal/parallel"
)

// Ensemble is the paper's NN voting machine (§5, learning step 1):
// "multiple NNs are trained on different subsets of the training input
// tests, then vote in parallel on unknown input tests." Prediction is the
// member average; the confidence in a classification "is determined by
// averaging the mean error for each network" — realized here as the member
// disagreement (consistency check).
type Ensemble struct {
	members []*Network

	// scratch pools EnsembleScratch arenas for the convenience entry
	// points (Vote, Predict, Evaluate) that do not take a caller-owned
	// arena.
	scratch sync.Pool
}

// NewEnsemble trains n member networks on independent bootstrap resamples
// of the dataset, one member per task on the fleet f (nil trains them
// serially). Layer sizes apply to every member; seeds derive from the base
// seed so runs are reproducible. Every member's initialization, bootstrap
// resample, split and training derive solely from its own member seed and
// read the shared dataset read-only, so the trained weights are
// bit-identical at any fleet size — and a flow that also fans measurement
// work over f shares one pool across phases.
func NewEnsemble(f *parallel.Fleet, seed int64, n int, sizes []int, data Dataset, cfg TrainConfig) (*Ensemble, []TrainReport, error) {
	if n <= 0 {
		return nil, nil, fmt.Errorf("neural: ensemble size %d must be positive", n)
	}
	members := make([]*Network, n)
	reports := make([]TrainReport, n)
	err := parallel.ForEachOn(f, n, func(i int) error {
		memberSeed := seed + int64(i)*7919
		net, err := New(memberSeed, sizes...)
		if err != nil {
			return err
		}
		sub := data.Bootstrap(memberSeed)
		train, val := sub.Split(memberSeed, 0.85)
		memberCfg := cfg
		memberCfg.Seed = memberSeed
		rep, err := net.Train(train, val, memberCfg)
		if err != nil {
			return fmt.Errorf("neural: training ensemble member %d: %w", i, err)
		}
		members[i] = net
		reports[i] = rep
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	return &Ensemble{members: members}, reports, nil
}

// FromNetworks wraps already-trained networks into an ensemble (weight-file
// loading path).
func FromNetworks(members []*Network) (*Ensemble, error) {
	if len(members) == 0 {
		return nil, errors.New("neural: ensemble needs at least one member")
	}
	in, out := members[0].Inputs(), members[0].Outputs()
	for i, m := range members[1:] {
		if m.Inputs() != in || m.Outputs() != out {
			return nil, fmt.Errorf("neural: member %d shape (%d→%d) differs from member 0 (%d→%d)",
				i+1, m.Inputs(), m.Outputs(), in, out)
		}
	}
	return &Ensemble{members: members}, nil
}

// Size returns the number of member networks.
func (e *Ensemble) Size() int { return len(e.members) }

// Members returns the member networks (shared, not copied).
func (e *Ensemble) Members() []*Network { return e.members }

// Inputs returns the ensemble input width.
func (e *Ensemble) Inputs() int { return e.members[0].Inputs() }

// Outputs returns the ensemble output width.
func (e *Ensemble) Outputs() int { return e.members[0].Outputs() }

// EnsembleScratch is the reusable per-goroutine workspace of one voting
// machine: a per-member network arena, a flat member-prediction matrix and
// the averaging buffer. Like Scratch, it may be reused across any number of
// calls but must never be shared between concurrently running goroutines —
// hand each internal/parallel worker its own via NewScratch.
type EnsembleScratch struct {
	nets []*Scratch
	outs []float64 // row-major [members][Outputs()] member predictions
	avg  []float64

	// res is the append-only result arena behind Vote/Predict: each call
	// takes a capacity-clipped sub-slice for its returned prediction, so the
	// per-call copy allocation amortizes to one chunk allocation per
	// voteArenaChunk floats. Exhausted chunks are abandoned, never recycled,
	// so escaped results stay valid forever.
	res []float64
}

// voteArenaChunk is the result-arena refill size in float64s (a few hundred
// small predictions per allocation).
const voteArenaChunk = 512

// takeResult copies p into the arena and returns the stable copy.
func (s *EnsembleScratch) takeResult(p []float64) []float64 {
	if cap(s.res)-len(s.res) < len(p) {
		n := voteArenaChunk
		if n < len(p) {
			n = len(p)
		}
		s.res = make([]float64, 0, n)
	}
	off := len(s.res)
	s.res = append(s.res, p...)
	return s.res[off:len(s.res):len(s.res)]
}

// NewScratch allocates a voting workspace sized for this ensemble.
func (e *Ensemble) NewScratch() *EnsembleScratch {
	s := &EnsembleScratch{
		nets: make([]*Scratch, len(e.members)),
		outs: make([]float64, len(e.members)*e.Outputs()),
		avg:  make([]float64, e.Outputs()),
	}
	for i, m := range e.members {
		s.nets[i] = m.NewScratch()
	}
	return s
}

func (e *Ensemble) getScratch() *EnsembleScratch {
	if s, ok := e.scratch.Get().(*EnsembleScratch); ok {
		return s
	}
	return e.NewScratch()
}

func (e *Ensemble) putScratch(s *EnsembleScratch) { e.scratch.Put(s) }

// VoteInto is Vote with a caller-owned scratch arena: zero allocations in
// steady state. The returned prediction aliases the scratch and is valid
// until its next use; copy it out to retain it.
func (e *Ensemble) VoteInto(s *EnsembleScratch, input []float64) (avg []float64, confidence float64, err error) {
	width := e.Outputs()
	if len(s.nets) != len(e.members) || len(s.outs) != len(e.members)*width {
		*s = *e.NewScratch()
	}
	for i, m := range e.members {
		dst := s.outs[i*width : (i+1)*width : (i+1)*width]
		if err := m.PredictInto(s.nets[i], input, dst); err != nil {
			return nil, 0, err
		}
	}
	avg = s.avg
	for j := range avg {
		avg[j] = 0
	}
	for i := range e.members {
		for j, v := range s.outs[i*width : (i+1)*width] {
			avg[j] += v
		}
	}
	for j := range avg {
		avg[j] /= float64(len(e.members))
	}
	var spread float64
	for i := range e.members {
		spread += math.Sqrt(MSE(s.outs[i*width:(i+1)*width], avg))
	}
	spread /= float64(len(e.members))
	return avg, 1 / (1 + spread*10), nil
}

// Vote runs every member on the input and returns the averaged prediction
// together with the confidence: 1/(1+meanDisagreement), where the
// disagreement is the mean RMS spread of member outputs around the average.
// Unanimous members give confidence → 1.
func (e *Ensemble) Vote(input []float64) (avg []float64, confidence float64, err error) {
	s := e.getScratch()
	p, conf, err := e.VoteInto(s, input)
	if err != nil {
		e.putScratch(s)
		return nil, 0, err
	}
	// Arena-copy instead of a fresh allocation per call: the pooled
	// scratch's result chunks amortize the escape to ~1 allocation per
	// voteArenaChunk floats (the ensemble-predict kernel gate pins this).
	avg = s.takeResult(p)
	e.putScratch(s)
	return avg, conf, nil
}

// Predict returns only the averaged prediction.
func (e *Ensemble) Predict(input []float64) ([]float64, error) {
	avg, _, err := e.Vote(input)
	return avg, err
}

// VoteBatch scores a whole dataset of input vectors with one scratch arena:
// the averaged predictions (rows of a single flat backing array) and the
// per-input voting confidences. The two result slices are the only
// allocations of the call.
func (e *Ensemble) VoteBatch(inputs [][]float64) (avgs [][]float64, confidences []float64, err error) {
	width := e.Outputs()
	flat := make([]float64, len(inputs)*width)
	avgs = make([][]float64, len(inputs))
	confidences = make([]float64, len(inputs))
	s := e.getScratch()
	defer e.putScratch(s)
	for i, in := range inputs {
		p, conf, err := e.VoteInto(s, in)
		if err != nil {
			return nil, nil, fmt.Errorf("neural: batch input %d: %w", i, err)
		}
		row := flat[i*width : (i+1)*width : (i+1)*width]
		copy(row, p)
		avgs[i] = row
		confidences[i] = conf
	}
	return avgs, confidences, nil
}

// PredictBatch returns only the averaged predictions for a whole dataset.
func (e *Ensemble) PredictBatch(inputs [][]float64) ([][]float64, error) {
	avgs, _, err := e.VoteBatch(inputs)
	return avgs, err
}

// Evaluate returns the mean MSE of the averaged prediction over a dataset
// (the ensemble generalization check).
func (e *Ensemble) Evaluate(d Dataset) (float64, error) {
	s := e.getScratch()
	mse, err := e.EvaluateWith(s, d)
	e.putScratch(s)
	return mse, err
}

// EvaluateWith is Evaluate with a caller-owned scratch arena — zero
// allocations across the whole dataset sweep.
func (e *Ensemble) EvaluateWith(s *EnsembleScratch, d Dataset) (float64, error) {
	if len(d) == 0 {
		return 0, nil
	}
	var sum float64
	for _, smp := range d {
		p, _, err := e.VoteInto(s, smp.Input)
		if err != nil {
			return 0, err
		}
		sum += MSE(p, smp.Target)
	}
	return sum / float64(len(d)), nil
}
