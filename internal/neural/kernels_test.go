// The pure-software neural kernels of the learning and optimization hot
// path — no ATE, no device simulation — as a benchmark and an allocation
// gate that run the same kernel bodies.
package neural_test

import (
	"runtime"
	"testing"

	"repro/internal/neural"
	"repro/internal/testgen"
)

// raceEnabled is set under -race, where sync.Pool drops pooled scratch at
// random, so the pooled kernels allocate per call.
var raceEnabled bool

// kernelSizes is the topology every kernel trains or votes with.
var kernelSizes = []int{testgen.NumFeatures, 20, 10, 1}

// kernelDataset builds the fixed synthetic severity dataset the kernels
// train and predict on: random-test feature vectors against a smooth
// single-output target, sized like one learning-phase member subset.
func kernelDataset(n int) neural.Dataset {
	gen := testgen.NewRandomGenerator(1234, 4096, testgen.DefaultConditionLimits())
	limits := testgen.DefaultConditionLimits()
	data := make(neural.Dataset, n)
	for i := range data {
		f := testgen.ExtractFeatures(gen.Next(), limits)
		t := 0.0
		for _, v := range f {
			t += v
		}
		t /= float64(len(f))
		data[i] = neural.Sample{Input: f, Target: []float64{t}}
	}
	return data
}

// kernelEnsemble trains the three-member ensemble the predict kernels vote
// with and returns it with the dataset's input vectors.
func kernelEnsemble(tb testing.TB, data neural.Dataset) (*neural.Ensemble, [][]float64) {
	cfg := neural.DefaultTrainConfig(7)
	cfg.Epochs = 5
	ens, _, err := neural.NewEnsemble(nil, 7, 3, kernelSizes, data, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	inputs := make([][]float64, len(data))
	for i, s := range data {
		inputs[i] = s.Input
	}
	return ens, inputs
}

// learningKernels lists the kernels; setup builds a kernel's inputs over
// kernelDataset(96) and returns one op of it.
var learningKernels = []struct {
	name  string
	setup func(tb testing.TB, data neural.Dataset) (op func())
}{
	// One backprop training run per op: fixed epoch budget over the fixed
	// dataset, the same work a fig. 4 ensemble member does.
	{"train", func(tb testing.TB, data neural.Dataset) func() {
		train, val := data.Split(7, 0.85)
		cfg := neural.DefaultTrainConfig(7)
		cfg.Epochs = 40
		cfg.LearnTarget = 1e-12 // never satisfied: every op trains all epochs
		cfg.Patience = 1000
		return func() {
			n, err := neural.New(7, kernelSizes...)
			if err != nil {
				tb.Fatal(err)
			}
			if _, err := n.Train(train, val, cfg); err != nil {
				tb.Fatal(err)
			}
		}
	}},
	// One full-dataset voting sweep per op: the ensemble scores every
	// sample, the same work one ProposeSeeds candidate-pool pass does per
	// len(data) candidates.
	{"ensemble-predict", func(tb testing.TB, data neural.Dataset) func() {
		ens, inputs := kernelEnsemble(tb, data)
		return func() {
			for _, in := range inputs {
				if _, _, err := ens.Vote(in); err != nil {
					tb.Fatal(err)
				}
			}
		}
	}},
	// The same sweep through the batched entry point: one flat result
	// arena for the whole dataset instead of a copy per call.
	{"batch-predict", func(tb testing.TB, data neural.Dataset) func() {
		ens, inputs := kernelEnsemble(tb, data)
		return func() {
			if _, _, err := ens.VoteBatch(inputs); err != nil {
				tb.Fatal(err)
			}
		}
	}},
}

func BenchmarkLearningKernels(b *testing.B) {
	data := kernelDataset(96)
	for _, k := range learningKernels {
		b.Run(k.name, func(b *testing.B) {
			op := k.setup(b, data)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				op()
			}
		})
	}
}

// TestLearningKernelAllocs gates each kernel's heap allocations and bytes
// per op over 20 ops, counted the way -benchmem counts them. The bounds sit
// 20% above the steady state measured at 20 ops (train 30 allocs and
// 29,424 B, ensemble-predict 1 and 949 B, batch-predict 4 and 4,354 B),
// rounded down.
func TestLearningKernelAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled scratch, so pooled kernels allocate per call")
	}
	const ops = 20
	bounds := map[string]struct{ allocs, bytes uint64 }{
		"train":            {35, 35308},
		"ensemble-predict": {1, 1138},
		"batch-predict":    {4, 5224},
	}
	data := kernelDataset(96)
	for _, k := range learningKernels {
		t.Run(k.name, func(t *testing.T) {
			op := k.setup(t, data)
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			for i := 0; i < ops; i++ {
				op()
			}
			runtime.ReadMemStats(&m1)
			allocs := (m1.Mallocs - m0.Mallocs) / ops
			bytes := (m1.TotalAlloc - m0.TotalAlloc) / ops
			t.Logf("%d allocs/op, %d B/op", allocs, bytes)
			want := bounds[k.name]
			if allocs > want.allocs {
				t.Errorf("%d allocs/op, want at most %d", allocs, want.allocs)
			}
			if bytes > want.bytes {
				t.Errorf("%d B/op, want at most %d", bytes, want.bytes)
			}
		})
	}
}
