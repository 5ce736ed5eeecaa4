package repro_test

import (
	"testing"

	"repro/internal/neural"
	"repro/internal/testgen"
)

// kernelDataset builds the fixed synthetic severity dataset the kernel
// benchmarks train and predict on: random-test feature vectors against a
// smooth single-output target, sized like one learning-phase member subset.
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

// BenchmarkLearningKernels isolates the pure-software neural kernels of the
// learning/optimization hot path — no ATE, no device simulation. The CI
// gate (ci.sh) pins allocs/op ceilings on both sub-benchmarks so allocation
// regressions in the kernels cannot land silently.
func BenchmarkLearningKernels(b *testing.B) {
	data := kernelDataset(96)
	sizes := []int{testgen.NumFeatures, 20, 10, 1}

	// One backprop training run per op: fixed epoch budget over the fixed
	// dataset, the same work a fig. 4 ensemble member does.
	b.Run("train", func(b *testing.B) {
		train, val := data.Split(7, 0.85)
		cfg := neural.DefaultTrainConfig(7)
		cfg.Epochs = 40
		cfg.LearnTarget = 1e-12 // never satisfied: every op trains all epochs
		cfg.Patience = 1000
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			n, err := neural.New(7, sizes...)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := n.Train(train, val, cfg); err != nil {
				b.Fatal(err)
			}
		}
	})

	// One full-dataset voting sweep per op: the ensemble scores every
	// sample, the same work one ProposeSeeds candidate-pool pass does per
	// len(data) candidates.
	b.Run("ensemble-predict", func(b *testing.B) {
		cfg := neural.DefaultTrainConfig(7)
		cfg.Epochs = 5
		ens, _, err := neural.NewEnsemble(nil, 7, 3, sizes, data, cfg)
		if err != nil {
			b.Fatal(err)
		}
		inputs := make([][]float64, len(data))
		for i, s := range data {
			inputs[i] = s.Input
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, in := range inputs {
				if _, _, err := ens.Vote(in); err != nil {
					b.Fatal(err)
				}
			}
		}
	})

	// The same sweep through the batched entry point: one flat result
	// arena for the whole dataset instead of a copy per call.
	b.Run("batch-predict", func(b *testing.B) {
		cfg := neural.DefaultTrainConfig(7)
		cfg.Epochs = 5
		ens, _, err := neural.NewEnsemble(nil, 7, 3, sizes, data, cfg)
		if err != nil {
			b.Fatal(err)
		}
		inputs := make([][]float64, len(data))
		for i, s := range data {
			inputs[i] = s.Input
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := ens.VoteBatch(inputs); err != nil {
				b.Fatal(err)
			}
		}
	})
}
